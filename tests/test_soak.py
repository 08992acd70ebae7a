"""Well-formedness soak: interleave collection with every program step.

Steps each corpus program with a maximal cycle of each mode attempted
before every single program step, validating the stores after each
transition.  Any dangling pointer introduced by collection, clearing or
finalizer splicing trips the store walker immediately.

At every step the identity selector, which forces the consistency shrink,
must give the same outcome as the maximal cycle: the kept set is closed
under the surviving heap edges, so the shrink has nothing to undo.

The soak also checks the delta rule the eager machine skips cycles by: it
keeps the stores and roots of the last quiescent cycle (its kept stores
when it discarded all its garbage), and wherever ``still_quiescent`` says
a cycle could be skipped, the cycle it runs must be quiescent and change
nothing.  A cycle that was quiescent only because a finalizer in flight
held its candidates back (``held_for_flight``) vouches for no cycle after
the finalizer ends.
"""

import pytest

from luagc.executor import finalizer_in_flight, splice_finalizer
from luagc.gc import run_cycle, still_quiescent
from luagc.heap import Configuration, validate
from luagc.interp import Finished, load_program, step

from conftest import CORPUS


def all_corpus_programs():
    out = []
    for sub in ("deterministic", "weak", "finalizers", "safe"):
        out.extend(sorted((CORPUS / sub).glob("*.lua")))
    return out


@pytest.mark.parametrize("path", all_corpus_programs(),
                         ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_eager_interleaving_preserves_well_formedness(path):
    for mode in ("simple", "fin", "fin_weak"):
        # every corpus program has steps the rule proves quiescent
        assert soak(path, mode) > 0, mode


def apply_outcome(config, outcome):
    """The configuration a cycle leaves: its kept stores, with the selected
    finalizer spliced into the term."""
    term = config.term
    if outcome.pending_finalizer is not None:
        term = splice_finalizer(term, *outcome.pending_finalizer)
    return Configuration(outcome.kept_sigma, outcome.kept_theta, term)


def soak(path, mode) -> int:
    """Soak one program in one mode; the number of cycles the delta rule
    would have skipped."""
    config = load_program(path.read_text(), str(path))
    validate(config)
    # (sigma, theta, roots, held_for_flight) of the last quiescent cycle
    quiet = None
    skips = 0
    for _ in range(700):
        allow_fin = not finalizer_in_flight(config.term)
        outcome = run_cycle(config, mode, allow_finalizer=allow_fin)
        forced = run_cycle(config, mode, selector=lambda g: g,
                           allow_finalizer=allow_fin)
        assert forced == outcome, mode
        if (quiet is not None and (not quiet[3] or not allow_fin)
                and still_quiescent(*quiet[:3], config)):
            assert outcome.quiescent and not outcome.changed, mode
            skips += 1
        quiet = ((outcome.kept_sigma, outcome.kept_theta, config.roots(),
                  outcome.held_for_flight)
                 if outcome.quiescent else None)
        if outcome.changed:
            config = apply_outcome(config, outcome)
            validate(config)
        res = step(config)
        if isinstance(res, Finished):
            break
        config = res.config
        validate(config)
    return skips
