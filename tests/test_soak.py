"""Well-formedness soak: interleave collection with every program step.

Steps each corpus program with a maximal cycle of each mode attempted
before every single program step, validating the stores after each
transition.  Any dangling pointer introduced by collection, clearing or
finalizer splicing trips the store walker immediately.

At every step the identity selector, which forces the consistency shrink,
must give the same outcome as the maximal cycle: the kept set is closed
under the surviving heap edges, so the shrink has nothing to undo.
"""

import pytest

from luagc.executor import _apply_outcome, finalizer_in_flight
from luagc.gc import run_cycle
from luagc.heap import validate
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
        soak(path, mode)


def soak(path, mode):
    config = load_program(path.read_text(), str(path))
    validate(config)
    for _ in range(700):
        allow_fin = not finalizer_in_flight(config.term)
        outcome = run_cycle(config, mode, allow_finalizer=allow_fin)
        forced = run_cycle(config, mode, selector=lambda g: g,
                           allow_finalizer=allow_fin)
        assert forced == outcome, mode
        if outcome.changed:
            config = _apply_outcome(config, outcome)
            validate(config)
        res = step(config)
        if isinstance(res, Finished):
            break
        config = res.config
        validate(config)
