import dataclasses
import importlib.util
import sys
from pathlib import Path
from typing import List, NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def perfbench_module(name: str):
    """``perfbench/<name>.py``, imported as ``perfbench_<name>``: the
    benchmark is a directory of scripts, not a package."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


def corpus_text(rel: str) -> str:
    return (CORPUS / rel).read_text()


def deterministic_programs():
    return sorted((CORPUS / "deterministic").glob("*.lua"))


def safe_programs():
    return sorted((CORPUS / "safe").glob("*.lua"))


def explore_reduced_and_unreduced(config, explorer, fuel: int = 10_000):
    """The explorer's observation set and the unreduced one.

    The unreduced oracle branches on every cycle, garbage-only ones too:
    ``GcOutcome.garbage_only`` is patched to False for its run.  In the
    reduced run every garbage-only cycle must discard only locations that
    are not plainly reachable from the state's roots, and the check must
    see at least every cycle the reduction collected.
    """
    from luagc import executor, gc
    from luagc.gc import GcOutcome, reach_set_from

    real = gc.run_cycle
    garbage_only = 0

    def cycle(state, *args, **kwargs):
        nonlocal garbage_only
        o = real(state, *args, **kwargs)
        if o.garbage_only:
            garbage_only += 1
            reached = reach_set_from(state.roots(), state.sigma, state.theta)
            assert not set(o.discarded) & reached
        return o

    with pytest.MonkeyPatch.context() as m:
        m.setattr(gc, "run_cycle", cycle)
        reduced = executor.observations(config, explorer, fuel)
    assert garbage_only >= reduced.collected
    with pytest.MonkeyPatch.context() as m:
        m.setattr(GcOutcome, "garbage_only", property(lambda self: False))
        unreduced = executor.observations(config, explorer, fuel)
    assert unreduced.collected == 0
    return reduced, unreduced


class MemoRun(NamedTuple):
    record: object  # the RunRecord
    ran: List[object]  # outcomes of the cycles run while GC was on
    skipped: int  # cycles the machine skipped


def run_memo_checked(config, schedule, fuel: int = 2_000) -> MemoRun:
    """``run`` with every cycle the machine skips checked, against the run
    with the memo off.

    Each skipped cycle is run on the same state: it must be quiescent,
    change nothing and leave the random-subset RNG as it was.  The memo-off
    run patches every ``GcOutcome.quiescent`` to False, so it runs every
    cycle; its record and its RNG state after each cycle must equal the
    memoized run's.  ``ran`` leaves out the end-of-program drain.
    """
    from luagc import executor, gc

    real_cycle, real_collect = gc.run_cycle, executor.Machine.collect

    def observed(memo: bool):
        cycles: list = []
        ran: list = []
        rngs: list = []
        skipped = 0

        def cycle(*args, **kwargs):
            o = real_cycle(*args, **kwargs)
            cycles.append(o)
            return o if memo else dataclasses.replace(o, quiescent=False)

        def collect(self, selector):
            nonlocal skipped
            state, before = self.state, len(cycles)
            rng = self.rng.getstate() if self.rng else None
            out = real_collect(self, selector)
            if len(cycles) > before:
                if self.gc_on:
                    ran.append(cycles[before])
            else:
                assert out is None and self.state is state
                o = real_cycle(state, self.schedule.mode, selector,
                               allow_finalizer=not state.finalizer_in_flight)
                assert o.quiescent and not o.changed
                assert o.kept_sigma is state.sigma
                assert o.kept_theta is state.theta
                assert (self.rng.getstate() if self.rng else None) == rng
                skipped += 1
            rngs.append(self.rng.getstate() if self.rng else None)
            return out

        with pytest.MonkeyPatch.context() as m:
            m.setattr(gc, "run_cycle", cycle)
            m.setattr(executor.Machine, "collect", collect)
            rec = executor.run(config, schedule, fuel)
        return rec, ran, rngs, skipped

    rec, ran, rngs, skipped = observed(memo=True)
    unmemoized, _, unmemoized_rngs, none_skipped = observed(memo=False)
    assert none_skipped == 0
    assert rec == unmemoized
    assert rngs == unmemoized_rngs
    return MemoRun(rec, ran, skipped)


class MemoExploration(NamedTuple):
    observations: object  # the ObservationSet
    skipped: int  # cycles the memo skipped, at nodes and in drains


def explore_memo_checked(config, explorer,
                         fuel: int = 10_000) -> MemoExploration:
    """``observations`` with every cycle the memo skips checked, against
    the exploration with the memo off.

    Wherever ``gc.memo_vouches`` vouches, at a node or in a drain (both
    through ``enumerate_gc_steps``), the maximal cycle is run on the same
    state, its roots walked from the plugged term: it must be quiescent,
    change nothing and keep the same store objects.  The memo-off run patches every ``GcOutcome.quiescent``
    to False, so no state keeps a memo and every cycle runs; its
    observation set must equal the memoized one on keys and counters.
    """
    from luagc import executor, gc
    from luagc.heap import Configuration

    real_cycle, real_vouches = gc.run_cycle, gc.memo_vouches

    def observed(memo: bool):
        skipped = 0

        def vouches(c, mode, allow_finalizer):
            nonlocal skipped
            if not real_vouches(c, mode, allow_finalizer):
                return False
            o = real_cycle(Configuration(c.sigma, c.theta, c.term), mode,
                           allow_finalizer=allow_finalizer)
            assert o.quiescent and not o.changed
            assert o.kept_sigma is c.sigma and o.kept_theta is c.theta
            skipped += 1
            return True

        def cycle(*args, **kwargs):
            o = real_cycle(*args, **kwargs)
            return o if memo else dataclasses.replace(o, quiescent=False)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(gc, "run_cycle", cycle)
            m.setattr(gc, "memo_vouches", vouches)
            obs = executor.observations(config, explorer, fuel)
        return obs, skipped

    obs, skipped = observed(memo=True)
    unmemoized, none_skipped = observed(memo=False)
    assert none_skipped == 0
    for name in ("keys", "nodes", "revisits", "collected", "truncated"):
        assert getattr(obs, name) == getattr(unmemoized, name), name
    return MemoExploration(obs, skipped)



def oracle_state_key(c, steps: int) -> tuple:
    """The explorer's visited-set key as it was before nodes were keyed by
    their split: the whole plugged term and a tuple of every store entry.
    Kept as the reference that split keys must decide as."""
    sigma, theta = c.sigma, c.theta
    return (
        steps, plugged(c).term,
        tuple(sigma.bindings), tuple(sigma.bindings.values()),
        tuple(theta.tables), tuple(theta.tables.values()),
        tuple(theta.closures), tuple(theta.closures.values()),
        sigma.next_id, theta.next_tid, theta.next_cid,
    )


def plugged(c):
    """A focused state as the configuration it stands for, plugged without
    caching the term on the state; a configuration as itself."""
    from luagc import interp
    from luagc.heap import Configuration

    if type(c) is not interp.Focused:
        return c
    return Configuration(c.sigma, c.theta, interp.plug(c.at.frames, c.at.term))


def oracle_same_zero_signs(a, b) -> bool:
    """Given equal ``oracle_state_key``s, are the configurations ``a`` and
    ``b`` identical?  Walks the compared fields of both in step and checks
    the sign of each float pair; objects shared between the two are
    skipped by identity."""
    import math

    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if isinstance(x, float):
            if math.copysign(1.0, x) != math.copysign(1.0, y):
                return False
        elif isinstance(x, tuple):
            stack.extend(zip(x, y))
        elif isinstance(x, dict):
            stack.extend(zip(x.values(), y.values()))
        elif dataclasses.is_dataclass(x):
            stack.extend((getattr(x, f.name), getattr(y, f.name))
                         for f in dataclasses.fields(x) if f.compare)
    return True
