from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


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
    are not plainly reachable from the state's roots.
    """
    from luagc import executor
    from luagc.gc import GcOutcome, reach_set_from

    real = executor.run_cycle

    def cycle(state, *args, **kwargs):
        o = real(state, *args, **kwargs)
        if o.garbage_only:
            reached = reach_set_from(state.roots(), state.sigma, state.theta)
            assert not set(o.discarded) & reached
        return o

    with pytest.MonkeyPatch.context() as m:
        m.setattr(executor, "run_cycle", cycle)
        reduced = executor.observations(config, explorer, fuel)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(GcOutcome, "garbage_only", property(lambda self: False))
        unreduced = executor.observations(config, explorer, fuel)
    assert unreduced.collected == 0
    return reduced, unreduced
