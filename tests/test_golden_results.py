"""Byte-identical corpus behaviour under pinned schedules.

Every corpus program runs under nine schedules: ``eager``, ``periodic(3)``
and ``eager`` with the seeded ``random-subset`` selector, each in the
``simple``, ``fin`` and ``fin_weak`` modes, with step tracing on.  A run is
summarised by the sha256 of its canonical result key, its output lines and
its trace events; ``golden/corpus_results.json`` pins those digests.

A refactor of the interpreter, the collector or the executor must leave
every digest unchanged.  Only a deliberate change of observable behaviour
may rewrite the golden file, by running from the repository root::

    PYTHONPATH=src:tests python -c "import json, test_golden_results as g; \
print(json.dumps(g.all_digests(), indent=1, sort_keys=True))" \
> tests/golden/corpus_results.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from luagc.executor import Schedule, run
from luagc.interp import load_program

from conftest import CORPUS

GOLDEN = Path(__file__).parent / "golden" / "corpus_results.json"

SCHEDULES = [
    Schedule(policy=policy, mode=mode, period=3, seed=0, selector=selector)
    for policy, selector in (("eager", "maximal"), ("periodic", "maximal"),
                             ("eager", "random-subset"))
    for mode in ("simple", "fin", "fin_weak")
]


def corpus_programs():
    return sorted(CORPUS.glob("*/*.lua"))


def program_id(path: Path) -> str:
    return f"{path.parent.name}/{path.stem}"


def run_digest(path: Path, schedule: Schedule) -> str:
    config = load_program(path.read_text(), str(path))
    rec = run(config, schedule, trace_steps=True)
    blob = json.dumps(
        {"key": rec.result.key, "output": rec.output, "trace": rec.trace},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def program_digests(path: Path) -> dict:
    return {s.describe(): run_digest(path, s) for s in SCHEDULES}


def all_digests() -> dict:
    return {program_id(p): program_digests(p) for p in corpus_programs()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_corpus(golden):
    assert sorted(golden) == [program_id(p) for p in corpus_programs()]


@pytest.mark.parametrize("path", corpus_programs(), ids=program_id)
def test_corpus_runs_match_golden(path, golden):
    assert program_digests(path) == golden[program_id(path)]
