"""What the stepping driver decides, pinned per corpus program.

For every corpus program, ``golden/driver_counts.json`` records:

- under ``Schedule("never")``: the program step count and the sha256 of the
  canonical result key;
- under ``ExhaustiveExplorer("fin_weak", 400, "maximal", 20_000)``: the
  configurations expanded (``nodes``), the revisits skipped, the
  garbage-only cycles collected in place instead of branched on
  (``collected``) and the size of the observation set;
- for ``check_postponement(trials=2, seed=3, fuel=2_000)``: the pairs
  checked and the number of failures.

Result keys alone do not show how many steps a run took or how many states
the explorer expanded; these counts do.  A refactor of the driver must
leave them unchanged.  The golden file is rewritten only for a deliberate
change of behaviour, by running from the repository root::

    PYTHONPATH=src:tests python -c "import json, test_golden_driver as g; \
print(json.dumps(g.all_counts(), indent=1, sort_keys=True))" \
> tests/golden/driver_counts.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from luagc.executor import (
    ExhaustiveExplorer,
    Schedule,
    check_postponement,
    observations,
    run,
)
from luagc.interp import load_program

from conftest import CORPUS

GOLDEN = Path(__file__).parent / "golden" / "driver_counts.json"

EXPLORER = ExhaustiveExplorer("fin_weak", 400, "maximal", 20_000)


def corpus_programs():
    return sorted(CORPUS.glob("*/*.lua"))


def program_id(path: Path) -> str:
    return f"{path.parent.name}/{path.stem}"


def counts(path: Path) -> dict:
    config = load_program(path.read_text(), str(path))
    rec = run(config, Schedule("never"))
    obs = observations(config, EXPLORER)
    report = check_postponement(config, trials=2, seed=3, fuel=2_000)
    return {
        "never_steps": rec.steps,
        "never_key": hashlib.sha256(rec.result.key.encode()).hexdigest(),
        "explore_nodes": obs.nodes,
        "explore_revisits": obs.revisits,
        "explore_collected": obs.collected,
        "explore_results": len(obs),
        "postponement_pairs": report.pairs_checked,
        "postponement_failures": len(report.failures),
    }


def all_counts() -> dict:
    return {program_id(p): counts(p) for p in corpus_programs()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_corpus(golden):
    assert sorted(golden) == [program_id(p) for p in corpus_programs()]


@pytest.mark.parametrize("path", corpus_programs(), ids=program_id)
def test_driver_counts_match_golden(path, golden):
    assert counts(path) == golden[program_id(path)]
