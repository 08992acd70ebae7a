"""Exhaustive-explorer observation sets pinned against a reference.

Every corpus program is explored under
``ExhaustiveExplorer("fin_weak", 400, "maximal", 20_000)``; two programs are
also explored with subset granularity (``finalizers/resurrection`` in
``fin`` mode, ``weak/ephemeron_self_key`` in ``fin_weak`` mode).  An
exploration is summarised by the sorted sha256 digests of its observation
keys and its ``truncated`` flag; ``golden/explorer_results.json`` pins them.

Where the reference exploration completed, the observation set must be
identical.  Where it was truncated, the exploration must now complete and
keep every observation the reference found other than ``⊥(budget)``.

The golden file records the path-based explorer's sets, before the visited
set was added.  It is rewritten only for a deliberate change of observable
behaviour, by running from the repository root::

    PYTHONPATH=src:tests python -c "import json, test_golden_explorer as g; \
print(json.dumps(g.all_digests(), indent=1, sort_keys=True))" \
> tests/golden/explorer_results.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from luagc.executor import BOTTOM_BUDGET, ExhaustiveExplorer, observations
from luagc.interp import load_program

from conftest import CORPUS

GOLDEN = Path(__file__).parent / "golden" / "explorer_results.json"

MAXIMAL = ExhaustiveExplorer("fin_weak", 400, "maximal", 20_000)
SUBSET_CASES = {
    "finalizers/resurrection/fin/subsets":
        ("finalizers/resurrection.lua",
         ExhaustiveExplorer("fin", 400, "subsets", 20_000)),
    "weak/ephemeron_self_key/fin_weak/subsets":
        ("weak/ephemeron_self_key.lua",
         ExhaustiveExplorer("fin_weak", 400, "subsets", 20_000)),
}


def digest(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()


def cases() -> dict:
    out = {
        f"{p.parent.name}/{p.stem}": (f"{p.parent.name}/{p.name}", MAXIMAL)
        for p in sorted(CORPUS.glob("*/*.lua"))
    }
    out.update(SUBSET_CASES)
    return out


CASES = cases()


def explore_digest(case_id: str) -> dict:
    rel, explorer = CASES[case_id]
    obs = observations(load_program((CORPUS / rel).read_text(), rel), explorer)
    return {"keys": sorted(digest(k) for k in obs.keys),
            "truncated": obs.truncated}


def all_digests() -> dict:
    return {case_id: explore_digest(case_id) for case_id in CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_explorer_matches_golden(case_id, golden):
    want = golden[case_id]
    got = explore_digest(case_id)
    if not want["truncated"]:
        assert got == want
        return
    assert not got["truncated"]
    assert set(want["keys"]) - {digest(BOTTOM_BUDGET)} <= set(got["keys"])
