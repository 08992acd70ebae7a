"""What the weak-access analyzer reports, pinned per program.

For every corpus program, and for a few inline programs whose shapes the
corpus lacks, ``golden/analyzer_reports.json`` records the verdict, the
UNKNOWN reason and the sha256 of
``json.dumps(check_program(text).to_json(), sort_keys=True)``.  The digest
covers every diagnostic's position, message and reaching-definitions
witness, so a refactor of inference, reaching definitions or the checker
must leave it unchanged.

The inline programs cover nested loops with an inner ``break``, a local
after ``return``, a loop-carried reassignment read from a weak table and a
closure reading a weak table inside a loop.

The golden file is rewritten only for a deliberate change of behaviour, by
running from the repository root::

    PYTHONPATH=src:tests python -c "import json, test_golden_analyzer as g; \
print(json.dumps(g.all_reports(), indent=1, sort_keys=True))" \
> tests/golden/analyzer_reports.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from luagc.checker import check_program

from conftest import CORPUS

GOLDEN = Path(__file__).parent / "golden" / "analyzer_reports.json"

INLINE = {
    "inline/nested_while_inner_break": """
local t = {}
setmetatable(t, {__mode = "v"})
t[1] = {}
local n = 0
local last = 0
local i = 0
while i < 3 do
  local j = 0
  while j < 3 do
    if j > i then last = j break end
    n = n + 1
    j = j + 1
  end
  i = i + 1
  if last > 1 then break end
end
local got = t[1]
return n
""",
    "inline/local_after_return": """
local t = {}
setmetatable(t, {__mode = "v"})
local v = {}
t[1] = v
do return t[1] end
local w = t[1]
return w
""",
    "inline/loop_carried_reassignment": """
local w = {}
setmetatable(w, {__mode = "v"})
w[1] = {}
local a = {}
local i = 0
while i < 3 do
  local x = w[1]
  a = x
  i = i + 1
end
return i
""",
    "inline/closure_in_loop": """
local cache = {}
setmetatable(cache, {__mode = "v"})
cache[1] = {}
local n = 0
local i = 0
while i < 2 do
  local f = function() if cache[1] then return 1 end return 0 end
  n = n + f()
  i = i + 1
end
return n
""",
}


def programs() -> dict:
    found = {f"{p.parent.name}/{p.stem}": p.read_text()
             for p in sorted(CORPUS.glob("*/*.lua"))}
    found.update(INLINE)
    return found


def report(name: str, text: str) -> dict:
    r = check_program(text, name).to_json()
    digest = hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()
    return {"verdict": r["verdict"], "reason": r["reason"], "sha256": digest}


def all_reports() -> dict:
    return {name: report(name, text) for name, text in programs().items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_corpus_and_inline_programs(golden):
    assert sorted(golden) == sorted(programs())


@pytest.mark.parametrize("name", sorted(programs()))
def test_report_matches_golden(golden, name):
    assert report(name, programs()[name]) == golden[name]
