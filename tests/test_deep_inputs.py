"""Long and deeply nested programs end in a result, not a RecursionError."""

import json
import sys

import pytest

from luagc import ast as A
from luagc.checker import check_program
from luagc.cli import main
from luagc.desugar import desugar
from luagc.executor import Schedule, run
from luagc.interp import load_program
from luagc.parser import parse

# 5,000 statements in one block: a 5,000-deep ``Seq`` chain once folded
BLOCK = "local t = {}\nlocal i = 7\n" + "t[1] = i\n" * 5_000 + "return t[1]\n"

# 1,200 ``local``s, each nesting the rest of the block; each step of the
# run substitutes into the whole rest, so the chain is kept near 1,200
CHAIN = ("local x0 = 0\n"
         + "".join(f"local x{i} = x{i - 1} + 1\n" for i in range(1, 1_200))
         + "return x1199\n")


def test_long_block_desugars():
    t = desugar(parse(BLOCK))
    assert sum(isinstance(n, A.Assign) for n in A.walk(t)) == 5_000
    # folded, and every name is bound by one of the two locals
    assert not any(isinstance(n, (A.Block, A.Globals)) for n in A.walk(t))


@pytest.mark.parametrize("text, value", [(BLOCK, 7.0), (CHAIN, 1199.0)],
                         ids=["block-5000", "locals-1200"])
def test_long_program_runs(text, value):
    rec = run(load_program(text), Schedule("never"), fuel=100_000)
    assert json.loads(rec.result.key)["v"] == [{"t": "num", "v": value}]


@pytest.mark.parametrize("text", [BLOCK, CHAIN], ids=["block-5000", "locals-1200"])
def test_long_program_is_analyzed(text):
    r = check_program(text)
    assert r.verdict == "SAFE", r.reason


class _Tally:
    """A stdout that keeps only the length and the number of assignments
    of what is written: the indented dump of a deep tree is large."""

    PATTERN = '"kind": "assign"'

    def __init__(self):
        self.size = self.assigns = 0
        self.tail = ""

    def write(self, s: str) -> int:
        text = self.tail + s
        self.assigns += text.count(self.PATTERN)
        self.tail = text[-(len(self.PATTERN) - 1):]
        self.size += len(s)
        return len(s)

    def flush(self) -> None:
        pass


def test_long_block_dumps(tmp_path, monkeypatch):
    # the dump nests one level per statement; neither building the dicts
    # nor writing the JSON text may recurse per level
    path = tmp_path / "block.lua"
    path.write_text(BLOCK)
    tally = _Tally()
    monkeypatch.setattr(sys, "stdout", tally)
    assert main(["dump-ast", str(path), "--desugar"]) == 0
    assert tally.assigns == 5_000
    assert tally.tail.endswith("}\n") and tally.size > 5_000 ** 2
