"""Long and deeply nested programs end in a result, not a RecursionError."""

import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from luagc import ast as A
from luagc.checker import check_program
from luagc.cli import main
from luagc.desugar import desugar
from luagc.executor import Schedule, run
from luagc.interp import load_program
from luagc.parser import KEYWORDS, LuaSyntaxError, parse

# 5,000 statements in one block: a 5,000-deep ``Seq`` chain once folded
BLOCK = "local t = {}\nlocal i = 7\n" + "t[1] = i\n" * 5_000 + "return t[1]\n"

# 1,200 ``local``s, each nesting the rest of the block; each step of the
# run substitutes into the whole rest, so the chain is kept near 1,200
CHAIN = ("local x0 = 0\n"
         + "".join(f"local x{i} = x{i - 1} + 1\n" for i in range(1, 1_200))
         + "return x1199\n")

# one constructor of 5,000 fields, each a local read by its own step
WIDE = ("local a = 7\nlocal t = {" + ", ".join(["a"] * 5_000)
        + "}\nreturn t[5000]\n")

# 5,000 levels of nesting in one expression
PARENS = "return " + "(" * 5_000 + "1" + ")" * 5_000
NEGS = "return " + "- " * 5_000 + "1"
NOTS = "return " + "not " * 5_000 + "true"
POWS = "return " + "1 ^ " * 5_000 + "1"


def test_long_block_desugars():
    t = desugar(parse(BLOCK))
    assert sum(isinstance(n, A.Assign) for n in A.walk(t)) == 5_000
    # folded, and every name is bound by one of the two locals
    assert not any(isinstance(n, (A.Block, A.Globals)) for n in A.walk(t))


@pytest.mark.parametrize("text, value", [
    (BLOCK, 7.0), (CHAIN, 1199.0), (WIDE, 7.0),
], ids=["block-5000", "locals-1200", "ctor-5000"])
def test_long_program_runs(text, value):
    rec = run(load_program(text), Schedule("never"), fuel=100_000)
    assert json.loads(rec.result.key)["v"] == [{"t": "num", "v": value}]


@pytest.mark.parametrize("text", [BLOCK, CHAIN, WIDE],
                         ids=["block-5000", "locals-1200", "ctor-5000"])
def test_long_program_is_analyzed(text):
    r = check_program(text)
    assert r.verdict == "SAFE", r.reason


@pytest.mark.parametrize("text, value", [
    (PARENS, {"t": "num", "v": 1.0}),
    (NEGS, {"t": "num", "v": 1.0}),
    (NOTS, {"t": "bool", "v": True}),
    (POWS, {"t": "num", "v": 1.0}),
], ids=["parens", "neg", "not", "pow"])
def test_deep_expression_runs(text, value):
    assert isinstance(parse(text), A.Block)
    rec = run(load_program(text), Schedule("never"), fuel=100_000)
    assert json.loads(rec.result.key)["v"] == [value]


def test_deep_parens_are_analyzed():
    r = check_program(PARENS)
    assert r.verdict == "SAFE", r.reason


@pytest.mark.parametrize("text", [NEGS, NOTS, POWS], ids=["neg", "not", "pow"])
def test_deep_operator_chain_is_analyzed(text):
    r = check_program(text)
    assert (r.verdict, r.reason, r.diagnostics) == ("SAFE", "", [])


@pytest.mark.parametrize("text", [BLOCK, NEGS, NOTS, POWS],
                         ids=["block-5000", "neg", "not", "pow"])
def test_deep_term_prints(text):
    t = desugar(parse(text))
    full = A.to_source(t)
    assert len(full) > 5_000
    assert A.to_source(t, 120) == full[:120]


@pytest.mark.parametrize("text", [BLOCK, NEGS, NOTS, POWS],
                         ids=["block-5000", "neg", "not", "pow"])
def test_deep_term_hashes_and_compares(text):
    # two separate parses share no node, so neither the hash nor the
    # comparison can stop early at a memo or an identity
    t, u = desugar(parse(text)), desugar(parse(text))
    assert t is not u
    assert t == u and not t != u
    assert hash(t) == hash(u)
    assert t == u  # with both hashes memoized
    other = text.replace("1", "2").replace("true", "false")
    assert t != desugar(parse(other))


def test_long_block_traces(tmp_path, capsys):
    # a step's redex is printed only as far as the trace keeps it: the
    # first `local` is the whole block
    path = tmp_path / "block.lua"
    path.write_text(BLOCK)
    assert main(["trace", str(path), "--fuel", "100000"]) == 0
    out, err = capsys.readouterr()
    steps = [e for e in map(json.loads, out.splitlines())
             if e["kind"] == "l_step"]
    assert err == "result: return\n"
    assert steps[0]["rule"] == "table" and steps[1]["rule"] == "local"
    assert len(steps[1]["redex"]) == 120
    assert all(len(e["redex"]) <= 120 for e in steps)


def test_deep_parens_dump(tmp_path, capsys):
    path = tmp_path / "parens.lua"
    path.write_text(PARENS)
    assert main(["dump-ast", str(path)]) == 0
    ret = json.loads(capsys.readouterr().out)["stats"][0]
    assert ret["exprs"] == [{"kind": "const", "value": {"t": "num", "v": 1.0}}]


_SOUP = st.lists(st.sampled_from(sorted(KEYWORDS) + [
    "==", "~=", "<=", ">=", "+", "-", "*", "/", "%", "^", "<", ">", "=",
    "(", ")", "{", "}", "[", "]", ";", ",", ".",
    "x", "f", "1", "2.5", '"s"', "-- c\n", "\n"]), max_size=30)


@settings(max_examples=500, deadline=None)
@given(_SOUP)
def test_token_soup_parses_or_is_a_syntax_error(tokens):
    try:
        t = parse(" ".join(tokens))
    except LuaSyntaxError:
        return
    assert isinstance(t, A.Block)


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
