import json
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from luagc import ast as A
from luagc.desugar import desugar
from luagc.parser import _DIGIT, LuaSyntaxError, _Parser, parse, tokenize

from conftest import CORPUS, corpus_text, deterministic_programs


def parse_core(text):
    return desugar(parse(text))


_BINARY = sorted(op for op in A.BINARY_PREC if op not in ("and", "or"))
_exprs = st.recursive(
    st.one_of(
        st.sampled_from(["x", "y", "abc"]).map(A.Name),
        st.integers(0, 10**9).map(lambda n: A.Const(A.Num(float(n)))),
    ),
    lambda sub: st.one_of(
        st.builds(A.BinOp, st.sampled_from(_BINARY), sub, sub),
        st.builds(A.And, sub, sub),
        st.builds(A.Or, sub, sub),
        st.builds(A.Not, sub),
        st.builds(A.Neg, sub),
    ),
    max_leaves=12,
)


class TestLexer:
    def test_numbers_strings_names(self):
        toks = tokenize('x = 1.5e2 .. nothing "a\\n" \'b\'')
        kinds = [t.kind for t in toks]
        assert "number" in kinds and "string" in kinds

    def test_positions(self):
        toks = tokenize("local x\n  = 1")
        assert toks[0].pos.line == 1 and toks[0].pos.col == 1
        eq = [t for t in toks if t.text == "="][0]
        assert eq.pos.line == 2 and eq.pos.col == 3

    def test_comments_skipped(self):
        toks = tokenize("a -- a comment\nb")
        assert [t.text for t in toks[:-1]] == ["a", "b"]

    def test_unfinished_string(self):
        with pytest.raises(LuaSyntaxError):
            tokenize('"open')

    @pytest.mark.parametrize("src, message, line, col", [
        ("x = 1e", "malformed number near '1e'", 1, 5),
        ("\n  return 1.2.3", "malformed number near '1.2.3'", 2, 10),
        ("return ²", "malformed number near '²'", 1, 8),
        ("return 1²", "malformed number near '1²'", 1, 8),
        ('x = "open', "unfinished string", 1, 5),
        ('x = "open\n"', "unfinished string", 1, 5),
        ('x = "a\\q', "invalid escape sequence", 1, 5),
        ('x = "a\\q\n', "invalid escape sequence", 1, 5),
        ("a = b ~ c", "unexpected character '~'", 1, 7),
        ("a = ½", "unexpected character '½'", 1, 5),
    ])
    def test_error(self, src, message, line, col):
        with pytest.raises(LuaSyntaxError) as e:
            tokenize(src)
        assert (e.value.message, e.value.line, e.value.col) == (message, line, col)

    def test_non_ascii_name(self):
        toks = tokenize("local é = 1")
        assert [(t.kind, t.text, t.pos.col) for t in toks] == [
            ("keyword", "local", 1), ("name", "é", 7), ("symbol", "=", 9),
            ("number", "1", 11), ("eof", "<eof>", 12)]

    def test_arabic_indic_digit(self):
        num = tokenize("return ١")[1]
        assert (num.kind, num.value, num.pos.col) == ("number", 1.0, 8)

    def test_eof_after_trailing_comment(self):
        # the comment's columns count: the EOF token sits just past it
        eof = tokenize("return 1 + -- c")[-1]
        assert (eof.kind, eof.pos.line, eof.pos.col) == ("eof", 1, 16)
        with pytest.raises(LuaSyntaxError) as e:
            parse("return 1 + -- c")
        assert (e.value.line, e.value.col) == (1, 16)

    def test_digit_class_is_str_isdigit(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(f"[{_DIGIT}]", every) == [
            c for c in every if c.isdigit()]
        # names continue with \w: what str.isalnum takes, and "_"
        assert re.findall(r"\w", every) == [
            c for c in every if c.isalnum() or c == "_"]


class TestParse:
    def test_smallest_local(self):
        t = parse("local t = {} ")
        stat = t.stats[0]
        assert isinstance(stat, A.Local)
        assert stat.names == ("t",)
        assert isinstance(stat.exprs[0], A.TableCtor)

    def test_weak_loop_program_shape(self):
        t = parse(corpus_text("weak/nondet_weak_loop.lua"))
        src = A.to_source(desugar(t))
        assert 'setmetatable' in src and '"__mode"' in src and '"v"' in src
        assert any(isinstance(s, A.While) for s in A.walk(t))

    def test_multi_local_two_ctors(self):
        t = parse("local a, b = {}, {}")
        stat = t.stats[0]
        assert stat.names == ("a", "b")
        assert all(isinstance(e, A.TableCtor) for e in stat.exprs)

    def test_syntax_error_has_position(self):
        with pytest.raises(LuaSyntaxError) as e:
            parse("local = 5")
        assert e.value.line == 1 and e.value.col >= 1

    def test_break_outside_loop_rejected(self):
        with pytest.raises(LuaSyntaxError):
            parse("break")

    def test_return_must_end_block(self):
        with pytest.raises(LuaSyntaxError):
            parse("return 1 print(2)")

    def test_statement_must_be_call(self):
        with pytest.raises(LuaSyntaxError):
            parse("1 + 2")

    def test_precedence(self):
        t = parse("return 1 + 2 * 3 ^ 2 == 19")
        src = A.to_source(t.stats[0])
        assert src == "return 1 + 2 * 3 ^ 2 == 19"

    def test_elseif_leaves_tokens_unchanged(self):
        toks = tokenize("if a then x = 1 elseif b then x = 2 "
                        "elseif c then x = 3 else x = 4 end return x")
        before = list(toks)
        first = _Parser(toks).parse_chunk()
        assert toks == before
        assert _Parser(toks).parse_chunk() == first

    def test_elseif_nests_in_else(self):
        t = parse("if a then\nx = 1\nelseif b then\nx = 2\nend")
        outer = t.stats[0]
        assert outer.pos == A.Pos(1, 1)
        inner = outer.else_body.stats[0]
        assert outer.else_body.pos == inner.pos == A.Pos(3, 1)
        assert isinstance(inner.else_body, A.Empty)
        assert inner.else_body.pos == A.Pos(3, 1)

    def test_empty_source_is_empty_statement(self):
        t = desugar(parse("   \n  "))
        assert isinstance(t, A.Empty)


class TestDesugar:
    def test_positional_fields_become_indexed(self):
        t = parse_core("local t = {1, 2}")
        ctor = [n for n in A.walk(t) if isinstance(n, A.TableCtor)][0]
        keys = [k.value.x for k, _ in ctor.fields]
        assert keys == [1.0, 2.0]

    def test_dot_sugar_matches_explicit(self):
        assert A.to_source(parse_core("return t1.attr1")) == A.to_source(
            parse_core('return t1["attr1"]')
        )

    def test_empty_ctor_fixpoint(self):
        t = parse_core("local t = {}")
        ctor = [n for n in A.walk(t) if isinstance(n, A.TableCtor)][0]
        assert ctor.fields == ()

    def test_idempotent(self):
        for p in deterministic_programs():
            t = desugar(parse(p.read_text()))
            assert desugar(t) == t, p.name

    def test_locals_scope_over_rest_of_block(self):
        t = parse_core("local x = 1 print(x) print(x)")
        assert isinstance(t, A.Local)
        # both prints live inside the local's body
        names = [n.ident for n in A.walk(t.body) if isinstance(n, A.Name)]
        assert names.count("x") == 2

    def test_free_names_become_global_accesses(self):
        t = parse_core("print(counter)")
        idx = [n for n in A.walk(t) if isinstance(n, A.Index)]
        assert any(
            isinstance(i.obj, A.Globals)
            and i.key.value == A.Str("counter")
            for i in idx
        )

    def test_core_grammar_only(self):
        for p in deterministic_programs():
            t = desugar(parse(p.read_text()))
            for n in A.walk(t):
                assert not isinstance(n, A.Block)
                if isinstance(n, A.TableCtor):
                    assert all(k is not None for k, _ in n.fields)


class TestRoundTrip:
    def test_parse_print_parse(self):
        for p in deterministic_programs():
            first = parse(p.read_text())
            again = parse(A.to_source(first))
            assert again == first, p.name

    def test_scoped_local_form_parses(self):
        t = desugar(parse("local t = {} in ; end"))
        assert isinstance(t, A.Local)
        assert isinstance(t.body, A.Empty)

    def test_scoped_local_tail_outside(self):
        t = desugar(parse("local x = 1 in print(x) end print(2)"))
        assert isinstance(t, A.Seq)
        assert isinstance(t.first, A.Local)

    @settings(max_examples=300, deadline=None)
    @given(_exprs)
    @example(A.Neg(A.Neg(A.Name("x"))))  # printed "--x", it read as a comment
    def test_expression_round_trip(self, e):
        assert parse("return " + A.to_source(e)) == A.Block((A.Return((e,)),))

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*/*.lua")),
                             ids=lambda p: f"{p.parent.name}/{p.stem}")
    def test_prefix_is_cut_from_the_whole(self, path):
        from luagc.executor import splice_finalizer
        from luagc.interp import load_program

        term = load_program(path.read_text()).term
        for t in (term, splice_finalizer(term, 1, 1)):
            for n in A.walk(t):
                full = A.to_source(n)
                for k in {0, 1, 9, 120, len(full) - 1, len(full) + 1}:
                    assert A.to_source(n, max(k, 0)) == full[:max(k, 0)]

    @pytest.mark.parametrize("e, text", [
        (A.Neg(A.Const(A.Num(-1.0))), "- -1"),
        (A.Neg(A.BinOp("^", A.Const(A.Num(-2.0)), A.Name("x"))), "- -2 ^ x"),
        (A.Neg(A.BinOp("+", A.Const(A.Num(-2.0)), A.Name("x"))),
         "-(-2 + x)"),
        (A.Neg(A.Call(A.Neg(A.Name("f")), ())), "-(-f)()"),
        (A.Neg(A.Index(A.Name("t"), A.Const(A.Num(1.0)))), "-t[1]"),
        (A.Not(A.Neg(A.Name("x"))), "not -x"),
    ], ids=["negative_constant", "power_base", "parenthesized_sum",
            "parenthesized_callee", "index", "not"])
    def test_minus_before_minus_is_spaced(self, e, text):
        # "--" would read as a comment; only the operand's leftmost
        # spine decides, without printing it
        assert A.to_source(e) == text
        assert A.to_source(e, 2) == text[:2]

    def test_json_dump_deterministic(self):
        text = corpus_text("weak/weak_cache.lua")
        a = json.dumps(A.to_json(parse(text)), sort_keys=True)
        b = json.dumps(A.to_json(parse(text)), sort_keys=True)
        assert a == b


def test_core_ast_dump_matches_golden():
    from pathlib import Path

    from luagc.desugar import desugar
    from luagc.parser import parse

    text = corpus_text("deterministic/arith.lua")
    dumped = json.dumps(A.to_json(desugar(parse(text))), indent=1,
                        sort_keys=True) + "\n"
    golden = (Path(__file__).parent / "golden" / "arith_core_ast.json")
    assert dumped == golden.read_text()


def _walk_reference(t):
    """The recursive pre-order that ``walk`` must reproduce."""
    yield t
    for c in A.children(t):
        yield from _walk_reference(c)


class TestWalk:
    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*/*.lua")),
                             ids=lambda p: f"{p.parent.name}/{p.stem}")
    def test_matches_recursive_preorder(self, path):
        t = parse(path.read_text())
        for term in (t, desugar(t)):
            assert [id(n) for n in A.walk(term)] == [
                id(n) for n in _walk_reference(term)]

    def test_deep_seq_chain(self):
        t = A.Empty()
        for i in range(5_000):
            t = A.Seq(A.ExprStat(A.Const(A.Num(i))), t)
        nodes = list(A.walk(t))
        assert len(nodes) == 3 * 5_000 + 1
        assert [n.value.x for n in nodes if isinstance(n, A.Const)] == list(
            range(4_999, -1, -1))


class TestRewrite:
    def test_desugar_keeps_a_core_term(self):
        core = desugar(parse(corpus_text("weak/weak_cache.lua")))
        assert desugar(core) is core

    def test_subst_keeps_untouched_subtrees(self):
        t = parse_core("local x = 1 local f = function(y) return y end "
                       "local g = function(x) return x end return x")
        f_local = t.body
        fn, gn = f_local.exprs[0], f_local.body.exprs[0]
        A.summary(fn)
        out = A.subst(f_local, {"x": 7})
        # a body that mentions no substituted name, and one whose
        # parameter shadows it, come back as the same objects
        assert out.exprs[0] is fn and fn._summary is not None
        assert out.body.exprs[0] is gn
        assert out.body.body == A.Return((A.Ref(7),))
