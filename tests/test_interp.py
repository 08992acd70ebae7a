import inspect
from dataclasses import (
    MISSING, FrozenInstanceError, dataclass, fields, replace,
)

import pytest

from luagc import ast as A
from luagc import executor, interp
from luagc.ast import Num, Str
from luagc.desugar import desugar
from luagc.executor import Machine, Schedule, run
from luagc.gc import reach_set
from luagc.heap import ObjectStore, TableObject, ValueStore, validate
from luagc.interp import (
    Finished,
    Focused,
    Redex,
    StuckTerm,
    decompose,
    load_program,
    step,
)
from luagc.parser import parse

from conftest import CORPUS, corpus_text, deterministic_programs


def machine(text, fuel=10_000) -> Machine:
    """A GC-free driver for the program: ``collectgarbage()`` is inert."""
    return Machine(Focused.of(load_program(text)), Schedule("never"), fuel)


def finished(text, kind, fuel=10_000) -> Finished:
    m = machine(text, fuel)
    assert m.advance(), "out of fuel"
    at = m.state.at
    assert at.kind == kind, (at.kind, at.error_value, m.output)
    return at


def returns(text, fuel=10_000):
    return finished(text, "return", fuel).values


def errors(text, fuel=10_000):
    return finished(text, "error", fuel).error_value


class TestDecompose:
    def test_empty_statement_is_final(self):
        d = decompose(A.Empty())
        assert isinstance(d, Finished) and d.kind == "empty"

    def test_toplevel_return_is_final(self):
        d = decompose(A.Return((A.Const(Num(1)), A.Const(Num(2)))))
        assert isinstance(d, Finished)
        assert d.values == (Num(1), Num(2))

    def test_args_evaluate_left_to_right(self):
        # f(1, g(2)) with f, g values: the hole is at the g call
        g_call = A.Call(A.Const(A.Cid(2)), (A.Const(Num(2)),))
        term = A.ExprStat(
            A.Call(A.Const(A.Cid(1)), (A.Const(Num(1)), g_call))
        )
        d = decompose(term)
        assert isinstance(d, Redex)
        assert d.term is g_call

    def test_unique_split_along_reduction(self):
        config = load_program(corpus_text("deterministic/while_sum.lua"))
        for _ in range(200):
            d = decompose(config.term)
            if isinstance(d, Finished):
                break
            # plugging the redex back yields the original term
            from luagc.interp import plug

            assert plug(d.frames, d.term) == config.term
            res = step(config)
            config = res.config


# The node types that are stuck wherever they occur: a bare value, a name
# that loading did not resolve, and the parser's statement list.
STUCK = {A.Const, A.Name, A.Globals, A.Block}


class TestDispatchTables:
    """Every node type decomposes by a table entry or is stuck, and every
    rule a decomposition entry can return has a contraction entry, so a
    missing entry fails here rather than in a program run."""

    def test_every_node_type_has_an_entry_or_is_stuck(self):
        for ty in A.TERM_TYPES:
            assert (ty in interp._DECOMPOSE) != (ty in STUCK), ty.__name__

    @pytest.mark.parametrize("node", [
        A.Const(Num(1)), A.Name("x"), A.Globals(), A.Block(()),
    ], ids=lambda n: type(n).__name__)
    def test_stuck_node_types_raise(self, node):
        with pytest.raises(StuckTerm):
            decompose(node)

    def test_every_rule_has_exactly_one_contraction(self):
        rules = {r for e in interp._DECOMPOSE.values() for r in e.rules}
        # a rule without a contraction, or a contraction no entry returns
        assert rules == set(interp._CONTRACT)

    def test_corpus_redexes_have_declared_rules(self, monkeypatch):
        met = set()

        def checked(entry):
            def decompose_checked(t, frames):
                res = entry(t, frames)
                if type(res) is str:
                    assert res in entry.rules, (type(t).__name__, res)
                    met.add(res)
                return res
            return decompose_checked

        monkeypatch.setattr(interp, "_DECOMPOSE", {
            ty: checked(e) for ty, e in interp._DECOMPOSE.items()})
        texts = [p.read_text() for p in sorted(CORPUS.glob("*/*.lua"))]
        # no corpus program calls pcall on a function that returns
        texts.append("return pcall(function() return 1 end)")
        for schedule in (Schedule("never"), Schedule("eager", "fin_weak")):
            for text in texts:
                run(load_program(text), schedule, fuel=2_000)
        assert met == set(interp._CONTRACT)


# Every corpus program.  No corpus program negates an expression, computes
# a constructor's key or runs a finalizer in expression position: below,
# the table dies when the `and` drops it, before `f(2)` is evaluated.
SCHEMA_TEXTS = [p.read_text() for p in sorted(CORPUS.glob("*/*.lua"))] + [
    "local x = 1\nlocal t = {[x + 1] = -(x + 1)}\nreturn t[2]",
    "local mt = {__gc = function(o) print(\"fin\") end}\n"
    "local f = function(x) return x + 1 end\n"
    "return (setmetatable({}, mt) and 1) + f(2)\n",
]
# Every class whose constructor the node schema compiles.
COMPILED = (A.Pos, *A.VALUE_TYPES, *A.TERM_TYPES, TableObject, ValueStore,
            ObjectStore)

# The node kinds only reduction makes
RUNTIME_FORMS = {A.CallFrame, A.LoopFrame, A.FinStat, A.ProtectedFrame,
                 A.FinWrap}


class TestNodeSchema:
    """The tables derived from the node schema agree with the term
    classes and with each other."""

    @pytest.mark.parametrize("cls", A.TERM_TYPES, ids=lambda c: c.__name__)
    def test_slots_own_fields_and_pos_are_the_fields(self, cls):
        slots = [name for name, _, _ in A.SLOTS[cls]]
        declared = slots + list(A.OWN[cls]) + ["pos"]
        assert sorted(declared) == sorted(f.name for f in fields(cls))
        assert len(set(declared)) == len(declared)

    def test_own_fields_compare_as_a_tuple(self):
        # as the dataclass compared them: a NaN equals itself only as the
        # same object
        nan = Num(float("nan"))
        assert A.Neg(A.Const(nan)) == A.Neg(A.Const(nan))
        assert A.Neg(A.Const(nan)) != A.Neg(A.Const(Num(float("nan"))))

    @staticmethod
    def assert_rebuilds(n) -> None:
        """Rebuilt from fresh copies of its children, ``n`` is equal to
        itself and holds the copies."""
        kids = [replace(c) for c in A.children(n)]
        rebuilt = A._BUILD[type(n)](n, kids)
        assert rebuilt is not n and rebuilt == n and hash(rebuilt) == hash(n)
        assert len(A.children(rebuilt)) == len(kids)
        assert all(a is b for a, b in zip(A.children(rebuilt), kids))

    def test_rebuilding_from_own_children_gives_an_equal_node(self):
        kinds = set()
        for text in SCHEMA_TEXTS:
            parsed = parse(text)
            for n in (*A.walk(parsed), *A.walk(desugar(parsed))):
                if A.children(n):
                    self.assert_rebuilds(n)
                    kinds.add(type(n))
        assert kinds == {cls for cls in A.TERM_TYPES
                         if A.SLOTS[cls]} - RUNTIME_FORMS

    def test_replugging_a_pushed_child_gives_the_frame_node(self, monkeypatch):
        kinds, plugged = set(), set()
        real_step = executor.step

        def hook(state, *args, **kwargs):
            for f in state.at.frames:
                child = replace(f.child)
                node = interp._replace_child(f.node, f.slot, f.idx, child)
                assert node == f.node
                # the copy fills the hole: in a slot, or in a target Index
                assert any(x is child for c in A.children(node)
                           for x in (c, *A.children(c)))
                self.assert_rebuilds(f.node)
                kinds.add(type(f.node))
                plugged.add((type(f.node), f.slot))
            return real_step(state, *args, **kwargs)

        monkeypatch.setattr(executor, "step", hook)
        for text in SCHEMA_TEXTS:
            for mode in ("simple", "fin"):
                run(load_program(text), Schedule("eager", mode), fuel=2_000)
        assert kinds >= RUNTIME_FORMS
        assert plugged == set(interp._PLUG)

    @pytest.mark.parametrize("cls", COMPILED, ids=lambda c: c.__name__)
    def test_compiled_constructor_keeps_the_dataclass_contract(self, cls):
        fs = fields(cls)
        names = [f.name for f in fs]
        params = list(inspect.signature(cls.__init__).parameters.values())
        assert [p.name for p in params] == ["self", *names]
        for f, p in zip(fs, params[1:]):
            if f.default_factory is not MISSING:
                assert repr(p.default) == "<factory>"
            else:
                assert p.default is (inspect.Parameter.empty
                                     if f.default is MISSING else f.default)
        if cls.__doc__.startswith(cls.__name__ + "("):
            assert cls.__doc__ == cls.__name__ + str(inspect.signature(cls))
        required = {f.name: object() for f in fs if f.default is MISSING
                    and f.default_factory is MISSING}
        every = {name: object() for name in names}
        for given in (required, every):
            for x in (cls(*given.values()), cls(**given)):
                assert type(x) is cls and list(vars(x)) == names
                for f in fs:
                    got = getattr(x, f.name)
                    if f.name in given:
                        assert got is given[f.name]
                    elif f.default is not MISSING:
                        assert got is f.default
                    else:
                        assert got == f.default_factory()
                        assert got is not getattr(cls(**given), f.name)
                copy = replace(x)
                assert type(copy) is cls and copy is not x
                assert list(vars(copy)) == names
                assert all(getattr(copy, n) is getattr(x, n) for n in names)
                for n in names:
                    assert getattr(replace(x, **{n: every[n]}), n) is every[n]
                    with pytest.raises(FrozenInstanceError):
                        setattr(x, n, None)
        with pytest.raises(TypeError):
            cls(*every.values(), None)

    def test_compiler_refuses_what_it_cannot_honour(self):
        @dataclass(frozen=True, init=False)
        class Fine:
            a: int

        @dataclass(frozen=True, init=False)
        class Slotted:
            __slots__ = ("a",)
            a: int

        @dataclass(frozen=True, init=False)
        class PostInit:
            a: int

            def __post_init__(self):
                pass

        @dataclass(frozen=True)
        class Inited:
            a: int

        for bad in (Slotted, PostInit, Inited):
            with pytest.raises(TypeError):
                A.compile_constructors(Fine, bad)
        # refused before anything compiles
        assert "__init__" not in vars(Fine)
        A.compile_constructors(Fine)
        assert Fine(1).a == 1 and vars(Fine(a=2)) == {"a": 2}


class TestStepBasics:
    def test_arith(self):
        assert returns("return 1+1") == (Num(2),)

    def test_call_allocates_and_substitutes(self):
        assert returns("return (function(x) return x end)(7)") == (Num(7),)

    def test_implicit_deref(self):
        assert returns("local x = 3 return x") == (Num(3),)

    def test_multi_return_adjustment(self):
        assert returns(
            "local f = function() return 1, 2 end local a, b, c = f() "
            "return a, b, c"
        ) == (Num(1), Num(2), A.Nil())

    def test_multi_return_truncated_mid_list(self):
        assert returns(
            "local f = function() return 1, 2 end local a, b = f(), 9 "
            "return a, b"
        ) == (Num(1), Num(9))

    def test_string_ops(self):
        assert returns('return "a" < "b", "x" == "x"') == (A.TRUE, A.TRUE)

    def test_division_by_zero_is_inf(self):
        (v,) = returns("return 1 / 0")
        assert v.x == float("inf")

    def test_modulo_sign(self):
        assert returns("return -5 % 3") == (Num(1.0),)

    def test_table_io(self):
        assert returns(
            'local t = {} t["k"] = 5 t["k"] = t["k"] + 1 return t["k"]'
        ) == (Num(6),)

    def test_while_break(self):
        assert returns(corpus_text("deterministic/loop_break.lua")) == (Num(7),)

    def test_divergence_proxy(self):
        m = machine("while true do ; end", fuel=10_000)
        assert not m.advance()
        assert m.steps == 10_000

    def test_long_sum_loads_and_runs(self):
        # a 600-deep BinOp chain used to overflow the recursive globals patch
        m = machine("return " + " + ".join(["1"] * 600))
        assert m.advance()
        assert m.state.at.kind == "return" and m.state.at.values == (Num(600),)
        assert m.steps == 599


class TestErrors:
    def test_uncaught_error(self):
        assert errors('error "boom"') == Str("boom")

    def test_index_non_table(self):
        v = errors("local x = 5 return x[1]")
        assert "index" in v.s

    def test_call_non_function(self):
        v = errors("local x = 5 x()")
        assert "call" in v.s

    def test_pcall_returns_false_and_value(self):
        assert returns(
            'local ok, e = pcall(function() error("bad") end) return ok, e'
        ) == (A.FALSE, Str("bad"))

    def test_pcall_success_collects_results(self):
        assert returns(
            "local ok, a, b = pcall(function() return 1, 2 end) "
            "return ok, a, b"
        ) == (A.TRUE, Num(1), Num(2))

    def test_error_unwinds_to_nearest_pcall(self):
        assert returns(
            "local ok = pcall(function()"
            "  local ok2, e2 = pcall(function() error(1) end)"
            "  error(2)"
            "end)"
            "return ok"
        ) == (A.FALSE,)


class TestMetatables:
    def test_setmetatable_returns_table(self):
        assert returns(
            "local t = {} local m = {} return setmetatable(t, m) == t"
        ) == (A.TRUE,)

    def test_setmetatable_non_table_errors(self):
        v = errors("setmetatable(5, {})")
        assert "setmetatable" in v.s

    def test_protected_metatable(self):
        v = errors(
            "local t = {} setmetatable(t, {__metatable = 1}) "
            "setmetatable(t, {})"
        )
        assert v == Str("cannot change a protected metatable")

    def test_index_chain(self):
        assert returns(corpus_text("deterministic/index_chain.lua")) == (
            Num(10), Str("test"),
        )

    def test_arith_metamethods_unsupported(self):
        v = errors("local t = {} return t + 1")
        assert "arithmetic" in v.s

    def test_setmetatable_nil_keeps_unset_mark(self):
        m = machine("local t = {} setmetatable(t, nil) return t")
        assert m.advance()
        (tid,) = m.state.at.values
        from luagc.heap import UNSET

        assert m.state.theta.table(tid.n).pos is UNSET


class TestGlobals:
    def test_globals_live_in_environment_table(self):
        assert returns(corpus_text("deterministic/global_state.lua")) == (Num(3),)

    def test_unset_global_is_nil(self):
        assert returns("return missing == nil") == (A.TRUE,)


class TestDeterminismAndPreservation:
    def test_step_determinism(self):
        text = corpus_text("deterministic/closure_counter.lua")
        c1, c2 = load_program(text), load_program(text)
        for _ in range(500):
            r1, r2 = step(c1), step(c2)
            assert type(r1) is type(r2)
            if isinstance(r1, Finished):
                assert r1 == r2
                break
            assert r1.config.term == r2.config.term
            assert r1.config.sigma == r2.config.sigma
            assert r1.config.theta == r2.config.theta
            c1, c2 = r1.config, r2.config

    @pytest.mark.parametrize(
        "path", deterministic_programs(), ids=lambda p: p.stem
    )
    def test_every_step_preserves_well_formedness(self, path):
        config = load_program(path.read_text())
        validate(config)
        for _ in range(2_000):
            res = step(config)
            if isinstance(res, Finished):
                break
            config = res.config
            validate(config)

    def test_unreachable_stays_unreachable(self):
        # locations unreachable before a program step stay unreachable
        config = load_program(corpus_text("deterministic/garbage_churn.lua"))
        from luagc.heap import locations

        for _ in range(600):
            before = set(locations(config.sigma, config.theta))
            unreachable = before - reach_set(
                config.term, config.sigma, config.theta
            )
            res = step(config)
            if isinstance(res, Finished):
                break
            config = res.config
            after = reach_set(config.term, config.sigma, config.theta)
            assert not (unreachable & after)


class TestOutput:
    def test_print_tab_separates(self):
        m = machine('print(1, "a", true, nil)')
        assert m.advance()
        assert m.output == ["1\ta\ttrue\tnil"]

    def test_number_formatting(self):
        m = machine("print(1.0) print(1.5) print(100)")
        assert m.advance()
        assert m.output == ["1", "1.5", "100"]

    def test_tostring_rejects_tables(self):
        v = errors("local t = {} return tostring(t)")
        assert "identity" in v.s

    def test_collectgarbage_is_noop_without_gc(self):
        m = machine("local n = collectgarbage() return n")
        assert m.advance()
        assert m.state.at.kind == "return" and m.state.at.values == (Num(0),)
        assert not m.drain_pending


class TestPcallEdges:
    def test_pcall_of_non_function_caught(self):
        assert returns("local ok, e = pcall(5) return ok") == (A.FALSE,)

    def test_pcall_passes_arguments(self):
        assert returns(
            "local ok, v = pcall(function(a, b) return a + b end, 2, 3) "
            "return ok, v"
        ) == (A.TRUE, Num(5))

    def test_pcall_without_arguments_errors(self):
        v = errors("local f = pcall return f()")
        assert "pcall" in v.s
