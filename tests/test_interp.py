import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import (
    MISSING, FrozenInstanceError, dataclass, field, fields, is_dataclass,
    make_dataclass, replace,
)

import pytest

import luagc
from luagc import ast as A
from luagc import executor, interp
from luagc.ast import Num, Str
from luagc.desugar import desugar
from luagc.executor import Machine, Schedule, run
from luagc.gc import reach_set
from luagc.heap import validate
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


# Every dataclass of the package, each a record whose methods
# ``compile_records`` compiled, in module and definition order.
COMPILED = tuple(
    cls for info in pkgutil.iter_modules(luagc.__path__)
    for name, cls in vars(
        importlib.import_module(f"luagc.{info.name}")).items()
    if isinstance(cls, type) and is_dataclass(cls) and cls.__name__ == name
    and cls.__module__ == f"luagc.{info.name}")

# Every corpus program.  No corpus program negates an expression, computes
# a constructor's key or runs a finalizer in expression position: below,
# the table dies when the `and` drops it, before `f(2)` is evaluated.
SCHEMA_TEXTS = [p.read_text() for p in sorted(CORPUS.glob("*/*.lua"))] + [
    "local x = 1\nlocal t = {[x + 1] = -(x + 1)}\nreturn t[2]",
    "local mt = {__gc = function(o) print(\"fin\") end}\n"
    "local f = function(x) return x + 1 end\n"
    "return (setmetatable({}, mt) and 1) + f(2)\n",
]
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
                    if A._frozen(cls):
                        with pytest.raises(FrozenInstanceError):
                            setattr(x, n, None)
        with pytest.raises(TypeError):
            cls(*every.values(), None)

    def test_compiler_refuses_what_it_cannot_honour(self):
        @A.record(frozen=True)
        class Fine:
            a: int

        @A.record(frozen=True)
        class Slotted:
            __slots__ = ("a",)
            a: int

        @A.record(frozen=True)
        class PostInit:
            a: int

            def __post_init__(self):
                pass

        @dataclass(frozen=True)
        class Inited:
            a: int

        @A.record
        class KeywordOnly:
            a: int = field(kw_only=True)

        for bad in (Slotted, PostInit, Inited, KeywordOnly):
            with pytest.raises(TypeError):
                A.compile_records(Fine, bad)
        # refused before anything compiles
        assert "__init__" not in vars(Fine)
        A.compile_records(Fine)
        assert Fine(1).a == 1 and vars(Fine(a=2)) == {"a": 2}


def twin(cls):
    """The dataclass ``dataclasses`` makes of ``cls``'s fields, frozen as
    ``cls`` is, with the methods and attributes of ``cls``'s own that it
    did not get from ``record`` or ``compile_records``: what ``cls`` would
    be, declared with ``dataclass``."""
    machinery = {"__dict__", "__weakref__", "__init__", "__doc__",
                 "_repr_fields", "__dataclass_fields__",
                 "__dataclass_params__", "__match_args__",
                 *(f.name for f in fields(cls))}
    shared = (A._record_repr, A._frozen_setattr, A._frozen_delattr,
              A._term_eq, A._term_hash, None)
    namespace = {k: v for k, v in vars(cls).items()
                 if k not in machinery and not any(v is x for x in shared)
                 and not compiled(v)}
    if not cls.__doc__.startswith(cls.__name__ + "("):
        namespace["__doc__"] = cls.__doc__
    spec = [(f.name, f.type, field(
        default=f.default, default_factory=f.default_factory, init=f.init,
        repr=f.repr, hash=f.hash, compare=f.compare, metadata=f.metadata))
        for f in fields(cls)]
    return make_dataclass(cls.__name__, spec, bases=cls.__bases__,
                          namespace=namespace, frozen=A._frozen(cls))


def compiled(fn) -> bool:
    """Did ``compile_records`` compile ``fn``?"""
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == "<string>"


def sample(cls, k: int) -> dict:
    """Arguments for every field of ``cls``: for a term's sub-term slot,
    sub-terms, and for any other field the number ``k`` plus its index."""
    slots = {name: shape for name, shape, _ in A.SLOTS.get(cls, ())}
    out = {}
    for i, f in enumerate(fields(cls)):
        leaf = A.Const(A.Num(k + i))
        out[f.name] = {A.ONE: leaf, A.MANY: (leaf,),
                       A.PAIRS: ((None, leaf),)}.get(slots.get(f.name), k + i)
    return out


def unannotated(sig: inspect.Signature) -> inspect.Signature:
    empty = inspect.Parameter.empty
    return sig.replace(
        parameters=[p.replace(annotation=empty)
                    for p in sig.parameters.values()],
        return_annotation=empty)


# Counts the calls made during one ``import luagc``: of the function that
# adds each method ``dataclasses`` compiles (``_create_fn``, from Python
# 3.13 ``_FuncBuilder.add_fn``) and of ``inspect.signature``, and of
# ``exec`` and ``eval`` from a ``luagc`` frame, per module being imported.
IMPORT_COUNTS = """
import builtins, collections, dataclasses, inspect, json, sys
counts = collections.Counter()
watched = {inspect.signature.__code__: "inspect.signature"}
for fn in (getattr(dataclasses, "_create_fn", None),
           getattr(getattr(dataclasses, "_FuncBuilder", None), "add_fn", None)):
    if fn is not None:
        watched[fn.__code__] = "_create_fn"
def luagc_name(frame):
    name = frame.f_globals.get("__name__", "")
    return name if name.split(".")[0] == "luagc" else None
def importing(frame):
    while frame.f_code.co_name != "<module>" or not luagc_name(frame):
        frame = frame.f_back
    return luagc_name(frame)
def profile(frame, event, arg):
    if event == "call" and frame.f_code in watched:
        counts[watched[frame.f_code]] += 1
    elif (event == "c_call" and (arg is builtins.exec or arg is builtins.eval)
          and luagc_name(frame)):
        counts["exec " + importing(frame)] += 1
sys.setprofile(profile)
import luagc
sys.setprofile(None)
print(json.dumps(counts))
"""


class TestRecords:
    """Each dataclass of the package behaves as the one ``dataclasses``
    makes of its fields, though none of its methods came from there."""

    @pytest.mark.parametrize("cls", COMPILED, ids=lambda c: c.__name__)
    def test_methods_match_the_dataclass(self, cls):
        t = twin(cls)
        sig = inspect.signature(cls)
        assert [(p.name, p.kind, p.default) for p in sig.parameters.values()] \
            == [(p.name, p.kind, p.default)
                for p in inspect.signature(t).parameters.values()]
        doc = t.__doc__
        if doc.startswith(t.__name__ + "("):  # made by dataclasses
            doc = t.__name__ + str(unannotated(inspect.signature(t)))
        assert cls.__doc__ == doc
        assert [(f.name, f.type, f.default, f.default_factory, f.init,
                 f.repr, f.hash, f.compare, f.metadata)
                for f in fields(cls)] == [
            (f.name, f.type, f.default, f.default_factory, f.init, f.repr,
             f.hash, f.compare, f.metadata) for f in fields(t)]
        assert cls.__match_args__ == t.__match_args__ and is_dataclass(cls)
        # equal (built from equal but fresh arguments) and unequal pairs
        x, y, z = (cls(**sample(cls, k)) for k in (1, 1, 10))
        tx, ty, tz = (t(**sample(cls, k)) for k in (1, 1, 10))
        assert repr(x) == repr(tx) and repr(z) == repr(tz)
        assert (x == y, x == z, x != z) == (tx == ty, tx == tz, tx != tz)
        for o in (tx, object(), None):
            assert x.__eq__(o) is NotImplemented and (x == o) is False
        if A._frozen(cls):
            assert (hash(x), hash(y), hash(z)) == (hash(tx), hash(ty),
                                                   hash(tz))
        else:
            assert cls.__hash__ is None and t.__hash__ is None
        changed = {f.name: getattr(z, f.name) for f in fields(cls)[:1]}
        assert replace(x, **changed) == replace(y, **changed)
        assert (replace(x, **changed) == x) == (replace(tx, **changed) == tx)
        for name in [f.name for f in fields(cls)[:1]] + ["not_a_field"]:
            got = []
            for obj in (x, tx):
                for act in (lambda o: setattr(o, name, 0),
                            lambda o: delattr(o, name)):
                    try:
                        act(obj)
                        got.append(None)
                    except (FrozenInstanceError, AttributeError) as e:
                        got.append((type(e), str(e)))
            assert got[:2] == got[2:]

    @pytest.mark.parametrize("cls", COMPILED, ids=lambda c: c.__name__)
    def test_constructor_fills_the_instance_dict(self, cls):
        # a frozen record's __init__ writes the dict, a mutable one's
        # assigns: either way the instance holds what the dataclass's does
        t, args = twin(cls), sample(cls, 1)
        x = cls(**args)
        assert list(vars(x).items()) == list(vars(t(**args)).items())
        assert all(vars(x)[name] is v for name, v in args.items())
        assert list(vars(cls(*args.values())).items()) \
            == list(vars(x).items())
        required = {f.name: args[f.name] for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING}
        bare, bare_t = cls(**required), t(**required)
        assert list(vars(bare).items()) == list(vars(bare_t).items())
        again, again_t = cls(**required), t(**required)
        for f in fields(cls):
            assert (getattr(bare, f.name) is getattr(again, f.name)) \
                == (getattr(bare_t, f.name) is getattr(again_t, f.name))

    def test_equality_compares_field_tuples(self):
        # NaN and signed zeros, whatever the Python version's dataclasses
        nan = Num(float("nan"))
        assert nan == nan and not nan != nan
        assert Num(float("nan")) != Num(float("nan"))
        assert Num(0.0) == Num(-0.0) and hash(Num(0.0)) == hash(Num(-0.0))
        assert A.Const(Num(1.0), A.Pos(1, 1)) == A.Const(Num(1.0))
        assert repr(A.Pos(1, 2)) == "Pos(line=1, col=2)"

    def test_import_compiles_one_batch_per_module(self):
        env = {**os.environ,
               "PYTHONPATH": os.path.dirname(os.path.dirname(luagc.__file__))}
        proc = subprocess.run([sys.executable, "-c", IMPORT_COUNTS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout)
        assert counts.pop("_create_fn", 0) == 0
        assert counts.pop("inspect.signature", 0) == 0
        assert counts and all(n == 1 for n in counts.values()), counts


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
