"""Differential properties over randomly generated programs.

The first generator produces terminating, GC-interface-free programs (no
weak tables, no finalizers, no collectgarbage): locals, assignments,
bounded counter loops, branches, table construction and field traffic,
calls and prints.  Runtime errors are allowed — an error is a
deterministic observation like any other.

Properties: printing parses back to the same tree, desugaring is
idempotent, every step preserves store well-formedness, and the canonical
result is identical under the never / eager / periodic / seeded-random
schedules.

The second generator, ``_WeakGen``, produces straight-line programs over
the GC interface: weak tables of each ``__mode``, objects whose
finalizers print, count, resurrect or raise, field stores into weak
tables, dropped references, ``collectgarbage()`` and weak reads under
``if``.  Properties: the exhaustive explorer, which collects garbage-only
cycles in place, observes the same set as the unreduced one; and an eager
run, which skips the cycles ``still_quiescent`` proves would find nothing,
records the same run, and draws the same random subsets, as one with the
skip off.
"""

import pytest
from hypothesis import given, settings, strategies as st

from luagc import ast as A
from luagc.desugar import desugar
from luagc.executor import ExhaustiveExplorer, Schedule, run
from luagc.heap import validate
from luagc.interp import Finished, load_program, step
from luagc.parser import parse

from conftest import explore_reduced_and_unreduced, run_memo_checked


class _Gen:
    """Stateful program builder driven by hypothesis draws."""

    def __init__(self, draw):
        self.draw = draw
        self.counter = 0

    def fresh(self, prefix="v"):
        self.counter += 1
        return f"{prefix}{self.counter}"

    # -- expressions --------------------------------------------------------

    def expr(self, names, tables, depth=0):
        options = ["num", "str", "bool", "nil"]
        if names:
            options += ["name"] * 2
        if tables:
            options += ["index"]
        if depth < 2:
            options += ["arith", "compare", "logic", "ctor"]
            if names:
                options += ["call"]
        kind = self.draw(st.sampled_from(options))
        if kind == "num":
            return str(self.draw(st.integers(0, 9)))
        if kind == "str":
            return '"%s"' % self.draw(st.sampled_from(["a", "b", "key"]))
        if kind == "bool":
            return self.draw(st.sampled_from(["true", "false"]))
        if kind == "nil":
            return "nil"
        if kind == "name":
            return self.draw(st.sampled_from(sorted(names)))
        if kind == "index":
            t = self.draw(st.sampled_from(sorted(tables)))
            k = self.draw(st.sampled_from(["1", "2", '"key"']))
            return f"{t}[{k}]"
        if kind == "arith":
            op = self.draw(st.sampled_from(["+", "-", "*"]))
            return (f"({self.expr(names, tables, depth + 1)} {op} "
                    f"{self.expr(names, tables, depth + 1)})")
        if kind == "compare":
            op = self.draw(st.sampled_from(["==", "~=", "<", "<="]))
            return (f"({self.expr(names, tables, depth + 1)} {op} "
                    f"{self.expr(names, tables, depth + 1)})")
        if kind == "logic":
            op = self.draw(st.sampled_from(["and", "or"]))
            return (f"({self.expr(names, tables, depth + 1)} {op} "
                    f"{self.expr(names, tables, depth + 1)})")
        if kind == "ctor":
            n = self.draw(st.integers(0, 2))
            items = ", ".join(
                self.expr(names, tables, depth + 1) for _ in range(n)
            )
            return "{%s}" % items
        if kind == "call":
            arg = self.expr(names, tables, depth + 1)
            body = self.expr(names, tables, depth + 1)
            return f"(function(p) return {body} end)({arg})"
        raise AssertionError(kind)

    # -- statements ---------------------------------------------------------

    def stmts(self, names, tables, budget, frozen=frozenset()):
        out = []
        n = self.draw(st.integers(1, max(1, min(4, budget))))
        for _ in range(n):
            if budget <= 0:
                break
            budget -= 1
            kind = self.draw(st.sampled_from(
                ["local", "local_table", "assign", "print", "iff",
                 "loop", "field"]
            ))
            if kind == "local":
                name = self.fresh()
                out.append(f"local {name} = {self.expr(names, tables)}")
                names = names | {name}
            elif kind == "local_table":
                name = self.fresh("t")
                out.append(f"local {name} = {{}}")
                names = names | {name}
                tables = tables | {name}
            elif kind == "assign" and names - frozen:
                target = self.draw(
                    st.sampled_from(sorted(names - frozen - tables))
                ) if names - frozen - tables else None
                if target is None:
                    out.append(f"print({self.expr(names, tables)})")
                else:
                    out.append(f"{target} = {self.expr(names, tables)}")
            elif kind == "print" or kind == "assign":
                out.append(f"print({self.expr(names, tables)})")
            elif kind == "iff":
                cond = self.expr(names, tables)
                then = self.stmts(names, tables, 2, frozen)
                els = self.stmts(names, tables, 2, frozen)
                out.append(
                    f"if {cond} then {' '.join(then)} else {' '.join(els)} end"
                )
            elif kind == "loop":
                c = self.fresh("c")
                bound = self.draw(st.integers(1, 3))
                body = self.stmts(names | {c}, tables, 2, frozen | {c})
                out.append(
                    f"local {c} = 0 "
                    f"while {c} < {bound} do {c} = {c} + 1 "
                    f"{' '.join(body)} end"
                )
                names = names | {c}
            elif kind == "field" and tables:
                t = self.draw(st.sampled_from(sorted(tables)))
                k = self.draw(st.sampled_from(["1", "2", '"key"']))
                out.append(f"{t}[{k}] = {self.expr(names, tables)}")
            else:
                out.append(f"print({self.expr(names, tables)})")
        return out


@st.composite
def programs(draw):
    g = _Gen(draw)
    body = g.stmts(frozenset(), frozenset(), budget=7)
    if draw(st.booleans()):
        body.append("return %s" % draw(st.integers(0, 9)))
    return "\n".join(body)


@settings(max_examples=70, deadline=None)
@given(programs())
def test_print_parse_roundtrip(text):
    tree = parse(text)
    assert parse(A.to_source(tree)) == tree


@settings(max_examples=70, deadline=None)
@given(programs())
def test_desugar_idempotent(text):
    core = desugar(parse(text))
    assert desugar(core) == core


@settings(max_examples=50, deadline=None)
@given(programs())
def test_steps_preserve_well_formedness(text):
    config = load_program(text)
    validate(config)
    for i in range(600):
        res = step(config)
        if isinstance(res, Finished):
            break
        config = res.config
        if i % 5 == 0:
            validate(config)


@settings(max_examples=50, deadline=None)
@given(programs())
def test_schedules_agree_on_generated_programs(text):
    schedules = [
        Schedule("never", "simple"),
        Schedule("eager", "simple"),
        Schedule("periodic", "simple", period=2),
        Schedule("random", "simple", seed=11, probability=0.4),
        Schedule("random", "simple", seed=12, probability=0.4,
                 selector="random-subset"),
    ]
    keys = {run(load_program(text), s, fuel=3_000).result.key
            for s in schedules}
    assert len(keys) == 1, text


@settings(max_examples=60, deadline=None)
@given(programs())
def test_analyzer_total_on_generated_programs(text):
    from luagc.checker import check_program

    report = check_program(text)
    assert report.verdict in ("SAFE", "UNSAFE", "UNKNOWN")
    # no weak tables are ever generated, so unsafe flags are impossible
    assert report.verdict != "UNSAFE"


class _WeakGen:
    """Straight-line weak-table and finalizer programs.

    A program makes one or two weak tables and one to three objects, then
    runs three to six statements that store objects into the weak tables,
    drop objects or weak tables, read weak fields under ``if`` and call
    ``collectgarbage()``.  Everything is global and the metatables are
    made once up front, so a dropped object or table is one location of
    garbage and the unreduced subset exploration stays small.  The
    program returns ``n``, which a counting finalizer doubles and bumps
    and a weak hit bumps, so it shows their order.
    """

    FINALIZERS = {
        "print": 'print("fin")',
        "count": "n = n * 2 + 1",
        "resurrect": "keep = o",
        "resurrect_weak": "w0[1] = o",
        "raise": 'error("boom")',
    }
    PRELUDE = (
        ["n = 0"]
        + [f'{m} = {{__mode = "{m}"}}' for m in ("k", "v", "kv")]
        + [f"fin_{k} = {{__gc = function(o) {body} end}}"
           for k, body in FINALIZERS.items()]
    )

    def __init__(self, draw):
        self.draw = draw
        self.objects: list = []
        self.weak: list = []

    def pick(self, names):
        return self.draw(st.sampled_from(names))

    def make_weak(self) -> str:
        name = f"w{len(self.weak)}"
        self.weak.append(name)
        return f"{name} = setmetatable({{}}, {self.pick(['k', 'v', 'kv'])})"

    def make_object(self) -> str:
        name = f"o{len(self.objects)}"
        self.objects.append(name)
        meta = self.pick([None] + sorted(self.FINALIZERS))
        if meta is None:
            return f"{name} = {{}}"
        return f"{name} = setmetatable({{}}, fin_{meta})"

    def stmt(self) -> str:
        kind = self.pick(["store", "store", "drop", "read", "collect"])
        if kind == "drop":
            return f"{self.pick(self.objects + self.weak)} = nil"
        if kind == "collect":
            return "collectgarbage()"
        table = self.pick(self.weak)
        key = self.pick(["1"] + self.objects)
        if kind == "store":
            return f"{table}[{key}] = {self.pick(['true'] + self.objects)}"
        return f"if {table}[{key}] then n = n + 1 end"


@st.composite
def weak_programs(draw):
    g = _WeakGen(draw)
    makes = ([g.make_weak] * draw(st.integers(1, 2))
             + [g.make_object] * draw(st.integers(1, 3)))
    # w0 first: the resurrecting finalizer stores into it
    made = [makes[0]()] + [f() for f in draw(st.permutations(makes[1:]))]
    body = [g.stmt() for _ in range(draw(st.integers(3, 6)))]
    return "\n".join([*g.PRELUDE, *made, *body, "return n"])


@settings(max_examples=40, deadline=None)
@given(weak_programs(), st.sampled_from(["fin", "fin_weak"]),
       st.sampled_from(["maximal", "subsets"]))
def test_garbage_only_reduction_on_generated_programs(text, mode, granularity):
    explorer = ExhaustiveExplorer(mode, 200, granularity, 1_500)
    reduced, unreduced = explore_reduced_and_unreduced(load_program(text),
                                                       explorer)
    if not (reduced.truncated or unreduced.truncated):
        assert reduced.keys == unreduced.keys, text


@settings(max_examples=60, deadline=None)
@given(weak_programs(), st.sampled_from(["maximal", "random-subset"]),
       st.integers(0, 99))
def test_quiescence_memo_on_generated_programs(text, selector, seed):
    # every store is a write to the strong globals table, so the skips
    # lean on the one-hop clause; run_memo_checked asserts each is sound
    # and that the record and RNG states match the run without skips
    run_memo_checked(load_program(text),
                     Schedule("eager", "fin_weak", seed=seed,
                              selector=selector))
