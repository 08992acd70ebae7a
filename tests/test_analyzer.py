import pytest
from hypothesis import given, settings, strategies as st

from luagc import ast as A, inference
from luagc.ast import Bool, Nil, Num, Str
from luagc.checker import check_program, check_term
from luagc.dataflow import OutOfScopeConstruct, build_cfg
from luagc.desugar import desugar, desugar_renamed
from luagc.inference import InferenceFailure, deep_resolve, infer, prepare
from luagc.parser import parse
from luagc.statictypes import (
    BOOL_T,
    DYN,
    FuncType,
    NUM_T,
    PrimType,
    STR_T,
    TableType,
    join,
    singleton_of,
    subtype,
)

from conftest import CORPUS, ROOT, corpus_text, perfbench_module, safe_programs


LOOP_ROTATION = """\
local m = {__mode = "v"}
local w = {x = {}}
setmetatable(w, m)
local s1 = {x = {}}
local s2 = {x = {}}
local n = 0
local i = 0
while i < 4 do
  if s2.x then n = n + 1 end
  s2 = s1
  s1 = w
  i = i + 1
end
return n
"""


def analyzed(text):
    renamed, points = prepare(desugar(parse(text)))
    return infer(renamed, points), renamed, points


def analyzer_sources(seeds=(1, 2, 3)):
    """Every corpus program, then every generated source of the benchmark's
    ``check`` workload for ``seeds``, known-defect ops included, as
    ``(name, text)``."""
    workloads = perfbench_module("workloads")
    out = [(p.relative_to(CORPUS).as_posix(), p.read_text())
           for p in sorted(CORPUS.glob("*/*.lua"))]
    for seed in seeds:
        ops, defects = workloads.build("check", seed, ROOT)
        out += [(f"{op.name}@{seed}", op.source) for op in ops + defects
                if not op.name.startswith("corpus:")]
    return out


ANALYZER_SOURCES = analyzer_sources()


def describe(typed):
    """Every local's and every function's solved type, by point."""
    lines = [f"@{point} local {name}: {deep_resolve(ty)}"
             for point in sorted(typed.decls)
             for name, ty in typed.decls[point].items()]
    return lines + [f"@{point} function: {deep_resolve(typed.functions[point])}"
                    for point in sorted(typed.functions)]


# ---------------------------------------------------------------------------
# Subtyping
# ---------------------------------------------------------------------------

types_leaf = st.sampled_from([
    NUM_T, STR_T, BOOL_T, PrimType("nil"), DYN,
    singleton_of(Num(5)), singleton_of(Num(1)), singleton_of(Str("v")),
    singleton_of(Bool(True)), singleton_of(Nil()),
])


def types_of_depth(depth):
    if depth == 0:
        return types_leaf
    sub = types_of_depth(depth - 1)
    tables = st.builds(
        lambda fields, weak: TableType(
            {Num(float(i + 1)): t for i, t in enumerate(fields)}, weak
        ),
        st.lists(sub, max_size=3),
        st.sampled_from(["strong", "wk", "wv", "wkv"]),
    )
    funcs = st.builds(
        lambda dom, res: FuncType(tuple(dom), res),
        st.lists(sub, max_size=2),
        sub,
    )
    return st.one_of(sub, tables, funcs)


any_type = types_of_depth(4)


class TestSubtype:
    def test_singleton_under_primitive(self):
        assert subtype(singleton_of(Num(5)), NUM_T)
        assert not subtype(NUM_T, singleton_of(Num(5)))

    def test_dyn_is_top(self):
        assert subtype(NUM_T, DYN)
        assert subtype(TableType({}), DYN)
        assert not subtype(DYN, NUM_T)

    def test_width_depth_permutation(self):
        wide = TableType({Num(1.0): singleton_of(Num(5)), Num(2.0): STR_T})
        narrow = TableType({Num(1.0): NUM_T})
        assert subtype(wide, narrow)
        assert not subtype(narrow, wide)

    def test_weakness_ignored(self):
        a = TableType({Num(1.0): NUM_T}, "strong")
        b = TableType({Num(1.0): NUM_T}, "wv")
        assert subtype(a, b) and subtype(b, a)

    def test_function_reflexivity_only(self):
        f = FuncType((NUM_T,), NUM_T)
        g = FuncType((singleton_of(Num(1)),), NUM_T)
        assert subtype(f, f)
        assert not subtype(f, g) and not subtype(g, f)

    def test_recursive_table(self):
        t = TableType({})
        t.fields[Str("self")] = t
        assert subtype(t, t)

    @settings(max_examples=300, deadline=None)
    @given(any_type)
    def test_reflexive(self, t):
        assert subtype(t, t)

    @settings(max_examples=300, deadline=None)
    @given(any_type, any_type, any_type)
    def test_transitive(self, a, b, c):
        if subtype(a, b) and subtype(b, c):
            assert subtype(a, c)

    @settings(max_examples=200, deadline=None)
    @given(any_type, any_type)
    def test_join_is_upper_bound(self, a, b):
        j = join(a, b)
        assert subtype(a, j) and subtype(b, j)

    def test_join_keeps_weakness_of_equal_fields(self):
        strong = TableType({Str("x"): TableType({})}, "strong")
        weak = TableType({Str("x"): TableType({})}, "wv")
        assert join(strong, weak).weakness == "wv"
        assert join(weak, strong).weakness == "wv"

    def test_join_weakness_of_every_pair(self):
        # row: left weakness, column: right weakness, both in this order
        order = ("strong", "wk", "wv", "wkv")
        table = [["strong", "wk", "wv", "wkv"],
                 ["wk", "wk", "wkv", "wkv"],
                 ["wv", "wkv", "wv", "wkv"],
                 ["wkv", "wkv", "wkv", "wkv"]]
        for a, row in zip(order, table):
            for b, want in zip(order, row):
                ja = TableType({Str("x"): NUM_T}, a)
                jb = TableType({Str("x"): NUM_T}, b)
                assert join(ja, jb).weakness == want, (a, b)

    def test_closures_differing_only_in_labels(self):
        f = FuncType((NUM_T,), NUM_T, frozenset({1}))
        g = FuncType((NUM_T,), NUM_T, frozenset({2}))
        # subtyping ignores labels, as it does for tables; a join keeps both
        assert subtype(f, g) and subtype(g, f)
        assert join(f, g) == FuncType((NUM_T,), NUM_T, frozenset({1, 2}))


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


class TestInference:
    def test_literal_gives_singleton(self):
        typed, renamed, _ = analyzed("local x = 1 in ; end")
        (decl,) = typed.decls.values()
        assert decl["x"] == singleton_of(Num(1))

    def test_parameter_widened_by_arithmetic(self):
        typed, _, _ = analyzed(
            'local t1 = {}\n'
            't1["attr1"] = 1\n'
            't1["method"] = function(x) return x + t1["attr1"] end\n'
            't1["attr2"] = (t1["method"] (t1["attr1"]))\n'
        )
        (fn,) = map(deep_resolve, typed.functions.values())
        assert fn.domain == (NUM_T,)
        assert fn.result == NUM_T

    def test_identity_function_domain_compatible_with_call(self):
        typed, _, _ = analyzed(
            "local f = function(x) return x end in local y = f(1) in ; end end"
        )
        (fn,) = map(deep_resolve, typed.functions.values())
        assert subtype(singleton_of(Num(1)), fn.domain[0])
        assert not isinstance(fn.domain[0], type(DYN))

    def test_rerun_is_stable(self):
        text = corpus_text("weak/field_tracking.lua")
        renamed, points = prepare(desugar(parse(text)))
        a = describe(infer(renamed, points))
        renamed2, points2 = prepare(desugar(parse(text)))
        b = describe(infer(renamed2, points2))
        assert a == b

    def test_unsatisfiable_constraints_fail(self):
        with pytest.raises(InferenceFailure):
            analyzed('local f = function(x) return x + 1 end in '
                     'local y = f("nope") in ; end end')

    def test_table_self_reference_through_method(self):
        typed, _, _ = analyzed(corpus_text("weak/field_tracking.lua"))
        (decl,) = [d for d in typed.decls.values() if "t1" in d]
        t1 = deep_resolve(decl["t1"])
        assert isinstance(t1, TableType)
        method = t1.fields[Str("method")]
        assert isinstance(method, FuncType)


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------


def defs_by_original_name(defs, point):
    return {name.split("#")[0] for name, _ in defs.at(point)}


class TestReachingDefs:
    def prep(self, text):
        renamed, points = prepare(desugar(parse(text)))
        return renamed, points, build_cfg(renamed, points)

    def test_straight_line(self):
        renamed, points, defs = self.prep(
            "local a = 1 in local b = 2 in print(a) end end"
        )
        locals_ = [n for n in A.walk(renamed) if isinstance(n, A.Local)]
        inner = locals_[1]
        assert defs_by_original_name(defs, points.of(inner)) == {"a"}
        call = [n for n in A.walk(renamed) if isinstance(n, A.ExprStat)][0]
        assert defs_by_original_name(defs, points.of(call)) == {"a", "b"}

    def test_loop_definition_reaches_condition(self):
        renamed, points, defs = self.prep(corpus_text(
            "weak/nondet_weak_loop.lua"
        ))
        loop = [n for n in A.walk(renamed) if isinstance(n, A.While)][0]
        names = defs_by_original_name(defs, points.of(loop))
        assert "t" in names and "i" in names

    def test_reassignment_kills_previous_definition(self):
        renamed, points, defs = self.prep(
            "local x = 1 in x = 2 print(x) end"
        )
        call = [n for n in A.walk(renamed) if isinstance(n, A.ExprStat)][0]
        at = [d for d in defs.at(points.of(call))
              if d[0].split("#")[0] == "x"]
        assert len(at) == 1  # only the assignment's definition survives
        assigns = [n for n in A.walk(renamed) if isinstance(n, A.Assign)]
        assert at[0][1] == points.of(assigns[0])

    def test_branches_merge_definitions(self):
        renamed, points, defs = self.prep(
            "local x = 1 in if x > 0 then x = 2 else x = 3 end print(x) end"
        )
        call = [n for n in A.walk(renamed) if isinstance(n, A.ExprStat)][0]
        xdefs = [d for d in defs.at(points.of(call))
                 if d[0].split("#")[0] == "x"]
        assert len(xdefs) == 2

    def test_break_from_inner_loop_reaches_statement_after_it(self):
        # the inner body ends in `break`, so `j` leaves the loop only
        # through the break
        renamed, points, defs = self.prep(
            "local i = 0\n"
            "while i < 3 do\n"
            "  while true do local j = 1 break end\n"
            "  print(i)\n"
            "  i = i + 1\n"
            "end\n"
        )
        call = [n for n in A.walk(renamed) if isinstance(n, A.ExprStat)][0]
        inner_local = [n for n in A.walk(renamed) if isinstance(n, A.Local)][1]
        assert inner_local.names[0].split("#")[0] == "j"
        assert (inner_local.names[0], points.of(inner_local)) in defs.at(
            points.of(call))

    def test_statement_after_return_has_empty_in_set(self):
        renamed, points, defs = self.prep(
            "local a = 1\ndo return a end\nlocal b = a\nprint(b)\n"
        )
        dead = [n for n in A.walk(renamed) if isinstance(n, A.Local)][1]
        assert defs.at(points.of(dead)) == frozenset()
        call = [n for n in A.walk(renamed) if isinstance(n, A.ExprStat)][0]
        assert defs_by_original_name(defs, points.of(call)) == {"b"}

    def test_function_body_point_shares_its_holders_in_set(self):
        renamed, points, defs = self.prep(
            "local a = 1\n"
            "local f = function(x) local y = x print(y) end\n"
            "f(a)\n"
        )
        holder = [n for n in A.walk(renamed) if isinstance(n, A.Local)][1]
        inside = [n for n in A.walk(renamed) if isinstance(n, A.ExprStat)][0]
        assert isinstance(inside.expr.args[0], A.Name)  # print(y), in f
        assert defs.at(points.of(inside)) == defs.at(points.of(holder))
        assert defs_by_original_name(defs, points.of(inside)) == {"a"}

    def test_reassignment_at_loop_end_reaches_condition(self):
        renamed, points, defs = self.prep(
            "local x = 1\nwhile x < 3 do\n  print(x)\n  x = x + 1\nend\n"
        )
        loop = [n for n in A.walk(renamed) if isinstance(n, A.While)][0]
        assign = [n for n in A.walk(renamed) if isinstance(n, A.Assign)][0]
        reassigned = (assign.targets[0].ident, points.of(assign))
        assert reassigned in defs.at(points.of(loop))
        assert reassigned in defs.at(points.of(loop.cond))

    @staticmethod
    def x_points(defs, point):
        return {p for name, p in defs.at(point) if name.split("#")[0] == "x"}

    def test_loop_assignment_kills_definition_from_earlier_walk(self):
        # the second walk of the body enters with `x = 5` live; `x = x + 1`
        # must kill it although it was generated after `x = x + 1` was
        renamed, points, defs = self.prep(
            "local x = 0\n"
            "while x < 3 do\n"
            "  x = x + 1\n"
            "  print(x)\n"
            "  x = 5\n"
            "end\n"
            "print(x)\n"
        )
        (local,) = [n for n in A.walk(renamed) if isinstance(n, A.Local)]
        (loop,) = [n for n in A.walk(renamed) if isinstance(n, A.While)]
        first, last = [n for n in A.walk(renamed) if isinstance(n, A.Assign)]
        inside, after = [n for n in A.walk(renamed)
                         if isinstance(n, A.ExprStat)]
        assert self.x_points(defs, points.of(inside)) == {points.of(first)}
        assert self.x_points(defs, points.of(last)) == {points.of(first)}
        both = {points.of(local), points.of(last)}
        assert self.x_points(defs, points.of(loop)) == both
        assert self.x_points(defs, points.of(after)) == both

    def test_both_if_arms_reach_the_join(self):
        # each arm kills `local x`; neither may kill the other's definition
        renamed, points, defs = self.prep(
            "local x = 1\n"
            "local c = 2\n"
            "if c > 1 then x = 2 else x = 3 end\n"
            "print(x)\n"
        )
        local = [n for n in A.walk(renamed) if isinstance(n, A.Local)][0]
        then_def, else_def = [n for n in A.walk(renamed)
                              if isinstance(n, A.Assign)]
        (call,) = [n for n in A.walk(renamed) if isinstance(n, A.ExprStat)]
        assert self.x_points(defs, points.of(else_def)) == {points.of(local)}
        assert self.x_points(defs, points.of(call)) == {
            points.of(then_def), points.of(else_def)}

    # a statement's sub-statements; its other sub-terms are expressions
    BODIES = {A.Seq: ("first", "rest"), A.Local: ("body",),
              A.If: ("then_body", "else_body"), A.While: ("body",)}

    @classmethod
    def statement_of(cls, t, points):
        """Point -> the statement whose in-set it shares, walked out: each
        statement's expressions, function bodies included, map to it, and
        each ``Seq`` to the statement that owns it (the first statement for
        the top-level sequence)."""
        entry = t
        while isinstance(entry, A.Seq):
            entry = entry.first
        out = {}
        stack = [(t, points.of(entry))]
        while stack:
            s, owner = stack.pop()
            p = points.of(s)
            if isinstance(s, A.Seq):
                out[p] = owner
                stack += [(s.rest, owner), (s.first, owner)]
                continue
            out[p] = p
            bodies = [getattr(s, f) for f in cls.BODIES.get(type(s), ())]
            stack += [(b, p) for b in reversed(bodies)]
            for e in A.children(s):
                if not any(e is b for b in bodies):
                    for n in A.walk(e):
                        out[points.of(n)] = p
        return out

    @pytest.mark.parametrize("name, text", ANALYZER_SOURCES,
                             ids=[n for n, _ in ANALYZER_SOURCES])
    def test_lookup_matches_walking_each_statement(self, name, text):
        renamed, points = prepare(parse(text, name))
        try:
            defs = build_cfg(renamed, points)
        except OutOfScopeConstruct:
            return
        ref = self.statement_of(renamed, points)
        assert sorted(ref) == list(range(len(points.number)))
        stmts = {p for p, owner in ref.items() if p == owner}
        assert defs.stmts == sorted(stmts)  # entered once, ascending
        for p, stmt in ref.items():
            assert defs.at(p) == defs.in_sets[stmt], p


class TestRenamingDesugar:
    def test_binders_are_named_in_pre_order(self):
        renamed, _ = prepare(parse(
            "local x = 1\n"
            "local f = function(x) return x end\n"
            "local x = x + 1\n"
            "return f(x)\n"
        ))
        binders = [n for n in A.walk(renamed) if isinstance(n, (A.Local, A.Function))]
        assert [b.names if isinstance(b, A.Local) else b.params
                for b in binders] == [("x",), ("f",), ("x#2",), ("x#3",)]
        third = binders[3]  # ``local x#3 = x + 1``, read as the first ``x``
        assert third.exprs[0].lhs == A.Name("x")
        assert A.to_source(third.body) == "return f(x#3)"

    @pytest.mark.parametrize("name, text", ANALYZER_SOURCES,
                             ids=[n for n, _ in ANALYZER_SOURCES])
    def test_parsed_and_desugared_input_agree(self, name, text):
        parsed = parse(text, name)
        renamed, points = prepare(parsed)
        again, again_points = prepare(desugar(parse(text, name)))
        assert renamed == again
        # each node is numbered once, in walk order, on both sides
        for t, pts in ((renamed, points), (again, again_points)):
            assert [pts.of(n) for n in A.walk(t)] == list(range(len(pts.number)))
        assert len(points.number) == len(again_points.number)
        assert desugar_renamed(renamed) is renamed
        names = [x for n in A.walk(renamed) if isinstance(n, (A.Local, A.Function))
                 for x in (n.names if isinstance(n, A.Local) else n.params)]
        assert len(names) == len(set(names))
        report = check_program(text, name).to_json()
        assert check_term(parsed, name).to_json() == report
        assert check_term(desugar(parsed), name).to_json() == report


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class TestVerdicts:
    def test_weak_loop_unsafe(self):
        r = check_program(corpus_text("weak/nondet_weak_loop.lua"))
        assert r.verdict == "UNSAFE"
        (d,) = r.unsafe
        assert d.access == "t[1]"
        assert d.table == "t"
        assert d.witness  # carries the reaching-definitions witness

    def test_weak_cache_exact_lines(self):
        r = check_program(corpus_text("weak/weak_cache.lua"))
        assert r.verdict == "UNSAFE"
        assert [(d.line, d.access) for d in r.unsafe] == [
            (9, "cache1[2]"),
            (10, "cache1[3]"),
        ]

    def test_field_tracking_only_method_flagged(self):
        r = check_program(corpus_text("weak/field_tracking.lua"))
        assert r.verdict == "UNSAFE"
        (d,) = r.unsafe
        assert d.line == 6 and d.access == 't1["method"]'

    @pytest.mark.parametrize("path", safe_programs(), ids=lambda p: p.stem)
    def test_safe_corpus(self, path):
        r = check_program(path.read_text(), str(path))
        assert r.verdict == "SAFE", (r.reason, [d.message for d in r.diagnostics])

    def test_no_weak_tables_no_unsafe(self):
        r = check_program("local t = {} t[1] = {} print(t[1])")
        assert r.verdict == "SAFE"

    def test_retag_to_strong_clears_weakness(self):
        r = check_program(
            'local t = {[1] = {}}\n'
            'setmetatable(t, {__mode = "v"})\n'
            'setmetatable(t, {})\n'
            'local x = t[1]\n'
        )
        assert r.verdict == "SAFE"

    def test_retag_to_weak_after_strong(self):
        r = check_program(
            'local t = {[1] = {}}\n'
            'local x = t[1]\n'
            'setmetatable(t, {__mode = "v"})\n'
            'local y = t[1]\n'
        )
        # x still holds the value strongly at line 4
        assert r.verdict == "SAFE"

    def test_unknown_on_multi_local(self):
        r = check_program("local a, b = 1, 2 print(a)")
        assert r.verdict == "UNKNOWN"

    def test_unknown_on_multi_return(self):
        r = check_program("local f = function() return 1, 2 end f()")
        assert r.verdict == "UNKNOWN"

    def test_unknown_on_collectible_key(self):
        r = check_program("local k = {} local t = {[k] = 1} print(t[k])")
        assert r.verdict == "UNKNOWN"

    def test_unknown_on_non_literal_index(self):
        r = check_program(
            "local t = {[1] = 2} local i = 1 i = i + 1 print(t[i])"
        )
        assert r.verdict == "UNKNOWN"

    def test_dyn_mode_warns_conservatively(self):
        r = check_program(
            'local t = {[1] = 5}\n'
            'local m = getmetatable({})\n'
            'setmetatable(t, m)\n'
            'print(t[1])\n'
        )
        assert any(d.reason == "weak-table-nondeterminism"
                   for d in r.diagnostics)

    # Rules that can still fire once inference has succeeded: each is
    # judged only after the constraints are solved.
    @pytest.mark.parametrize("text, line, message", [
        ("local f = function(g) return g() end\nlocal x = f(1)\n",
         1, "calling a value of type <1:num>"),
        ("local f = function(g) return g(1) end\n"
         "local h = function(a, b) return a end\nlocal x = f(h)\n",
         1, "call arity mismatch: 1 given, 2 expected"),
        ('local x = 1\nx = "s"\n',
         2, "assignment changes the type of 'x' from <1:num> to <\"s\":str>"),
        ("local t = {[1] = 2} print(t[2])",
         1, "no field [2] in table type {[1]: <2:num>} strong"),
        ("local t = {}\nlocal y = t[1]\nt[1] = 2\n",
         2, "no field [1] in table type {} strong"),
    ], ids=["call-non-function", "call-arity", "reassignment", "no-field",
            "no-field-before-write"])
    def test_type_error_after_inference(self, text, line, message):
        r = check_program(text)
        assert r.verdict == "SAFE"
        assert [(d.line, d.severity, d.reason, d.message)
                for d in r.diagnostics] == [(line, "warning", "type-error", message)]

    def test_loop_rotating_a_weak_table_into_a_read(self):
        # s2 holds the weak table w from the third iteration on, so the
        # exhaustive explorer observes n in {2, 3, 4}
        r = check_program(LOOP_ROTATION)
        assert r.verdict == "UNSAFE"
        assert [(d.line, d.access) for d in r.unsafe] == [(9, 's2["x"]')]

    # A later write must not hide that GC can clear w[1] before the read,
    # and a closure called after a write must be judged on what the write
    # leaves.  The exhaustive explorer observes {0, 1} on each program.
    @pytest.mark.parametrize("text, line", [
        ('local w = {[1] = {}}\nsetmetatable(w, {__mode = "v"})\n'
         'local y = w[1]\nw[1] = 1\nif y then return 1 end\nreturn 0\n', 3),
        ('local w = {[1] = {}}\nsetmetatable(w, {__mode = "v"})\n'
         'local s = {[1] = 0}\nlocal y = w[1]\ns[1] = y\n'
         'if y then return 1 end\nreturn 0\n', 4),
        ('local h = {}\nlocal w = {[1] = h}\nsetmetatable(w, {__mode = "v"})\n'
         'local s = {[1] = h}\nh = nil\n'
         'local f = function() local y = w[1] if y then return 1 end'
         ' return 0 end\ns[1] = 0\nreturn f()\n', 6),
    ], ids=["overwritten-after-read", "stored-after-read",
            "closure-called-after-write"])
    def test_later_write_does_not_hide_unsafe_read(self, text, line):
        r = check_program(text)
        assert r.verdict == "UNSAFE"
        assert [(d.line, d.access) for d in r.unsafe] == [(line, "w[1]")]

    def test_reassigned_table_keeps_its_own_labels(self):
        # x's second table has the same shape as a's, but not a's label:
        # only a holds a's table.  The exhaustive explorer observes {0, 1}.
        r = check_program(
            'local n = 1\nlocal a = {}\nlocal x = a\nx = {}\n'
            'local w = {[1] = x}\nx = nil\nsetmetatable(w, {__mode = "v"})\n'
            'local y = w[1]\nif y then return 1 end\nreturn 0\n')
        assert r.verdict == "UNSAFE"
        assert [(d.line, d.access) for d in r.unsafe] == [(8, "w[1]")]

    def test_reassigned_closure_is_not_a_type_error(self):
        r = check_program("local f = function() return 0 end\n"
                          "f = function() return 0 end\nreturn f()\n")
        assert r.verdict == "SAFE" and r.diagnostics == []

    def test_loop_without_stable_types_is_unknown(self, monkeypatch):
        monkeypatch.setattr(inference, "_LOOP_ROUNDS", 2)
        r = check_program(LOOP_ROTATION)
        assert r.verdict == "UNKNOWN"
        assert r.reason == "8:1: loop types not stable after 2 rounds"

    def test_ephemeron_literal_keys_never_unsafe(self):
        r = check_program(corpus_text("safe/ephemeron_literal_keys.lua"))
        assert r.verdict == "SAFE"

    def test_syntax_error_propagates(self):
        from luagc.parser import LuaSyntaxError

        with pytest.raises(LuaSyntaxError):
            check_program("local = 1")


class TestRobustness:
    def test_long_sum_is_analyzed(self):
        r = check_program("return " + " + ".join(["1"] * 600) + "\n")
        assert r.verdict == "SAFE"

    def test_long_local_spine_is_analyzed(self):
        # the desugared form of 3,000 `local`s, each nesting the rest
        term = A.Return((A.Name("x"),))
        for i in range(3000):
            term = A.Local(("x",), (A.Const(Num(float(i))),), term)
        r = check_term(term)
        assert r.verdict == "SAFE", r.reason

    def test_analyzer_total_on_corpus(self):
        from conftest import CORPUS

        for sub in ("deterministic", "weak", "finalizers", "safe"):
            for path in sorted((CORPUS / sub).glob("*.lua")):
                r = check_program(path.read_text(), str(path))
                assert r.verdict in ("SAFE", "UNSAFE", "UNKNOWN"), path

    def test_analysis_leaves_no_cyclic_garbage(self):
        # what the analyzer drops is freed at once, not at the cyclic
        # GC's next pass, so its peak memory does not depend on when
        # that pass comes
        import gc

        from conftest import CORPUS

        enabled = gc.isenabled()
        gc.disable()
        try:
            for sub in ("deterministic", "weak", "finalizers", "safe"):
                for path in sorted((CORPUS / sub).glob("*.lua")):
                    gc.collect()
                    check_program(path.read_text(), str(path))
                    assert gc.collect() == 0, path
        finally:
            if enabled:
                gc.enable()

    def test_weakness_free_programs_never_unsafe(self):
        from conftest import deterministic_programs

        for path in deterministic_programs():
            text = path.read_text()
            if "__mode" in text:
                continue
            r = check_program(text, str(path))
            assert r.verdict in ("SAFE", "UNKNOWN"), (path, r.verdict)
