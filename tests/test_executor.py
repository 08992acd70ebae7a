import dataclasses
import json
import math
import sys
import tracemalloc
from collections import Counter

import pytest

from luagc import ast as A
from luagc import executor, gc, interp
from luagc.ast import Num, Str
from luagc.executor import (
    BOTTOM_BUDGET,
    BOTTOM_FUEL,
    ExhaustiveExplorer,
    Schedule,
    ScheduleSampler,
    check_postponement,
    finalizer_in_flight,
    is_garbage,
    observations,
    reach_equivalent,
    result,
    run,
    splice_finalizer,
)
from luagc.heap import (
    Configuration, ObjectStore, ValueStore, alloc_value, snapshot_json,
)
from luagc.interp import (
    Finished, Focused, Redex, decompose, load_program, plug, step,
)

from conftest import (
    CORPUS, ROOT, corpus_text, deterministic_programs, explore_memo_checked,
    explore_reduced_and_unreduced, oracle_same_zero_signs, oracle_state_key,
    perfbench_module, plugged, run_memo_checked,
)
from heapgen import build_heap


def schedules_battery(mode="simple", seeds=range(5)):
    out = [
        Schedule("never", mode),
        Schedule("eager", mode),
        Schedule("periodic", mode, period=3),
    ]
    out += [Schedule("random", mode, seed=s, probability=0.3) for s in seeds]
    return out


class TestRun:
    def test_weak_loop_never_diverges(self):
        config = load_program(corpus_text("weak/nondet_weak_loop.lua"))
        rec = run(config, Schedule("never"), fuel=1_000)
        assert rec.result.key == BOTTOM_FUEL

    def test_weak_loop_eager_exits_first_iteration(self):
        config = load_program(corpus_text("weak/nondet_weak_loop.lua"))
        rec = run(config, Schedule("eager", "fin_weak"), fuel=1_000)
        assert rec.result.kind == "return"
        assert '"v": 1.0' in rec.result.key

    def test_trace_reproducible(self):
        text = corpus_text("finalizers/finalizer_order.lua")
        sched = Schedule("random", "fin", seed=13, probability=0.4)
        a = run(load_program(text), sched, fuel=4_000, trace_steps=True)
        b = run(load_program(text), sched, fuel=4_000, trace_steps=True)
        assert json.dumps(a.trace) == json.dumps(b.trace)
        assert a.output == b.output and a.result == b.result

    def test_distinct_seeds_allowed_to_differ(self):
        text = corpus_text("weak/nondet_weak_loop_bounded.lua")
        keys = {
            run(load_program(text),
                Schedule("random", "fin_weak", seed=s, probability=0.5),
                fuel=2_000).result.key
            for s in range(8)
        }
        assert len(keys) >= 1  # sanity; nondeterminism across seeds is fine

    def test_finalizer_free_schedules_agree(self):
        for path in deterministic_programs():
            config_text = path.read_text()
            keys = {
                run(load_program(config_text), sched, fuel=10_000).result.key
                for sched in schedules_battery()
            }
            assert len(keys) == 1, path.name


class TestResult:
    def test_empty_program(self):
        r = result(load_program(";"))
        assert r.kind == "empty" and r.key == "empty"

    def test_return_primitive_drops_garbage(self):
        c1 = build_heap({1: None}, {}, {}, [])
        c1 = Configuration(c1.sigma, c1.theta, A.Return((A.Const(Num(5)),)))
        c2 = build_heap({}, {}, {}, [])
        c2 = Configuration(c2.sigma, c2.theta, A.Return((A.Const(Num(5)),)))
        assert result(c1) == result(c2)

    def test_returned_table_keeps_its_closure(self):
        c = build_heap(
            {1: ("tid", 2)},
            {1: {"fields": [(Num(1), ("cid", 1))]}, 2: {}},
            {1: [("ref", 1)]},
            [("tid", 1)],
        )
        r = result(c)
        payload = json.loads(r.key)
        # residual stores: the table, the closure, the captured ref and
        # its table value; nothing else
        assert len(payload["s"]["tables"]) == 2
        assert len(payload["s"]["closures"]) == 1
        assert len(payload["s"]["sigma"]) == 1

    def test_canonicalization_renames_ids(self):
        # same shape at different raw ids compares equal
        a = build_heap({}, {1: {"fields": [(Num(1), ("tid", 2))]}, 2: {}},
                       {}, [("tid", 1)])
        b = build_heap({}, {7: {"fields": [(Num(1), ("tid", 9))]}, 9: {}},
                       {}, [("tid", 7)])
        assert result(a) == result(b)

    def test_deep_linked_list_canonicalizes(self):
        # 1,200 chained tables once overflowed a recursive renaming
        n = 1_200
        tables = {i: {"fields": [(Str("v"), Num(float(i)))]
                      + ([(Str("next"), ("tid", i + 1))] if i < n else [])}
                  for i in range(1, n + 1)}
        payload = json.loads(result(build_heap({}, tables, {}, [("tid", 1)])).key)
        assert payload["v"] == [{"t": "loc", "v": "t0"}]
        names = [t[0] for t in payload["s"]["tables"]]
        assert names == [f"t{i}" for i in range(n)]
        # pre-order: each node's successor is named next
        assert payload["s"]["tables"][0][1][1] == [
            {"t": "str", "v": "next"}, {"t": "loc", "v": "t1"}]

    def test_mark_state_is_observable(self):
        from luagc.heap import FORBIDDEN

        a = build_heap({}, {1: {"pos": FORBIDDEN}}, {}, [("tid", 1)])
        b = build_heap({}, {1: {}}, {}, [("tid", 1)])
        assert result(a) != result(b)


class TestSplicing:
    def test_statement_position_sequences(self):
        # the first redex of this program is the local binding, a statement
        config = load_program("local x = 1 print(x)")
        term = splice_finalizer(config.term, 1, 1)
        assert finalizer_in_flight(term)
        src = A.to_source(term)
        assert "$fin[" in src and src.index("$fin[") < src.index("local")

    def test_expression_position_wraps_in_thunk(self):
        config = load_program("local x = 1 + 2 return x")
        # step to where the redex is the addition (an expression)
        from luagc.interp import step

        term = splice_finalizer(config.term, 1, 1)
        src = A.to_source(term)
        assert "function ($)" in src and "$finexpr" in src


class TestObservations:
    def test_deterministic_program_singleton(self):
        config = load_program(corpus_text("deterministic/while_sum.lua"))
        obs = observations(
            config, ScheduleSampler(tuple(schedules_battery())), fuel=10_000
        )
        assert len(obs) == 1

    def test_exhaustive_deterministic_singleton(self):
        config = load_program("local a = {} local b = 1 return b")
        obs = observations(config, ExhaustiveExplorer("simple", 120, "maximal",
                                                      20_000))
        assert len(obs) == 1 and not obs.truncated

    def test_empty_program(self):
        obs = observations(load_program(";"),
                           ScheduleSampler((Schedule("never"),)))
        assert obs.keys == {"empty"}

    def test_bounded_weak_loop_at_least_two(self):
        config = load_program(corpus_text("weak/nondet_weak_loop_bounded.lua"))
        obs = observations(
            config,
            ExhaustiveExplorer("fin_weak", 400, "maximal", 50_000),
            fuel=2_000,
        )
        assert len(obs) >= 2


class TestPostponement:
    def test_corpus_program_no_counterexamples(self):
        config = load_program(corpus_text("deterministic/garbage_churn.lua"))
        report = check_postponement(config, trials=4, seed=5)
        assert report.pairs_checked > 0
        assert report.ok, report.failures

    def test_trace_without_gc_vacuous(self):
        config = load_program("return 1")
        report = check_postponement(config, trials=1, seed=0)
        assert report.ok

    def test_hand_built_swap(self):
        # collect a garbage ref, then dereference a live one; swapping the
        # two steps lands in reach-equivalent configurations
        from luagc.gc import run_cycle
        from luagc.interp import step

        c = build_heap({1: None, 2: None}, {}, {}, [("ref", 1)])
        o = run_cycle(c, "simple")
        assert o.discarded == (("ref", 2),)
        mid = Configuration(o.kept_sigma, o.kept_theta, c.term)
        post = step(mid).config

        swapped_first = step(c).config
        shrunk = ValueStore(
            {r: v for r, v in swapped_first.sigma.bindings.items() if r != 2},
            swapped_first.sigma.next_id,
        )
        swapped = Configuration(shrunk, swapped_first.theta, swapped_first.term)
        assert reach_equivalent(post, swapped)


    def test_decomposes_from_the_root_once_per_trial(self, monkeypatch):
        # one root decomposition starts a trial; each checked pair re-steps
        # its pre-collection configuration from the root once more
        config = load_program(corpus_text("deterministic/garbage_churn.lua"))
        calls = []
        real = interp.decompose
        monkeypatch.setattr(interp, "decompose",
                            lambda t: calls.append(t) or real(t))
        report = check_postponement(config, trials=2, seed=0)
        assert report.pairs_checked > 0
        assert len(calls) <= 2 + report.pairs_checked


class TestReachEquivalent:
    def test_ignores_unreachable_differences(self):
        a = build_heap({1: None, 2: None}, {}, {}, [("ref", 1)])
        b = build_heap({1: None}, {}, {}, [("ref", 1)])
        b = Configuration(
            ValueStore(dict(b.sigma.bindings), a.sigma.next_id),
            b.theta, a.term,
        )
        assert reach_equivalent(a, b)

    def test_detects_reachable_differences(self):
        a = build_heap({1: None}, {}, {}, [("ref", 1)])
        changed = ValueStore({1: Str("other")}, a.sigma.next_id)
        b = Configuration(changed, a.theta, a.term)
        assert not reach_equivalent(a, b)


class TestIsGarbage:
    def test_unreachable_binding_is_garbage(self):
        config = load_program("local x = 1 return 2")
        # step until x's ref exists but is no longer mentioned
        from luagc.interp import Finished, step

        while True:
            res = step(config)
            assert not isinstance(res, Finished)
            config = res.config
            if config.sigma.bindings and not any(
                k == "ref" for k, _ in
                __import__("luagc.gc", fromlist=["x"]).reach_set(
                    config.term, config.sigma, config.theta)
            ):
                break
        assert is_garbage(config, ("ref", 1))

    def test_dereferenced_binding_not_garbage(self):
        config = load_program("local x = 7 return x")
        from luagc.interp import Finished, step

        res = step(config)  # bind x
        config = res.config
        assert not is_garbage(config, ("ref", 1))

    def test_reachable_but_unused_is_semantic_garbage(self):
        # the table stays mentioned in an unreached branch guard that is
        # decided by a constant, so it is semantically (not syntactically)
        # garbage
        config = load_program(
            "local t = {} local flag = false "
            "if flag then print(t) end return 3"
        )
        from luagc.interp import Finished, step

        for _ in range(3):
            config = step(config).config
        # t's table is still reachable from the term
        from luagc.gc import reach_set

        tid = next(iter(
            i for i in config.theta.tables if i != 1
        ))
        assert ("tid", tid) in reach_set(config.term, config.sigma,
                                         config.theta)
        assert is_garbage(config, ("tid", tid))


class TestSubsetSelectors:
    def test_random_subset_schedule_reproducible(self):
        text = corpus_text("deterministic/garbage_churn.lua")
        sched = Schedule("random", "simple", seed=9, probability=0.5,
                         selector="random-subset")
        a = run(load_program(text), sched, fuel=5_000)
        b = run(load_program(text), sched, fuel=5_000)
        assert a.result == b.result
        assert json.dumps(a.trace) == json.dumps(b.trace)

    def test_random_subset_preserves_results(self):
        for path in deterministic_programs()[:8]:
            text = path.read_text()
            base = run(load_program(text), Schedule("never", "simple"),
                       fuel=10_000).result.key
            for seed in range(3):
                sched = Schedule("random", "simple", seed=seed,
                                 probability=0.5, selector="random-subset")
                got = run(load_program(text), sched, fuel=10_000).result.key
                assert got == base, path.name

    def test_subset_granularity_exploration(self):
        config = load_program(
            "local a = {} local b = {} local done = 1 return done"
        )
        obs = observations(
            config,
            ExhaustiveExplorer("simple", 100, "subsets", 30_000),
        )
        assert len(obs) == 1 and not obs.truncated


class TestExplorerDrain:
    def test_collectgarbage_inside_exhaustive_exploration(self):
        config = load_program(
            "local keep = {}\n"
            "do local scratch = {1} keep.n = scratch[1] end\n"
            "collectgarbage()\n"
            "return keep.n\n"
        )
        obs = observations(
            config, ExhaustiveExplorer("fin_weak", 200, "maximal", 20_000)
        )
        assert len(obs) == 1

    def test_finalizer_program_explored(self):
        config = load_program(
            "local t = {}\n"
            'setmetatable(t, {__gc = function() print("x") end})\n'
            "t = nil\n"
            "collectgarbage()\n"
            "return 1\n"
        )
        obs = observations(
            config, ExhaustiveExplorer("fin", 300, "maximal", 20_000)
        )
        # the finalizer fires on every path; the result is the same
        assert len(obs) == 1

    # a finalizer that loops before raising; collectgarbage() drains it
    LOOPING_FINALIZER = (
        "local t = setmetatable({}, {__gc = function(o) local i = 0 "
        'while i < 3 do i = i + 1 end error("x") end}) '
        "t = nil collectgarbage() return 1"
    )

    @pytest.mark.parametrize("bound, kinds", [
        (35, {"bottom"}), (60, {"error"}),
    ])
    def test_drain_steps_count_against_step_bound(self, bound, kinds):
        # no error trace fits in fewer than 42 steps, drain included
        obs = observations(load_program(self.LOOPING_FINALIZER),
                           ExhaustiveExplorer("fin", bound, "maximal", 20_000))
        assert {r.kind for r in obs.results.values()} == kinds
        if kinds == {"bottom"}:
            assert obs.keys == {BOTTOM_FUEL}


class TestResurrectionLimits:
    def test_refinalization_forbidden_after_resurrection(self):
        # the finalizer re-marks its object with a fresh __gc metatable;
        # the forbidden mark is sticky, so the second finalizer never runs
        text = (
            "count = 0\n"
            "local m = {__gc = function(o)\n"
            "  count = count + 1\n"
            "  setmetatable(o, {__gc = function() count = count + 100 end})\n"
            "end}\n"
            "local t = {}\n"
            "setmetatable(t, m)\n"
            "t = nil\n"
            "collectgarbage()\n"
            "collectgarbage()\n"
            "return count\n"
        )
        rec = run(load_program(text), Schedule("scripted", "fin"), fuel=8_000)
        assert rec.result.kind == "return"
        assert '"v": 1.0' in rec.result.key
        finalized = [e for e in rec.trace if e["kind"] == "finalize"]
        assert len(finalized) == 1

    def test_permanent_resurrection_object_survives(self):
        text = (
            "keep = nil\n"
            "local t = {tag = 7}\n"
            "setmetatable(t, {__gc = function(o) keep = o end})\n"
            "t = nil\n"
            "collectgarbage()\n"
            "return keep.tag\n"
        )
        rec = run(load_program(text), Schedule("scripted", "fin"), fuel=8_000)
        assert rec.result.kind == "return"
        assert '"v": 7.0' in rec.result.key


class TestExplorerCoversSchedules:
    """Any maximal-cycle schedule is one path of the exhaustive explorer,
    so its result must appear in the explored observation set."""

    @pytest.mark.parametrize("rel", [
        "weak/nondet_weak_loop_bounded.lua",
        "weak/ephemeron_self_key.lua",
        "weak/ephemeron_kept_key.lua",
        "weak/weak_cache.lua",
    ])
    def test_scheduled_results_subset_of_exhaustive(self, rel):
        text = corpus_text(rel)
        exhaustive = observations(
            load_program(text),
            ExhaustiveExplorer("fin_weak", 500, "maximal", 120_000),
            fuel=3_000,
        )
        assert not exhaustive.truncated, rel
        # "never" is the pure program-step relation (collectgarbage inert),
        # which lies outside the explored collection-enabled space
        schedules = [
            Schedule("eager", "fin_weak"),
            Schedule("periodic", "fin_weak", period=2),
            Schedule("periodic", "fin_weak", period=5),
        ] + [
            Schedule("random", "fin_weak", seed=s, probability=0.4)
            for s in range(6)
        ]
        for sched in schedules:
            key = run(load_program(text), sched, fuel=400).result.key
            assert key in exhaustive.keys, (rel, sched.describe(), key[:80])


# the shapes where a garbage-only cycle sits next to a finalizer or a weak
# table; globals rather than locals keep the garbage, and so the unreduced
# subset exploration, small
GARBAGE_EDGE_PROGRAMS = {
    # the target is held only as the value of a weak-values table that
    # turns to garbage; it blocks the finalizer (``not_fin_val``) until it
    # is collected
    "weak_values_holder": """
w = setmetatable({}, {__mode = "v"})
w[1] = setmetatable({}, {__gc = function(o) saved = 1 end})
w = nil
collectgarbage()
return saved
""",
    # the ephemeron turns to garbage while its key awaits its finalizer
    "ephemeron_pending_key": """
e = setmetatable({}, {__mode = "k"})
e[setmetatable({}, {__gc = function(o) saved = 1 end})] = true
e = nil
collectgarbage()
return saved
""",
    # the finalizer puts its object back into a live weak table, and a
    # read before the drain may or may not see it there
    "resurrect_into_weak": """
w = setmetatable({}, {__mode = "v"})
setmetatable({}, {__gc = function(o) w[1] = o end})
local early = w[1] ~= nil
collectgarbage()
return early, w[1] ~= nil
""",
    # garbage beside a finalizer candidate: that cycle branches, or the
    # finalizer could no longer run after the increment (n = 3 or 4)
    "finalizer_beside_garbage": """
n = 1
fin = {__gc = function(o) n = n * 2 end}
g = {}
x = setmetatable({}, fin)
x = nil
g = nil
n = n + 1
collectgarbage()
return n
""",
    # the same with a __gc that is no function: the cycle only marks the
    # table forbidden, which the residue shows while w[x] is kept
    "skipped_finalizer_beside_garbage": """
w = setmetatable({}, {__mode = "k"})
g = {}
x = setmetatable({}, {__gc = true})
w[x] = 1
x = nil
g = nil
return w
""",
}


class TestGarbageOnlyReduction:
    """Collecting garbage-only cycles in place loses no observation: the
    explorer's set equals the one that branches on every cycle."""

    @pytest.mark.parametrize("granularity", ["maximal", "subsets"])
    @pytest.mark.parametrize("mode", ["fin", "fin_weak"])
    @pytest.mark.parametrize("name", sorted(GARBAGE_EDGE_PROGRAMS))
    def test_reduced_equals_unreduced(self, name, mode, granularity):
        explorer = ExhaustiveExplorer(mode, 200, granularity, 20_000)
        reduced, unreduced = explore_reduced_and_unreduced(
            load_program(GARBAGE_EDGE_PROGRAMS[name]), explorer)
        assert not reduced.truncated and not unreduced.truncated
        assert reduced.keys == unreduced.keys
        assert reduced.collected > 0
        assert reduced.nodes < unreduced.nodes


CORPUS_PROGRAMS = sorted(
    p.relative_to(CORPUS).as_posix() for p in CORPUS.glob("*/*.lua")
)


SIGNED_ZERO_PROGRAMS = {
    # whether the weak entry survived until it was read picks 0 or -0;
    # collectgarbage() then makes both paths' stores equal, leaving the
    # sign of zero the only difference between them
    "binding": (
        "local z = w[1] and 0 * m or 0 * p\n"
        "collectgarbage()\n"
        "return 1 / z\n"
    ),
    "table_field": (
        "local t = {}\n"
        "t.z = w[1] and 0 * m or 0 * p\n"
        "collectgarbage()\n"
        "return 1 / t.z\n"
    ),
    "term_constant": (
        "return 1 / ((w[1] and 0 * m or 0 * p) - 0 * collectgarbage())\n"
    ),
    # the zero waits in the evaluated part of a frame's list slot while the
    # collection runs: a call's arguments, a constructor's fields
    "call_argument": (
        "local f = function(z) return 1 / z end\n"
        "return f(w[1] and 0 * m or 0 * p, collectgarbage())\n"
    ),
    "constructor_field": (
        "local t = {w[1] and 0 * m or 0 * p, collectgarbage()}\n"
        "return 1 / t[1]\n"
    ),
}


def afresh(f) -> tuple:
    """A frame's holed node built anew, as its class and compared fields."""
    n = interp._replace_child(f.node, f.slot, f.idx, interp.HOLE)
    return (type(n), *(getattr(n, x.name) for x in dataclasses.fields(n)
                       if x.compare))


class TestExplorerVisitedSet:
    EXPLORER = ExhaustiveExplorer("fin_weak", 400, "maximal", 20_000)

    @staticmethod
    def count_expansions(monkeypatch) -> list:
        calls = []
        real = executor.enumerate_gc_steps

        def counting(c, *args, **kwargs):
            calls.append(snapshot_json(c))
            return real(c, *args, **kwargs)

        monkeypatch.setattr(executor, "enumerate_gc_steps", counting)
        return calls

    @pytest.mark.parametrize("where", sorted(SIGNED_ZERO_PROGRAMS))
    def test_signed_zeros_never_merged(self, where):
        text = (
            'local w = setmetatable({}, {__mode = "v"})\n'
            "w[1] = {}\n"
            "local p, m = 1, -1\n"
        ) + SIGNED_ZERO_PROGRAMS[where]
        obs = observations(load_program(text),
                           ExhaustiveExplorer("fin_weak", 100, "maximal", 20_000))
        assert not obs.truncated
        assert {json.loads(k)["v"][0]["v"] for k in obs.keys} == {
            math.inf, -math.inf}
        assert obs.revisits > 0

    def test_step_count_is_part_of_the_key(self, monkeypatch):
        calls = self.count_expansions(monkeypatch)
        obs = observations(load_program("local x = 1 while true do x = 1 end"),
                           ExhaustiveExplorer("simple", 30, "maximal", 20_000))
        assert obs.keys == {BOTTOM_FUEL}
        # the loop repeats its configuration every 5 steps, yet each step
        # count still expands its own; the unused globals table is
        # collected in place at the start, so one configuration per count
        # besides the start itself
        assert obs.collected == 1
        assert len(set(calls)) == 5 + 2
        assert len(calls) == 30 + 1
        assert obs.nodes == len(calls) + 1  # plus the one ⊥(fuel) leaf
        assert obs.revisits == 0

    def test_garbage_churn_expands_each_state_once(self, monkeypatch):
        calls = self.count_expansions(monkeypatch)
        obs = observations(
            load_program(corpus_text("deterministic/garbage_churn.lua")),
            self.EXPLORER,
        )
        assert len(obs) == 1 and not obs.truncated
        # no control flow reads a weak table, so every path takes the same
        # program steps and a configuration fixes its step count; with the
        # garbage collected in place there is one path, met once
        assert len(calls) == len(set(calls)) == 175
        assert obs.nodes == len(calls) + 1  # plus the final leaf
        assert obs.collected == 19
        assert obs.revisits == 0

    @pytest.mark.parametrize("rel,explorer", [
        ("finalizers/finalizer_order.lua", EXPLORER),
        ("finalizers/resurrection.lua",
         ExhaustiveExplorer("fin", 400, "subsets", 20_000)),
    ], ids=["finalizer_order", "resurrection_subsets"])
    def test_budget_no_longer_truncates(self, rel, explorer):
        obs = observations(load_program(corpus_text(rel)), explorer)
        assert len(obs) == 1 and not obs.truncated

    def test_nondet_weak_loop_completes(self):
        obs = observations(load_program(corpus_text("weak/nondet_weak_loop.lua")),
                           self.EXPLORER)
        assert not obs.truncated and len(obs) == 35

    @pytest.mark.parametrize("rel", CORPUS_PROGRAMS)
    def test_split_keys_decide_as_plugged_keys(self, rel, monkeypatch):
        """At every pop the split key's revisit decision equals the one the
        plugged key and store tuples made, each kept in a visited set of
        its own, and every frame's memoized hash is the one its context
        gives when hashed afresh from holed nodes built for the purpose."""
        real_key, real_same = executor._state_key, executor._same_zero_signs
        config = load_program(corpus_text(rel))
        for mode in ("simple", "fin", "fin_weak"):
            for granularity in ("maximal", "subsets"):
                visited: dict = {}
                oracle: dict = {}
                revisits = 0

                def key(s, steps):
                    nonlocal revisits
                    k = real_key(s, steps)
                    c = plugged(s)
                    seen = visited.setdefault(k, [])
                    seen_c = oracle.setdefault(oracle_state_key(c, steps), [])
                    again = any(real_same(v, k) for v in seen)
                    assert again == any(oracle_same_zero_signs(v, c)
                                        for v in seen_c)
                    if again:
                        revisits += 1
                    else:
                        seen.append(k)
                        seen_c.append(c)
                    h = 0
                    for f in k.frames:
                        assert interp.holed(f) == afresh(f)
                        h = hash((h, f.slot, f.idx, afresh(f)))
                        assert f._hash == h
                    return k

                monkeypatch.setattr(executor, "_state_key", key)
                obs = observations(config, ExhaustiveExplorer(
                    mode, 400, granularity, 20_000))
                assert revisits == obs.revisits
                assert len(visited) == len(oracle)

    def test_no_plug_per_pop(self, monkeypatch):
        """Exploring the benchmark's explore programs plugs no term but
        to splice a finalizer ahead of a final one."""
        plugs, finals = [], []
        real_plug, real_splice = interp.plug, executor._splice

        def counting(frames, t):
            plugs.append(len(frames))
            return real_plug(frames, t)

        def splice(d, cid, tid):
            finals.append(isinstance(d, Finished))
            return real_splice(d, cid, tid)

        monkeypatch.setattr(interp, "plug", counting)
        monkeypatch.setattr(executor, "plug", counting)
        monkeypatch.setattr(executor, "_splice", splice)
        workloads = perfbench_module("workloads")
        ops, _ = workloads.build("explore", 7, ROOT)
        for op in ops:
            mode, granularity = op.explorer
            observations(load_program(op.source), ExhaustiveExplorer(
                mode, workloads.STEP_BOUND, granularity,
                workloads.NODE_BUDGET))
        assert finals  # finalizers were spliced, ahead of no final term
        assert len(plugs) == sum(finals)


def recursion_program(depth: int) -> str:
    return (
        "local f = nil\n"
        "f = function(n) if n < 1 then return 0 end return f(n - 1) + 1 end\n"
        f"return f({depth})\n"
    )


def on_dispatch(m, hook) -> None:
    """Make every entry of the decomposition table, which ``_descend``
    dispatches through, call ``hook(node)`` first."""
    def wrap(entry):
        def hooked(t, frames):
            hook(t)
            return entry(t, frames)
        return hooked

    m.setattr(interp, "_DECOMPOSE",
              {ty: wrap(e) for ty, e in interp._DECOMPOSE.items()})


class TestRefocusing:
    """The scheduled driver refocuses from the hole after each step; its
    focus must always be the root decomposition of the term it stands for."""

    @pytest.mark.parametrize("schedule", [
        Schedule("never"), Schedule("eager", "fin_weak"),
    ], ids=["never", "eager_fin_weak"])
    @pytest.mark.parametrize("rel", CORPUS_PROGRAMS)
    def test_focus_is_the_root_decomposition(self, rel, schedule, monkeypatch):
        text = corpus_text(rel)
        real = executor.step
        # under `never` a root-decomposing loop is stepped in lockstep
        ref = load_program(text) if schedule.policy == "never" else None
        checked = 0

        def checking(state):
            nonlocal ref, checked
            assert isinstance(state, Focused)
            at = state.at
            term = plug(at.frames, at.term)
            assert term == state.term
            d = decompose(term)
            assert isinstance(d, Redex) and isinstance(at, Redex)
            assert (d.rule, d.term) == (at.rule, at.term)
            # a refocused frame still holds the old child in its hole slot,
            # which plug overwrites: compare the paths
            assert [(type(f.node), f.slot, f.idx) for f in d.frames] == [
                (type(f.node), f.slot, f.idx) for f in at.frames]
            if ref is not None:
                assert (term, state.sigma, state.theta) == (
                    ref.term, ref.sigma, ref.theta)
                ref = real(ref).config
            checked += 1
            return real(state)

        monkeypatch.setattr(executor, "step", checking)
        rec = run(load_program(text), schedule, fuel=2_000)
        assert checked == rec.steps > 0
        if ref is not None and rec.result.key != BOTTOM_FUEL:
            assert result(ref) == rec.result

    @staticmethod
    def dispatches_per_step(monkeypatch, depth: int) -> float:
        config = load_program(recursion_program(depth))
        calls = 0

        def count(t):
            nonlocal calls
            calls += 1

        with monkeypatch.context() as m:
            on_dispatch(m, count)
            rec = run(config, Schedule("never"), fuel=100_000)
        assert rec.result.kind == "return"
        return calls / rec.steps

    def test_descent_per_step_independent_of_depth(self, monkeypatch):
        shallow = self.dispatches_per_step(monkeypatch, 50)
        deep = self.dispatches_per_step(monkeypatch, 400)
        # every step refocuses, so each dispatches at least once
        assert shallow >= 1 and deep >= 1
        assert deep <= 1.5 * shallow

    @staticmethod
    def frames_read_per_step(monkeypatch, text: str) -> int:
        """The most frames one step of a ``never`` run of ``text`` reads
        (each read of a frame's node counts)."""
        base, node = interp.Frame, interp.Frame.node
        reads = most = 0

        class CountingFrame(base):
            __slots__ = ()

            @property
            def node(self):
                nonlocal reads
                reads += 1
                return node.__get__(self)

            @node.setter
            def node(self, n):
                node.__set__(self, n)

        real = executor.step

        def stepping(state):
            nonlocal reads, most
            reads = 0
            res = real(state)
            most = max(most, reads)
            return res

        with monkeypatch.context() as m:
            m.setattr(interp, "Frame", CountingFrame)
            m.setattr(executor, "step", stepping)
            rec = run(load_program(text), Schedule("never"), fuel=100_000)
        assert rec.result.kind == "return" and most > 0
        return most

    @pytest.mark.parametrize("program", [
        # the call sits under `depth` pending additions
        lambda depth: ("local f = function() return 1 end\nreturn "
                       + "0 + (" * depth + "f()" + ")" * depth + "\n"),
        recursion_program,
    ], ids=["call_under_additions", "recursion"])
    def test_return_reads_frames_to_its_call(self, monkeypatch, program):
        shallow = self.frames_read_per_step(monkeypatch, program(50))
        deep = self.frames_read_per_step(monkeypatch, program(400))
        assert deep <= shallow

    def test_deep_recursion_completes(self):
        rec = run(load_program(recursion_program(400)), Schedule("never"),
                  fuel=100_000)
        assert json.loads(rec.result.key)["v"] == [{"t": "num", "v": 400.0}]

    def test_deep_eager_recursion_completes(self):
        rec = run(load_program(recursion_program(400)),
                  Schedule("eager", "fin_weak"), fuel=100_000)
        assert json.loads(rec.result.key)["v"] == [{"t": "num", "v": 400.0}]

    def test_never_decomposes_from_the_root_once(self, monkeypatch):
        config = load_program(corpus_text("deterministic/recursion.lua"))
        calls = []
        real = interp.decompose
        monkeypatch.setattr(interp, "decompose",
                            lambda t: calls.append(t) or real(t))
        rec = run(config, Schedule("never"))
        assert rec.result.kind == "return" and rec.steps > 50
        assert len(calls) == 1


# Hand-written programs for the places where a finalizer marker enters or
# leaves the term other than by ``fin-done``.
MARKER_TRAPS = {
    # the table dies when the `and` drops it; the next redex is the deref
    # of `f`, so the call is spliced as a pending `FinWrap` argument
    "expression_splice": """
local mt = {__gc = function(o) print("fin") end}
local f = function(x) return x + 1 end
local y = (setmetatable({}, mt) and 1) + f(2)
return y
""",
    "finalizer_error_in_pcall": """
local mt = {__gc = function(o) error("boom") end}
local ok, err = pcall(function()
  local t = setmetatable({}, mt)
  t = nil
  return 1
end)
return ok, err
""",
    "finalizer_error_uncaught": """
local mt = {__gc = function(o) error("boom") end}
local t = setmetatable({}, mt)
t = nil
local x = 1
return x
""",
    # the thunk's `return` unwinds to its own call frame, inside `f`'s
    "return_through_thunk": """
local mt = {__gc = function(o) return 7 end}
local g = function(x) return x * 2 end
local f = function() return (setmetatable({}, mt) and 1) + g(20) end
return f()
""",
    # the argument dies with the call, so the drain splices the finalizer
    # around the addition
    "collectgarbage_in_expression": """
local mt = {__gc = function(o) print("fin") end}
local x = collectgarbage(setmetatable({}, mt)) + 1
return x
""",
    # list slots: a constructor's unevaluated fields hold locals (`Ref`s)
    # and closures over them
    "ctor_refs_and_closures": """
local a = {}
local b = {}
local f = function() return a end
local t = {a, {b}, function() return b end, f(), [a] = b, b}
return t[4] == a, t[a] == b
""",
    "ctor_nested": """
local a = {}
local t = {{a, {a, {}}}, {x = {a}, [a] = {{}, a}}, a}
return t[3] == t[1][1], t[2].x[1] == a
""",
    # the table dies when the `and` drops it; the finalizer thunk is
    # spliced at the deref of `f`, inside the constructor's next field
    "ctor_field_splice": """
local mt = {__gc = function(o) print("fin") end}
local f = function(x) return x + 1 end
local t = {(setmetatable({}, mt) and 1), f(2), 3}
return t[1] + t[2] + t[3]
""",
    "call_argument_splice": """
local mt = {__gc = function(o) print("fin") end}
local f = function(x) return x + 1 end
local g = function(x, y, z) return x + y + z end
return g((setmetatable({}, mt) and 1), f(2), 3)
""",
    "ctor_error_in_pcall": """
local a = {}
local ok, err = pcall(function()
  local t = {a, {a}, error("mid"), a, function() return a end}
  return t
end)
return ok, err
""",
    # a multi-value call anywhere but last is truncated to one value
    "multi_value_not_last": """
local a = {}
local two = function() return a, {a} end
local g = function(x, y, z, w) return w end
local h = function() return two(), a, two() end
local t = {two(), two(), a}
local r = g(two(), two(), two())
local p, q, s, u = h()
return t[2] == a, r[1] == a, s == a, u[1] == a
""",
}

STATE_SCHEDULES = [
    Schedule("eager", "fin_weak"),
    Schedule("eager", "fin"),
    Schedule("eager", "fin_weak", selector="random-subset"),
]


def occurrences_walked(t) -> tuple:
    """A term's occurrence counts and number of finalizer markers, by a
    walk of the whole term."""
    return (Counter(A.term_locations(t)),
            sum(isinstance(n, (A.FinStat, A.FinWrap)) for n in A.walk(t)))


def occurrences(state: Focused) -> tuple:
    """The occurrence counts and marker count a focused state keeps."""
    state.roots()
    occ = state._occurrences
    return dict(occ.counts), occ.markers


def program_text(name: str) -> str:
    return MARKER_TRAPS[name] if name in MARKER_TRAPS else corpus_text(name)


class TestStateDerivedFacts:
    """A cycle takes its root set and "a finalizer is in flight" from the
    focused state; both must equal the whole-term walks they replace."""

    @staticmethod
    def check_states(monkeypatch, markers: list) -> None:
        """Check every state the driver steps, collects or explores; record
        the marker kinds each one's term holds."""

        def check(state):
            term = plug(state.at.frames, state.at.term)
            assert state.roots() == set(A.term_locations(term))
            assert state.finalizer_in_flight == finalizer_in_flight(term)
            assert occurrences(state) == occurrences_walked(term)
            markers.append({type(n).__name__ for n in A.walk(term)
                            if isinstance(n, (A.FinStat, A.FinWrap))})

        for module, name in ((executor, "step"), (gc, "run_cycle"),
                             (executor, "enumerate_gc_steps")):
            def hook(state, *args, _real=getattr(module, name), **kwargs):
                check(state)
                return _real(state, *args, **kwargs)

            monkeypatch.setattr(module, name, hook)

    @pytest.mark.parametrize("schedule", STATE_SCHEDULES,
                             ids=["eager_fin_weak", "eager_fin",
                                  "eager_fin_weak_subset"])
    @pytest.mark.parametrize("rel", CORPUS_PROGRAMS + sorted(MARKER_TRAPS))
    def test_run_matches_term_walks(self, rel, schedule, monkeypatch):
        markers: list = []
        self.check_states(monkeypatch, markers)
        rec = run(load_program(program_text(rel)), schedule, fuel=2_000)
        # steps, cycles and end-of-program drain cycles were all checked
        assert len(markers) > rec.steps > 0

    @pytest.mark.parametrize("rel", CORPUS_PROGRAMS + sorted(MARKER_TRAPS))
    def test_explorer_matches_term_walks(self, rel, monkeypatch):
        markers: list = []
        self.check_states(monkeypatch, markers)
        obs = observations(load_program(program_text(rel)),
                           ExhaustiveExplorer("fin_weak", 400, "maximal",
                                              20_000))
        assert markers and obs.nodes > 0

    @pytest.mark.parametrize("name, marker, value", [
        ("expression_splice", "FinWrap", [{"t": "num", "v": 4.0}]),
        ("finalizer_error_in_pcall", "FinStat",
         [{"t": "bool", "v": False}, {"t": "str", "v": "boom"}]),
        ("finalizer_error_uncaught", "FinStat", [{"t": "str", "v": "boom"}]),
        ("return_through_thunk", "FinWrap", [{"t": "num", "v": 41.0}]),
        ("collectgarbage_in_expression", "FinWrap", [{"t": "num", "v": 1.0}]),
        ("ctor_field_splice", "FinWrap", [{"t": "num", "v": 7.0}]),
        ("call_argument_splice", "FinWrap", [{"t": "num", "v": 7.0}]),
    ])
    def test_trap_is_reached(self, name, marker, value, monkeypatch):
        markers: list = []
        self.check_states(monkeypatch, markers)
        rec = run(load_program(MARKER_TRAPS[name]), Schedule("eager", "fin"))
        assert any(marker in m for m in markers)
        assert json.loads(rec.result.key)["v"] == value

    @pytest.mark.parametrize("rel", CORPUS_PROGRAMS + sorted(MARKER_TRAPS))
    def test_summary_matches_term_walks(self, rel):
        # every node of the loaded term and of it with a call spliced in,
        # the locations in first-occurrence print order
        term = load_program(program_text(rel)).term
        for t in (term, splice_finalizer(term, 1, 1)):
            for n in A.walk(t):
                counts, markers = A.summary(n)
                assert (counts, markers) == occurrences_walked(n)
                assert list(counts) == list(dict.fromkeys(A.term_locations(n)))

    @staticmethod
    def summarized_per_cycle(monkeypatch, depth: int) -> float:
        config = load_program(recursion_program(depth))
        nodes = cycles = 0
        real_summarize, real_cycle = A._summarize, gc.run_cycle

        def summarize(n):
            nonlocal nodes
            nodes += 1
            return real_summarize(n)

        def cycle(*args, **kwargs):
            nonlocal cycles
            cycles += 1
            return real_cycle(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(A, "_summarize", summarize)
            m.setattr(gc, "run_cycle", cycle)
            rec = run(config, Schedule("eager", "fin_weak"), fuel=100_000)
        assert rec.result.kind == "return"
        return nodes / cycles

    def test_summaries_per_cycle_independent_of_depth(self, monkeypatch):
        shallow = self.summarized_per_cycle(monkeypatch, 50)
        deep = self.summarized_per_cycle(monkeypatch, 400)
        assert deep <= 1.5 * shallow

    def test_frame_shares_from_pushed_child(self, monkeypatch):
        """Every frame kind is reached, and a frame's share of the term, its
        node's summary without that of the child it was pushed over, is the
        summary of its node with an empty hole."""
        kinds = set()
        real_step = executor.step

        def hook(state, *args, **kwargs):
            for f in state.at.frames:
                holed = A.summary(interp._replace_child(f.node, f.slot, f.idx,
                                                        A.Empty()))
                node, child = A.summary(f.node), A.summary(f.child)
                share = Counter(node[0])
                share.subtract(child[0])
                assert +share == Counter(holed[0]) and -share == Counter()
                assert node[1] - child[1] == holed[1]
                kinds.add((type(f.node), f.slot))
            return real_step(state, *args, **kwargs)

        monkeypatch.setattr(executor, "step", hook)
        texts = [program_text(rel)
                 for rel in CORPUS_PROGRAMS + sorted(MARKER_TRAPS)]
        # no corpus program negates an expression that takes a step
        texts.append("local x = 1\nreturn -(x + 1)")
        for text in texts:
            run(load_program(text), Schedule("eager", "fin"), fuel=2_000)
        assert kinds == set(interp._PLUG)

    @staticmethod
    def counted_per_step(monkeypatch, depth: int) -> float:
        """Summary work per step of an eager run: nodes summarized, each
        with the children it reads, and the counts moved, each location of
        the summaries a step adds or subtracts."""
        config = load_program(recursion_program(depth))
        work = 0
        real_summarize = A._summarize
        real_move = interp._Occurrences.move

        def summarize(n):
            nonlocal work
            work += 1 + len(A.children(n))
            return real_summarize(n)

        def move(self, out, into, cut=()):
            nonlocal work
            work += sum(len(A.summary(t)[0])
                        for t in (out, into, *(x for f in cut
                                               for x in (f.node, f.child))))
            real_move(self, out, into, cut)

        with monkeypatch.context() as m:
            m.setattr(A, "_summarize", summarize)
            m.setattr(interp._Occurrences, "move", move)
            rec = run(config, Schedule("eager", "fin_weak"), fuel=100_000)
        assert rec.result.kind == "return"
        return work / rec.steps

    def test_frames_counted_per_step_independent_of_depth(self, monkeypatch):
        # the counts follow each step's redex, not the stack
        shallow = self.counted_per_step(monkeypatch, 50)
        deep = self.counted_per_step(monkeypatch, 400)
        assert deep <= 1.5 * shallow

    @staticmethod
    def traced_peak(depth: int) -> int:
        # each level's frame holds a reference to its own `n`
        config = load_program(
            "local f = nil\n"
            "f = function(n) if n < 1 then return 0 end"
            " return f(n - 1) + n end\n"
            f"return f({depth})\n")
        tracemalloc.start()
        try:
            rec = run(config, Schedule("eager", "fin_weak"), fuel=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.result.kind == "return"
        return peak

    def test_root_counts_take_memory_linear_in_depth(self):
        # a cumulative root set on every frame would grow quadratically
        assert self.traced_peak(600) <= 2.5 * self.traced_peak(300)

    # hand-built: no program puts a marker to the right of a list hole, or
    # in a `local`'s body while its expressions are evaluated
    @pytest.mark.parametrize("make", [
        lambda ref, mark: A.Return((ref, mark)),
        lambda ref, mark: A.Return((A.TableCtor((
            (A.Const(Num(1)), ref), (A.Const(Num(2)), mark))),)),
        lambda ref, mark: A.Local(("x",), (ref,), A.FinStat(A.Empty())),
    ], ids=["return_list", "constructor", "local_body"])
    def test_marker_after_a_list_hole(self, make):
        sigma, r = alloc_value(ValueStore(), Num(1))
        term = make(A.Ref(r), A.FinWrap(A.Const(Num(2))))
        state = Focused.of(Configuration(sigma, ObjectStore(), term))
        while True:
            term = plug(state.at.frames, state.at.term)
            assert state.roots() == set(A.term_locations(term))
            assert state.finalizer_in_flight == finalizer_in_flight(term)
            res = step(state)
            if isinstance(res, Finished):
                break
            state = res.state

    @staticmethod
    def work_per_step(monkeypatch, text: str) -> float:
        """Nodes summarized, each with the children it reads, plus
        decomposition dispatches, each with the sub-terms its scan may pass,
        per step of an eager run."""
        config = load_program(text)
        work = 0
        real_summarize = A._summarize

        def summarize(n):
            nonlocal work
            work += 1 + len(A.children(n))
            return real_summarize(n)

        def inspect(t):
            nonlocal work
            work += 1 + len(A.children(t))

        with monkeypatch.context() as m:
            m.setattr(A, "_summarize", summarize)
            on_dispatch(m, inspect)
            rec = run(config, Schedule("eager", "fin_weak"), fuel=100_000)
        assert rec.result.kind == "return"
        return work / rec.steps

    @pytest.mark.parametrize("program", [
        lambda n: ("local t = {" + ", ".join(f"{{f = {i}}}" for i in range(n))
                   + "}\nreturn t[1].f\n"),
        lambda n: "local a = {}\nreturn " + ", ".join(["a"] * n) + "\n",
    ], ids=["constructor", "return_list"])
    def test_work_per_step_independent_of_width(self, monkeypatch, program):
        narrow = self.work_per_step(monkeypatch, program(100))
        wide = self.work_per_step(monkeypatch, program(400))
        assert wide <= 1.5 * narrow

    def test_runs_plug_only_to_splice(self, monkeypatch):
        plugs = 0
        real = interp.plug

        def counting(frames, t):
            nonlocal plugs
            plugs += 1
            return real(frames, t)

        monkeypatch.setattr(interp, "plug", counting)
        monkeypatch.setattr(executor, "plug", counting)
        for rel in CORPUS_PROGRAMS + sorted(MARKER_TRAPS):
            config = load_program(program_text(rel))
            plugs = 0
            rec = run(config, Schedule("eager", "fin_weak"), fuel=2_000)
            splices = sum(e["kind"] == "finalize" for e in rec.trace)
            assert plugs <= splices + 1, rel


# programs whose unwinds cut frames holding the only occurrence of a
# location
UNWINDS = {
    # the break cuts `t[1] = n`, the only occurrence of `t`'s reference
    "break_drops_only_occurrence": """
local n = 0
while true do
  local t = {}
  n = n + 1
  if n > 0 then break end
  t[1] = n
end
return n
""",
    "return_from_nested_blocks": """
local f = function(a)
  local s = {a}
  while true do
    local u = {s}
    if a > 0 then
      do
        local v = {u}
        return v, s[1]
      end
    end
    u[1] = a
  end
end
local r, x = f(3)
return x
""",
    "error_caught_by_pcall": """
local keep = {}
local ok, e = pcall(function()
  local t = {keep}
  local g = function(x) error(x) end
  g(t)
  t[2] = keep
end)
return ok, e[1] == keep
""",
    "error_uncaught": """
local t = {}
local f = function(x) local y = {x} error("stop") return y end
local z = f(t)
return z
""",
}

UNWIND_RULES = {"break_drops_only_occurrence": "break",
                "return_from_nested_blocks": "return",
                "error_caught_by_pcall": "raise", "error_uncaught": "raise"}

# a finalizer spliced ahead of a statement, of an expression (as a pending
# `FinWrap` argument) and of the final term, after the result
SPLICES = {
    "statement": """
local mt = {__gc = function(o) print("fin") end}
local t = setmetatable({}, mt)
t = nil
local n = 1
n = n + 1
return n
""",
    "expression": MARKER_TRAPS["expression_splice"],
    "final": """
local mt = {__gc = function(o) print("fin") end}
local t = setmetatable({}, mt)
return (t and 1)
""",
}


class TestOccurrenceMoves:
    """A focused state's occurrence counts are moved by each step's redex,
    contractum and cut frames, and by each finalizer splice; they must
    equal the counts of a walk of the whole term, and the roots each step
    or collect reports lost must hold every root that went."""

    @staticmethod
    def check_lost(monkeypatch) -> None:
        """Every set of lost roots a machine takes holds every root that
        stopped occurring since it last took one."""
        real = Focused.lost_roots
        seen: dict = {}

        def lost_roots(state):
            lost = real(state)
            occ = state._occurrences
            now = set(occ.counts)
            if lost is not None:
                assert seen[id(occ)][1] - now <= lost
            seen[id(occ)] = (occ, now)
            return lost

        monkeypatch.setattr(Focused, "lost_roots", lost_roots)

    @pytest.mark.parametrize("name", sorted(UNWINDS))
    def test_step_moves_counts_exactly(self, name):
        state = Focused.of(load_program(UNWINDS[name]))
        assert state.lost_roots() is None  # counted afresh: nothing known
        lost_at_unwind = []
        while True:
            before = occurrences_walked(plug(state.at.frames, state.at.term))
            res = step(state)
            if isinstance(res, Finished):
                break
            state = res.state
            after = occurrences_walked(state.term)
            assert occurrences(state) == after
            lost = state.lost_roots()
            assert lost == set(before[0]) - set(after[0])
            if res.rule == UNWIND_RULES[name]:
                lost_at_unwind.append(lost)
        assert lost_at_unwind and all(lost_at_unwind)

    @pytest.mark.parametrize("schedule", STATE_SCHEDULES,
                             ids=["eager_fin_weak", "eager_fin",
                                  "eager_fin_weak_subset"])
    @pytest.mark.parametrize("name", sorted(UNWINDS))
    def test_run_moves_counts(self, name, schedule, monkeypatch):
        markers: list = []
        TestStateDerivedFacts.check_states(monkeypatch, markers)
        self.check_lost(monkeypatch)
        rec = run(load_program(UNWINDS[name]), schedule, fuel=2_000)
        assert rec.result.kind == ("error" if name == "error_uncaught"
                                   else "return")
        assert len(markers) > rec.steps

    @pytest.mark.parametrize("where", sorted(SPLICES))
    def test_splice_moves_counts(self, where, monkeypatch):
        markers: list = []
        TestStateDerivedFacts.check_states(monkeypatch, markers)
        self.check_lost(monkeypatch)
        spliced = []
        real = executor._splice

        def splice(d, cid, tid):
            spliced.append("final" if isinstance(d, Finished)
                           else "statement" if A.is_stat(d.term)
                           else "expression")
            return real(d, cid, tid)

        monkeypatch.setattr(executor, "_splice", splice)
        rec = run(load_program(SPLICES[where]), Schedule("eager", "fin"))
        assert spliced == [where] and rec.output == ["fin"]
        assert any(markers)

    def test_unwound_table_collected_next_cycle(self):
        # the break drops the last occurrence of `t`'s reference, so the
        # cycle before the next step discards it and its table
        rec = run(load_program(UNWINDS["break_drops_only_occurrence"]),
                  Schedule("eager", "fin_weak"), trace_steps=True)
        events = rec.trace
        brk = next(e["step"] for e in events
                   if e["kind"] == "l_step" and e["rule"] == "break")
        collected = [e for e in events if e["kind"] == "collect"
                     and e["step"] == brk + 1]
        assert collected and any(n.startswith("tid")
                                 for n in collected[0]["discarded"])


# weak-keyed entries whose value holds its own key: half the keys are held
# by a strong table, the others only through their own entry
EPHEMERON_SELF_KEYS = """
local keys = {{}, {}, {}, {}}
local eph = {}
setmetatable(eph, {__mode = "k"})
local i = 1
while i <= 4 do
  local k = keys[i]
  eph[k] = {w = i, own = k}
  local d = {}
  eph[d] = {w = 0, own = d}
  i = i + 1
end
return eph[keys[1]].w + eph[keys[4]].w
"""

# 12 objects with a printing finalizer, released at once
FINALIZER_CHAIN = """
local total = 0
local mt = {__gc = function(o)
  total = total + o.id
  print("fin", o.id)
end}
local head = nil
local i = 0
while i < 12 do
  head = {id = i, prev = head}
  setmetatable(head, mt)
  i = i + 1
end
head = nil
collectgarbage()
return total
"""

QUIESCENCE_PROGRAMS = {"ephemeron_self_keys": EPHEMERON_SELF_KEYS,
                       "finalizer_chain": FINALIZER_CHAIN}


# (skip, run) twins for each clause of ``gc.still_quiescent``, all under
# eager/fin_weak: globals keep the globals table a root, so each shape's
# only cycles are the first one and those its key statement forces
FIN_META = "{__gc = function(o) n = n + 1 end}"
CTOR_50 = "{" + ", ".join(["{}"] * 50) + "}"
MEMO_SHAPES = {
    # a new location must be a root: the constructor's tables are, until
    # the table that holds them is; a `local` nothing reads is not
    "ctor_50_fields": (f"t = {CTOR_50}", [""]),
    "unread_local": ("local k = 1", ["", "D"]),
    # a lost edge's target must be a root or one strong edge from one: the
    # old table is still held by the globals table, or by nothing
    "overwrite_still_held": ("x = {}\nh = x\nx = {}", [""]),
    "overwrite_last_holder": ("x = {}\nx = {}", ["", "D"]),
    # a changed table must have no metatable, before and after
    "store_into_strong": ("w = {}\nw[1] = true", [""]),
    "store_into_weak_values": (
        'w = setmetatable({}, {__mode = "v"})\nw[1] = {}',
        ["", "", "DC"]),
    # a cleared weak-values field may have held its key last: the cycle
    # that clears it is not quiescent, and the next one discards the key
    "store_into_weak_values_table_key": (
        'w = setmetatable({}, {__mode = "v"})\nw[{}] = {}',
        ["", "", "DC", "D"]),
    "setmetatable_nil": ("t = {}\nsetmetatable(t, nil)", [""]),
    "setmetatable_gc": (f"t = {{}}\nsetmetatable(t, {FIN_META})", ["", ""]),
    # a changed metatable's __mode must give the same weakness
    "metatable_field_set": (
        'm = {}\nt = setmetatable({}, m)\nm.x = "v"', ["", ""]),
    "metatable_mode_set": (
        'm = {}\nt = setmetatable({}, m)\nm.__mode = "v"', ["", "", ""]),
}


def found(o) -> str:
    """What a cycle found: D(iscarded), C(leared), F(inalizer selected)."""
    return ("D" * bool(o.discarded) + "C" * bool(o.cleared_weak_fields)
            + "F" * (o.marked_forbidden is not None))


class TestQuiescenceMemo:
    """``Machine.collect`` skips a cycle when ``gc.still_quiescent`` proves
    from the change since the last quiescent cycle that it would find
    nothing; every skipped cycle must be one that, run, would have found
    nothing, and the record must equal the run's with the memo off
    (``run_memo_checked``)."""

    @pytest.mark.parametrize("schedule", STATE_SCHEDULES,
                             ids=["eager_fin_weak", "eager_fin",
                                  "eager_fin_weak_subset"])
    @pytest.mark.parametrize("rel", CORPUS_PROGRAMS
                             + sorted(QUIESCENCE_PROGRAMS))
    def test_skipped_cycles_are_quiescent(self, rel, schedule):
        text = QUIESCENCE_PROGRAMS.get(rel) or corpus_text(rel)
        memo = run_memo_checked(load_program(text), schedule)
        assert memo.skipped

    @pytest.mark.parametrize("name", sorted(MEMO_SHAPES))
    def test_clause_shapes(self, name):
        """The first cycle runs; after it only the cycles the key
        statement forces do, and they find what they should."""
        body, expected = MEMO_SHAPES[name]
        text = f"n = 0\n{body}\nn = n + 1\nreturn n"
        memo = run_memo_checked(load_program(text),
                                Schedule("eager", "fin_weak"))
        assert [found(o) for o in memo.ran] == expected
        assert memo.skipped > 0


# `t` is the value of an ephemeron entry whose key `k` awaits its
# finalizer, so the entry is kept; once both are released, `t` is the
# candidate of highest priority, and as a weak table's value it is not
# selected: cycles change nothing and are not quiescent
BLOCKED_FINALIZER = """
local mt = {__gc = function(o) print("fin", o.id) end}
local w = setmetatable({}, {__mode = "k"})
local k = setmetatable({id = 1}, mt)
local t = setmetatable({id = 2}, mt)
w[k] = t
k, t = nil, nil
collectgarbage()
return w ~= nil
"""

EXPLORER_MEMO_PROGRAMS = {**QUIESCENCE_PROGRAMS,
                          "blocked_finalizer": BLOCKED_FINALIZER}


class TestExplorerMemo:
    """The explorer skips a node's cycle, and a drain's, when the memo its
    state inherited vouches (``gc.memo_vouches``); every skipped
    cycle must be one that, run, would have found nothing, and the
    observation set must equal the one with the memo off
    (``explore_memo_checked``)."""

    @pytest.mark.parametrize("granularity", ["maximal", "subsets"])
    @pytest.mark.parametrize("mode", ["fin", "fin_weak"])
    @pytest.mark.parametrize("rel", CORPUS_PROGRAMS
                             + sorted(EXPLORER_MEMO_PROGRAMS))
    def test_skipped_cycles_are_quiescent(self, rel, mode, granularity):
        # the two long programs are cut at smaller budgets: a node of their
        # subset explorations branches up to 2^12 ways
        text = EXPLORER_MEMO_PROGRAMS.get(rel) or corpus_text(rel)
        budget = 3_000
        if rel in QUIESCENCE_PROGRAMS:
            budget = 100 if granularity == "subsets" else 600
        memo = explore_memo_checked(
            load_program(text),
            ExhaustiveExplorer(mode, 400, granularity, budget))
        assert memo.skipped > 0

    def test_unchanged_cycle_need_not_be_quiescent(self):
        """``BLOCKED_FINALIZER`` has maximal cycles that change nothing
        and are not quiescent, so a node's unchanged cycle alone gives its
        plain successor no memo; the skips there are checked above."""
        seen = []
        real = gc.run_cycle

        def cycle(*args, **kwargs):
            o = real(*args, **kwargs)
            seen.append((o.changed, o.quiescent))
            return o

        with pytest.MonkeyPatch.context() as m:
            m.setattr(gc, "run_cycle", cycle)
            obs = observations(load_program(BLOCKED_FINALIZER),
                               ExhaustiveExplorer("fin_weak", 400, "maximal"))
        assert (False, False) in seen
        assert len(obs) == 1


# each asks for a drain, so a cycle runs in ``Machine.collect`` too
SINGLE_ENTRY_PROGRAMS = ["finalizers/finalizer_marking.lua",
                         "finalizers/finalizer_order.lua",
                         "finalizers/resurrection.lua",
                         "weak/ephemeron_self_key.lua"]


class TestSingleGcEntry:
    """A driver reaches a cycle one way: every ``run_cycle`` call, wherever
    a ``luagc`` module binds the function, comes from
    ``gc.enumerate_gc_steps`` or, for the explorer's other subsets,
    ``gc.subset_steps``."""

    @staticmethod
    def callers(monkeypatch) -> list:
        """For each cycle run, whether one of the two entries called it."""
        entries = {gc.enumerate_gc_steps.__code__, gc.subset_steps.__code__}
        real = gc.run_cycle
        calls = []

        def cycle(*args, **kwargs):
            calls.append(sys._getframe(1).f_code in entries)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "luagc" or name.startswith("luagc."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, cycle)
        return calls

    @pytest.mark.parametrize("selector", ["maximal", "random-subset"])
    @pytest.mark.parametrize("rel", SINGLE_ENTRY_PROGRAMS)
    def test_run(self, rel, selector, monkeypatch):
        calls = self.callers(monkeypatch)
        run(load_program(corpus_text(rel)),
            Schedule("eager", "fin_weak", seed=3, selector=selector))
        assert calls and all(calls)

    @pytest.mark.parametrize("granularity", ["maximal", "subsets"])
    @pytest.mark.parametrize("rel", SINGLE_ENTRY_PROGRAMS)
    def test_observations(self, rel, granularity, monkeypatch):
        calls = self.callers(monkeypatch)
        observations(load_program(corpus_text(rel)),
                     ExhaustiveExplorer("fin_weak", 400, granularity, 2_000))
        assert calls and all(calls)


def split_shape(d) -> tuple:
    """A split as what decides it: the frames' slots, then the redex's rule
    and term, or the final classification."""
    frames = tuple((type(f.node).__name__, f.slot, f.idx) for f in d.frames)
    if isinstance(d, Finished):
        return frames, d
    return frames, d.rule, d.term


FOCUS_EXPLORATIONS = {
    "finalizer_order": ("finalizers/finalizer_order.lua",
                        ExhaustiveExplorer("fin_weak", 400, "maximal", 20_000)),
    "resurrection_subsets": ("finalizers/resurrection.lua",
                             ExhaustiveExplorer("fin", 400, "subsets", 20_000)),
    "weak_cache": ("weak/weak_cache.lua",
                   ExhaustiveExplorer("fin_weak", 400, "maximal", 20_000)),
    "ephemeron_self_key": ("weak/ephemeron_self_key.lua",
                           ExhaustiveExplorer("fin_weak", 400, "maximal",
                                              20_000)),
}


class TestExplorerFocus:
    """Explorer nodes are focused states: each successor inherits its
    parent's split and occurrence counts, a GC successor as a copy of its
    own.  At every pop the split, the counts and the marker count must
    equal those derived from the node's term, and the exploration must
    decompose from the root once."""

    @pytest.mark.parametrize("name", sorted(FOCUS_EXPLORATIONS))
    def test_popped_states_match_their_terms(self, name, monkeypatch):
        rel, explorer = FOCUS_EXPLORATIONS[name]
        real_key, real_decompose = executor._state_key, interp.decompose
        popped, decomposed = [], []

        def key(s, steps):
            if type(s) is Focused:
                term = s.term
                assert plug(s.at.frames, s.at.term) == term
                assert split_shape(s.at) == split_shape(real_decompose(term))
                assert s._occurrences is not None  # inherited, not rebuilt
                assert occurrences(s) == occurrences_walked(term)
                popped.append(occurrences(s)[1])
            return real_key(s, steps)

        def counting(term):
            decomposed.append(term)
            return real_decompose(term)

        branched = []
        real_successor = executor._gc_successor

        def successor(state, o, mode, branch):
            if branch:  # the node steps as well
                branched.append(o.pending_finalizer is not None)
            return real_successor(state, o, mode, branch)

        monkeypatch.setattr(executor, "_state_key", key)
        monkeypatch.setattr(interp, "decompose", counting)
        monkeypatch.setattr(executor, "_gc_successor", successor)
        obs = observations(load_program(corpus_text(rel)), explorer)
        assert not obs.truncated and len(decomposed) == 1
        assert len(popped) >= obs.nodes - 1  # all but the root
        # nodes branched into a GC successor and a plain step; in the
        # finalizer programs the GC successor spliced its finalizer
        assert branched
        spliced = rel.startswith("finalizers/")
        assert any(branched) == any(popped) == spliced
