import json
from dataclasses import replace

import pytest

from luagc import executor, gc
from luagc.ast import Cid, Nil, Num, Str, Tid
from luagc.executor import ExhaustiveExplorer, Schedule, observations, run
from luagc.gc import (
    enumerate_gc_steps,
    next_priority,
    not_fin_val,
    run_cycle,
    set_fin,
    still_quiescent,
    strong_reach_set,
    subset_steps,
)
from luagc.heap import (
    FORBIDDEN,
    UNSET,
    ClosureObject,
    Configuration,
    ObjectStore,
    TableObject,
    ValueStore,
    _value_loc as loc,
    alloc_closure,
    alloc_table,
    alloc_value,
    index_metatable,
    is_marked,
    locations,
    restrict_stores,
    strong_edges,
    validate,
    weakness,
)
from luagc.interp import Finished, load_program, step

from heapgen import build_heap, closure_body, random_heap, term_of


def run_to_gc_request(text):
    """Advance a program to just after its first collectgarbage call."""
    config = load_program(text)
    while True:
        res = step(config)
        assert not isinstance(res, Finished)
        config = res.config
        if res.gc_request:
            return config


class TestSetFin:
    def theta_with(self, *tables):
        tbl = {i + 1: t for i, t in enumerate(tables)}
        return ObjectStore(tbl, {}, len(tables) + 1, 1)

    def test_forbidden_is_sticky(self):
        theta = self.theta_with(
            TableObject((), None, FORBIDDEN),
            TableObject(((Str("__gc"), Num(1)),)),
        )
        assert set_fin(1, Tid(2), theta) is FORBIDDEN
        assert set_fin(1, Nil(), theta) is FORBIDDEN

    def test_nil_metatable_unmarks(self):
        theta = self.theta_with(TableObject((), None, 3))
        assert set_fin(1, Nil(), theta) is UNSET

    def test_same_metatable_keeps_mark(self):
        meta = TableObject(((Str("__gc"), Num(1)),))
        theta = self.theta_with(TableObject((), 2, 7), meta)
        assert set_fin(1, Tid(2), theta) == 7

    def test_no_gc_field_unmarks(self):
        theta = self.theta_with(TableObject((), None, 4), TableObject(()))
        assert set_fin(1, Tid(2), theta) is UNSET

    def test_gc_field_marks_with_next_priority(self):
        meta = TableObject(((Str("__gc"), Num(1)),))
        theta = self.theta_with(TableObject(()), meta)
        assert set_fin(1, Tid(2), theta) == 1

    def test_priority_is_max_plus_one_ignoring_forbidden(self):
        meta = TableObject(((Str("__gc"), Num(1)),))
        theta = self.theta_with(
            TableObject(()),
            meta,
            TableObject((), None, 5),
            TableObject((), None, FORBIDDEN),
        )
        assert set_fin(1, Tid(2), theta) == 6
        assert next_priority(theta) == 6


class TestGcSimple:
    def test_fully_reachable_heap_untouched(self):
        c = build_heap({1: ("tid", 1)}, {1: {"fields": [(Num(1), ("cid", 1))]}},
                       {1: [("ref", 1)]}, [("ref", 1)])
        o = run_cycle(c, "simple")
        assert not o.discarded
        assert o.kept_sigma == c.sigma and o.kept_theta == c.theta

    def test_single_unreachable_binding_dropped(self):
        c = build_heap({1: None, 2: None}, {}, {}, [("ref", 1)])
        o = run_cycle(c, "simple")
        assert o.discarded == (("ref", 2),)

    def test_selector_half_still_consistent(self):
        c = build_heap({1: None, 2: None, 3: None, 4: None, 5: None},
                       {}, {}, [("ref", 5)])
        o = run_cycle(c, "simple", selector=lambda g: g[:2])
        assert len(o.discarded) == 2
        cfg = Configuration(o.kept_sigma, o.kept_theta, c.term)
        validate(cfg)

    def test_garbage_chain_kept_prefix_not_dangling(self):
        # r1 unreachable, points at t1; dropping only t1 would dangle r1
        c = build_heap({1: ("tid", 1)}, {1: {}}, {}, [])
        o = run_cycle(c, "simple", selector=lambda g: [("tid", 1)])
        assert o.discarded == ()  # proposal shrank to keep the store closed

    def test_unknown_mode_rejected(self):
        c = build_heap({1: None}, {}, {}, [("ref", 1)])
        with pytest.raises(ValueError, match="unknown gc mode 'weak'"):
            run_cycle(c, "weak")


class TestGcFin:
    def make_marked(self, pos1=1, pos2=2, gc_value=None):
        gc_value = gc_value if gc_value is not None else ("cid", 1)
        return build_heap(
            {},
            {
                1: {"fields": [], "meta": 3, "pos": pos1},
                2: {"fields": [], "meta": 3, "pos": pos2},
                3: {"fields": [(Str("__gc"), gc_value)]},
            },
            {1: []},
            [("tid", 3)],  # metatable stays reachable; 1 and 2 are garbage
        )

    def test_marked_tables_never_discarded(self):
        c = self.make_marked()
        o = run_cycle(c, "fin")
        assert ("tid", 1) not in o.discarded
        assert ("tid", 2) not in o.discarded

    def test_highest_priority_finalizes_first(self):
        c = self.make_marked(pos1=1, pos2=2)
        o = run_cycle(c, "fin")
        assert o.pending_finalizer == (1, 2)  # (cid, tid): table 2 first
        assert o.kept_theta.table(2).pos is FORBIDDEN
        assert is_marked(o.kept_theta.table(1).pos)

    def test_non_function_gc_skipped_silently(self):
        c = self.make_marked(pos2=2, gc_value=Str("oops"))
        o = run_cycle(c, "fin")
        assert o.pending_finalizer is None
        assert o.marked_forbidden == 2
        # next cycle can now collect it
        c2 = Configuration(o.kept_sigma, o.kept_theta, c.term)
        o2 = run_cycle(c2, "fin")
        assert o2.marked_forbidden == 1

    def test_data_reachable_from_marked_table_is_protected(self):
        # marked table holds a private table; both unreachable from the term
        c = build_heap(
            {},
            {
                1: {"fields": [(Num(1), ("tid", 2))], "meta": 3, "pos": 1},
                2: {},
                3: {"fields": [(Str("__gc"), ("cid", 1))]},
            },
            {1: []},
            [("tid", 3)],
        )
        o = run_cycle(c, "fin")
        assert ("tid", 2) not in o.discarded


class TestStrongEdges:
    def test_strong_table_all_collectibles(self):
        c = build_heap({}, {1: {"fields": [(Num(1), ("tid", 2))]}, 2: {}},
                       {}, [("tid", 1)])
        assert strong_edges(("tid", 1), c.sigma, c.theta) == (
            (None, ("tid", 2)),)

    def weak_table(self, mode):
        c = build_heap(
            {},
            {1: {"fields": [(("tid", 2), ("tid", 3))], "mode": mode},
             2: {}, 3: {}},
            {}, [("tid", 1)],
        )
        return strong_edges(("tid", 1), c.sigma, c.theta), (
            None, ("tid", c.theta.table(1).meta))

    def test_weak_values_keys_only(self):
        edges, meta = self.weak_table("v")
        assert edges == ((None, ("tid", 2)), meta)

    def test_weak_keys_pairs(self):
        edges, meta = self.weak_table("k")
        assert edges == ((("tid", 2), ("tid", 3)), meta)

    def test_fully_weak_only_the_metatable(self):
        edges, meta = self.weak_table("kv")
        assert edges == (meta,)


class TestGcFinWeak:
    def weak_value_heap(self):
        # t1 has weak values; its only value t2 has no other reference
        return build_heap(
            {},
            {1: {"fields": [(Num(1), ("tid", 2))], "mode": "v"}, 2: {}},
            {}, [("tid", 1)],
        )

    def test_weak_value_cleared_and_collected(self):
        c = self.weak_value_heap()
        o = run_cycle(c, "fin_weak")
        assert (1, Num(1.0), Tid(2)) in o.cleared_weak_fields
        assert ("tid", 2) in o.discarded
        assert not o.kept_theta.table(1).fields
        validate(Configuration(o.kept_sigma, o.kept_theta, c.term))

    def test_clearing_rebuilds_each_table_once(self, monkeypatch):
        # a weak-keys and a weak-values table, each with many fields to
        # clear and one to keep: one cycle builds one new object per
        # cleared table, keeping the other fields in order
        n = 300
        held = 10 + 2 * n
        c = build_heap(
            {1: ("tid", held)},
            {1: {"fields": [(("tid", 10 + i), Num(i)) for i in range(n)]
                 + [(("tid", held), Num(-1))], "mode": "k"},
             2: {"fields": [(Num(-1), ("tid", held))]
                 + [(Num(i), ("tid", 10 + n + i)) for i in range(n)],
                 "mode": "v"},
             **{10 + i: {} for i in range(2 * n + 1)}},
            {}, [("tid", 1), ("tid", 2), ("ref", 1)],
        )
        built = []
        real_init = TableObject.__init__

        def init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(TableObject, "__init__", init)
        o = run_cycle(c, "fin_weak")
        monkeypatch.undo()
        assert o.cleared_weak_fields == (
            [(1, Tid(10 + i), Num(i)) for i in range(n)]
            + [(2, Num(i), Tid(10 + n + i)) for i in range(n)])
        assert len(built) == 2
        assert o.kept_theta.table(1).fields == ((Tid(held), Num(-1)),)
        assert o.kept_theta.table(2).fields == ((Num(-1), Tid(held)),)

    def test_strongly_held_value_survives(self):
        c = build_heap(
            {1: ("tid", 2)},
            {1: {"fields": [(Num(1), ("tid", 2))], "mode": "v"}, 2: {}},
            {}, [("tid", 1), ("ref", 1)],
        )
        o = run_cycle(c, "fin_weak")
        assert not o.cleared_weak_fields
        assert o.kept_theta.table(1).fields

    def test_ephemeron_self_reference_cleared(self):
        # weak-keys table, value holds its own key, no external key ref
        c = build_heap(
            {},
            {1: {"fields": [(("tid", 2), ("tid", 3))], "mode": "k"},
             2: {},
             3: {"fields": [(Num(1), ("tid", 2))]}},
            {}, [("tid", 1)],
        )
        o = run_cycle(c, "fin_weak")
        assert len(o.cleared_weak_fields) == 1
        assert ("tid", 2) in o.discarded and ("tid", 3) in o.discarded

    def test_ephemeron_external_key_survives(self):
        c = build_heap(
            {1: ("tid", 2)},
            {1: {"fields": [(("tid", 2), ("tid", 3))], "mode": "k"},
             2: {},
             3: {"fields": [(Num(1), ("tid", 2))]}},
            {}, [("tid", 1), ("ref", 1)],
        )
        o = run_cycle(c, "fin_weak")
        assert not o.cleared_weak_fields
        assert not o.discarded

    def test_finalizer_protected_key_retained(self):
        # the key is marked for finalization: the field must wait for it
        c = build_heap(
            {},
            {
                1: {"fields": [(("tid", 2), ("tid", 3))], "mode": "k"},
                2: {"meta": 4, "pos": 1},
                3: {},
                4: {"fields": [(Str("__gc"), ("cid", 1))]},
            },
            {1: []},
            [("tid", 1), ("tid", 4)],
        )
        o = run_cycle(c, "fin_weak")
        assert not o.cleared_weak_fields  # retained until finalized
        assert o.kept_theta.table(1).fields
        # and the value it guards stays alive
        assert ("tid", 3) not in o.discarded
        validate(Configuration(o.kept_sigma, o.kept_theta, c.term))

    def test_not_fin_val_defers_finalization(self):
        # t2 is marked and unreachable but sits as a value of weak table t1
        c = build_heap(
            {},
            {
                1: {"fields": [(Num(1), ("tid", 2))], "mode": "v"},
                2: {"meta": 4, "pos": 1},
                4: {"fields": [(Str("__gc"), ("cid", 1))]},
            },
            {1: []},
            [("tid", 1), ("tid", 4)],
        )
        assert not not_fin_val(2, c.theta)
        o = run_cycle(c, "fin_weak")
        assert o.pending_finalizer is None
        # the field is cleared this cycle; next cycle runs the finalizer
        assert o.cleared_weak_fields
        c2 = Configuration(o.kept_sigma, o.kept_theta, c.term)
        o2 = run_cycle(c2, "fin_weak")
        assert o2.pending_finalizer == (1, 2)

    def test_fin_mode_finalizes_weak_table_value(self):
        # without weak tables in force the guard does not apply: t2 sits in
        # unreachable t1 and is finalized at once
        c = build_heap(
            {},
            {
                1: {"fields": [(Num(1), ("tid", 2))], "mode": "v"},
                2: {"meta": 4, "pos": 1},
                4: {"fields": [(Str("__gc"), ("cid", 1))]},
            },
            {1: []},
            [("tid", 4)],
        )
        assert run_cycle(c, "fin").pending_finalizer == (1, 2)
        assert run_cycle(c, "fin_weak").pending_finalizer is None

    def test_degenerate_matches_simple(self):
        # no weakness, no marks: fin_weak and simple agree
        c = build_heap(
            {1: ("tid", 1), 2: None},
            {1: {"fields": [(Num(1), ("cid", 1))]}, 2: {}},
            {1: []},
            [("ref", 1)],
        )
        a, b = run_cycle(c, "simple"), run_cycle(c, "fin_weak")
        assert set(a.discarded) == set(b.discarded)
        assert a.kept_sigma == b.kept_sigma
        assert a.kept_theta == b.kept_theta

    def test_weakness_derived_once_per_table(self, monkeypatch):
        # every weakness reader has work: an ephemeron with a marked key
        # (retained value), a weak-values field to clear, a strong table,
        # and a finalization candidate checked against weak values.  Each
        # metatable's __mode is read once, however many cycles ask.
        c = build_heap(
            {},
            {
                1: {"fields": [(("tid", 2), ("tid", 3))], "mode": "k"},
                2: {"meta": 4, "pos": 1},
                3: {},
                4: {"fields": [(Str("__gc"), ("cid", 1))]},
                5: {"fields": [(Num(1), ("tid", 6))], "mode": "v"},
                6: {},
                7: {"fields": [(Num(1), ("tid", 5)), (Num(2), ("tid", 1))]},
            },
            {1: []},
            [("tid", 7), ("tid", 4)],
        )
        calls = []
        real = TableObject.get

        def counting(self, key):
            if key == Str("__mode"):
                calls.append(id(self))
            return real(self, key)

        monkeypatch.setattr(TableObject, "get", counting)
        for _ in range(2):
            o = run_cycle(c, "fin_weak")
            assert o.cleared_weak_fields and o.pending_finalizer == (1, 2)
        metatables = {id(c.theta.table(t.meta))
                      for t in c.theta.tables.values() if t.meta is not None}
        assert calls and set(calls) <= metatables
        assert len(calls) == len(set(calls))


class TestEnumerate:
    def test_garbage_free_heap_no_steps(self):
        c = build_heap({1: None}, {}, {}, [("ref", 1)])
        assert enumerate_gc_steps(c, "simple") == []

    def test_single_garbage_single_maximal_outcome(self):
        c = build_heap({1: None, 2: None}, {}, {}, [("ref", 1)])
        outs = enumerate_gc_steps(c, "simple")
        assert len(outs) == 1 and outs[0].discarded == (("ref", 2),)

    def test_selector_reaches_the_one_cycle(self, monkeypatch):
        # a schedule's selector goes to the cycle that runs, and it is the
        # only cycle: a subset that changes something is the one outcome
        c = build_heap({1: None, 2: None, 3: None}, {}, {}, [("ref", 3)])
        selectors = []
        real = gc.run_cycle

        def cycle(state, mode, selector=None, **kwargs):
            selectors.append(selector)
            return real(state, mode, selector, **kwargs)

        monkeypatch.setattr(gc, "run_cycle", cycle)
        first = lambda g: g[:1]  # noqa: E731
        outs = enumerate_gc_steps(c, "simple", selector=first)
        assert selectors == [first]
        assert [o.discarded for o in outs] == [(("ref", 1),)]
        assert enumerate_gc_steps(c, "simple", selector=lambda g: []) == []

    def test_two_independent_garbage_three_subsets(self):
        c = build_heap({1: None, 2: None, 3: None}, {}, {}, [("ref", 3)])
        outs = subset_steps(c, run_cycle(c, "simple"), "simple")
        chosen = sorted(tuple(sorted(o.discarded)) for o in outs)
        assert chosen == [
            (("ref", 1),),
            (("ref", 1), ("ref", 2)),
            (("ref", 2),),
        ]

    def test_dependent_garbage_subsets_closed(self):
        # r1 -> t1: discarding t1 alone would leave r1 dangling
        c = build_heap({1: ("tid", 1)}, {1: {}}, {}, [])
        outs = subset_steps(c, run_cycle(c, "simple"), "simple")
        chosen = sorted(tuple(sorted(o.discarded)) for o in outs)
        assert chosen == [
            (("ref", 1),),
            (("ref", 1), ("tid", 1)),
        ]


class TestInterpreterIntegration:
    def test_gc_cycle_after_collectgarbage_request(self):
        config = run_to_gc_request(
            "local keep = {}\n"
            "do local scratch = {1, 2} keep.n = scratch[1] end\n"
            "collectgarbage()\n"
            "return keep.n\n"
        )
        o = run_cycle(config, "simple")
        assert o.discarded  # the scratch table and its ref are garbage
        validate(Configuration(o.kept_sigma, o.kept_theta, config.term))


def fixpoint_discard(proposal, sigma, theta, cleared):
    """A selector's proposal shrunk until no location outside it points
    into it, table fields in ``cleared`` (``(tid, field index)`` pairs)
    not counting: the rescan-until-stable form of the discard."""
    def edges(kind, i):
        if kind == "ref":
            return [loc(sigma.bindings[i])]
        if kind == "cid":
            return list(theta.closure(i).locations())
        obj = theta.table(i)
        fields = [loc(x) for idx, kv in enumerate(obj.fields)
                  if (i, idx) not in cleared for x in kv]
        return fields + [("tid", obj.meta)] * (obj.meta is not None)

    discard = set(proposal)
    changed = True
    while changed:
        changed = False
        for l in locations(sigma, theta):
            if l not in discard:
                for n in edges(*l):
                    if n in discard:
                        discard.remove(n)
                        changed = True
    return discard


class TestGcInvariants:
    """Store-level properties every cycle must satisfy."""

    def heaps(self):
        import random

        from heapgen import random_heap

        rng = random.Random(777)
        return [random_heap(rng, max_locs=10, weak=True) for _ in range(150)]

    def test_reachable_bindings_kept_exactly(self):
        from luagc.gc import reach_set

        for c in self.heaps():
            reached = reach_set(c.term, c.sigma, c.theta)
            o = run_cycle(c, "simple")
            for kind, i in reached:
                if kind == "ref":
                    assert o.kept_sigma.bindings[i] == c.sigma.bindings[i]
                elif kind == "tid":
                    assert o.kept_theta.table(i) == c.theta.table(i)
                else:
                    assert o.kept_theta.closure(i) == c.theta.closure(i)
            # nothing reachable was discarded
            assert not (set(o.discarded) & reached)

    def test_discarded_is_unreachable(self):
        # simple and fin discard only plainly-unreachable locations;
        # fin_weak discards anything not strongly reachable
        from luagc.gc import reach_set

        for c in self.heaps():
            for mode in ("simple", "fin"):
                o = run_cycle(c, mode)
                for loc in o.discarded:
                    assert loc not in reach_set(c.term, c.sigma, c.theta)
            o = run_cycle(c, "fin_weak")
            strong = strong_reach_set(c.term, c.sigma, c.theta)
            for loc in o.discarded:
                assert loc not in strong

    def test_maximal_cycles_reach_fixpoint(self):
        for c in self.heaps():
            config = c
            for steps in range(40):
                o = run_cycle(config, "fin_weak")
                if not o.changed:
                    break
                config = Configuration(o.kept_sigma, o.kept_theta, config.term)
            else:
                pytest.fail("gc cycles did not reach a fixpoint")
            validate(config)

    def test_outcomes_preserve_well_formedness(self):
        for c in self.heaps():
            for mode in ("simple", "fin", "fin_weak"):
                o = run_cycle(c, mode)
                validate(Configuration(o.kept_sigma, o.kept_theta, c.term))

    @pytest.mark.parametrize("mode", ["simple", "fin", "fin_weak"])
    def test_selector_discard_matches_fixpoint(self, mode):
        import random

        rng = random.Random(2024)
        for c in self.heaps():
            tables = dict(c.theta.tables)
            for prio, i in enumerate(rng.sample(sorted(tables), len(tables) // 3)):
                tables[i] = replace(tables[i], pos=prio + 1)
            theta = ObjectStore(tables, c.theta.closures, c.theta.next_tid,
                                c.theta.next_cid)
            c = Configuration(c.sigma, theta, c.term)
            proposal = []

            def selector(garbage):
                proposal[:] = [l for l in garbage if rng.random() < 0.5]
                return proposal

            o = run_cycle(c, mode, selector=selector)
            # a clear removes every field with the cleared key
            cleared = {(i, idx) for i, key, _ in o.cleared_weak_fields
                       for idx, (k, _) in enumerate(theta.table(i).fields)
                       if k == key}
            assert set(o.discarded) == fixpoint_discard(
                proposal, c.sigma, theta, cleared)


# __mode is retagged after setmetatable: "k", then "v", then nil
RETAG_PROGRAM = """
local m = {}
local t = {}
setmetatable(t, m)
local a = {}
local b = {}
m.__mode = "k"
t[a] = 1
t[1] = {}
a = nil
m.__mode = "v"
t[2] = {}
m.__mode = nil
t[b] = 3
t[3] = {}
b = nil
return t[1] == nil, t[2] == nil, t[3] == nil, t
"""


def without_memos(theta: ObjectStore) -> ObjectStore:
    """The store with each table rebuilt, so nothing is memoized yet."""
    return ObjectStore(
        {i: TableObject(t.fields, t.meta, t.pos) for i, t in theta.tables.items()},
        theta.closures, theta.next_tid, theta.next_cid,
    )


def collectible(v) -> bool:
    return isinstance(v, (Tid, Cid))


def field_by_field(tid: int, theta: ObjectStore):
    """Weakness, plain targets and strong edges read from the fields
    directly."""
    mode = index_metatable(tid, "__mode", theta)
    s = mode.s if isinstance(mode, Str) else ""
    w = {(False, False): "strong", (True, False): "wk",
         (False, True): "wv", (True, True): "wkv"}["k" in s, "v" in s]
    table = theta.table(tid)
    plain, strong = [], []
    for k, v in table.fields:
        plain += [loc(x) for x in (k, v) if collectible(x)]
        if w == "wk" and collectible(v):
            strong.append((loc(k), loc(v)))
        if w in ("strong", "wv") and collectible(k):
            strong.append((None, loc(k)))
        if w == "strong" and collectible(v):
            strong.append((None, loc(v)))
    if table.meta is not None:
        plain.append(("tid", table.meta))
        strong.append((None, ("tid", table.meta)))
    return w, tuple(dict.fromkeys(plain)), tuple(dict.fromkeys(strong))


class TestTableMemos:
    """A table memoizes its edges and, as a metatable, the weakness it
    gives; neither may go stale or change what equality and hashing see."""

    def test_retagged_metatable_clears_by_current_mode(self, monkeypatch):
        clears = []
        real = gc.run_cycle

        def cycle(state, mode, *args, **kwargs):
            o = real(state, mode, *args, **kwargs)
            fresh = Configuration(state.sigma, without_memos(state.theta),
                                  state.term)
            again = real(fresh, mode, *args, **kwargs)
            assert again.cleared_weak_fields == o.cleared_weak_fields
            assert again.discarded == o.discarded
            for tid, k, v in o.cleared_weak_fields:
                mode_now = index_metatable(tid, "__mode", state.theta)
                clears.append((mode_now.s, collectible(k), collectible(v)))
            return o

        monkeypatch.setattr(gc, "run_cycle", cycle)
        rec = run(load_program(RETAG_PROGRAM), Schedule("eager", "fin_weak"))
        monkeypatch.undo()
        # t[a] under "k"; t[1] and t[2] under "v"; nothing once strong
        assert clears == [("k", True, False), ("v", False, True),
                          ("v", False, True)]
        assert [v["v"] for v in json.loads(rec.result.key)["v"][:3]] == [
            True, True, False]
        # what `observe --explorer exhaustive=400 --mode fin-weak` explores
        obs = observations(load_program(RETAG_PROGRAM),
                           ExhaustiveExplorer("fin_weak", 400))
        assert not obs.truncated and len(obs) > 1
        assert rec.result.key in obs.keys

    def test_memo_ignored_by_equality_and_hashing(self):
        c = build_heap(
            {1: ("tid", 1)},
            {1: {"fields": [(("tid", 2), ("tid", 3)), (Num(1), ("cid", 1))],
                 "mode": "k"},
             2: {}, 3: {"fields": [(Num(1), ("tid", 1))]}},
            {1: [("ref", 1)]}, [("ref", 1)],
        )
        fresh = without_memos(c.theta)
        for i, t in c.theta.tables.items():
            t.edges, t.mode_weakness
            assert "edges" in vars(t) and "edges" not in vars(fresh.table(i))
            assert t == fresh.table(i) and hash(t) == hash(fresh.table(i))
        d = Configuration(c.sigma, fresh, c.term)
        assert executor._state_key(c, 3) == executor._state_key(d, 3)
        assert hash(executor._state_key(c, 3)) == hash(executor._state_key(d, 3))
        # the stores' ordered keys and the tables' hashes are memos too
        sigma, theta = c.sigma, c.theta
        assert "_hash" in vars(theta.table(1))
        for store in (sigma, theta):
            assert "key" in vars(store) and "key_hash" in vars(store)
        bare_sigma = ValueStore(dict(sigma.bindings), sigma.next_id)
        bare_theta = ObjectStore(dict(theta.tables), dict(theta.closures),
                                 theta.next_tid, theta.next_cid)
        assert sigma == bare_sigma and theta == bare_theta
        for store, bare in ((sigma, bare_sigma), (theta, bare_theta)):
            assert "key" not in vars(bare)
            assert (store.key, store.key_hash) == (bare.key, bare.key_hash)
        # no write carries them
        t = theta.table(1)
        stores = [
            sigma.bind(1, Num(2)), alloc_value(sigma, Num(2))[0],
            alloc_table(theta, ())[0],
            alloc_closure(theta, (), theta.closure(1).body)[0],
            theta.put_table(1, t),
            *restrict_stores(sigma, theta, {("tid", 2)}),
            replace(sigma, next_id=sigma.next_id + 1),
            replace(theta, next_tid=theta.next_tid + 1),
        ]
        for store in stores:
            assert "key" not in vars(store) and "key_hash" not in vars(store)
        for table in (t.set(Num(1), Num(2)), t.without_fields([0]),
                      replace(t, meta=None)):
            assert "_hash" not in vars(table)
            assert hash(table) == hash(TableObject(table.fields, table.meta,
                                                   table.pos))

    def test_writes_do_not_carry_the_memo(self):
        m = TableObject(((Str("__mode"), Str("k")), (Tid(2), Tid(3))))
        assert m.mode_weakness == "wk" and m.edges == (
            (1, ("tid", 2), ("tid", 3)),)
        for new in (m.set(Str("__mode"), Str("v")),
                    replace(m, fields=((Str("__mode"), Str("v")),
                                       (Tid(2), Tid(3))))):
            assert new.mode_weakness == "wv"
        for new in (m.set(Tid(2), Cid(4)), m.set(Num(1), Tid(5)),
                    m.without_fields([1]), replace(m, fields=m.fields[:1])):
            assert new.edges == tuple(
                (idx, loc(k), loc(v)) for idx, (k, v) in enumerate(new.fields)
                if collectible(k) or collectible(v))
        assert m.set(Str("__mode"), Nil()).mode_weakness == "strong"

    def test_memos_match_field_by_field_derivation(self):
        import random

        from heapgen import random_heap

        rng = random.Random(4242)
        for _ in range(300):
            c = random_heap(rng, max_locs=12, weak=True)
            for _ in range(2):  # the second pass reads the memos
                for i in c.theta.tables:
                    w, plain, strong = field_by_field(i, c.theta)
                    assert weakness(i, c.theta) == w
                    assert c.theta.table(i).targets == plain
                    assert strong_edges(("tid", i), c.sigma, c.theta) == strong


def edit_heap(rng, c: Configuration, edits: int) -> Configuration:
    """``c`` after random well-formed edits of the kinds a program step
    makes: roots dropped and added, references, fields, metatables,
    ``__mode`` fields and marks overwritten, and new references, tables
    and closures, rooted or not."""
    sigma = dict(c.sigma.bindings)
    tables = dict(c.theta.tables)
    closures = dict(c.theta.closures)
    roots = set(c.roots())
    next_ref, next_tid, next_cid = (c.sigma.next_id, c.theta.next_tid,
                                    c.theta.next_cid)

    def value(leaf):
        pool = [Tid(i) for i in tables] + [Cid(i) for i in closures]
        return rng.choice(pool + [leaf])

    for _ in range(edits):
        locs = ([("ref", r) for r in sigma] + [("tid", i) for i in tables]
                + [("cid", i) for i in closures])
        kind = rng.choice(["drop_root", "add_root", "ref", "field", "field",
                           "meta", "mode", "mark", "new_ref", "new_table",
                           "new_closure"])
        t = rng.choice(sorted(tables)) if tables else None
        if kind == "drop_root" and roots:
            roots.discard(rng.choice(sorted(roots)))
        elif kind == "add_root" and locs:
            roots.add(rng.choice(locs))
        elif kind == "ref" and sigma:
            sigma[rng.choice(sorted(sigma))] = value(Num(0.0))
        elif kind == "field" and t is not None:
            key = value(rng.choice([Num(1.0), Num(2.0)]))
            new = value(rng.choice([Nil(), Str("x")]))
            tables[t] = tables[t].set(key, new)
        elif kind == "meta" and t is not None:
            tables[t] = replace(tables[t],
                                meta=rng.choice([None] + sorted(tables)))
        elif kind == "mode" and t is not None:
            mode = rng.choice([Str("k"), Str("v"), Str("kv"), Str("x"), Nil()])
            tables[t] = tables[t].set(Str("__mode"), mode)
        elif kind == "mark" and t is not None:
            top = max([o.pos for o in tables.values() if is_marked(o.pos)],
                      default=0)
            tables[t] = replace(tables[t],
                                pos=rng.choice([UNSET, FORBIDDEN, top + 1]))
        elif kind == "new_ref":
            sigma[next_ref] = value(Num(0.0))
            if rng.random() < 0.7:
                roots.add(("ref", next_ref))
            next_ref += 1
        elif kind == "new_table":
            fields = {value(Num(float(i))): value(Str("x")) for i in range(3)}
            tables[next_tid] = TableObject(tuple(fields.items()))
            if rng.random() < 0.7:
                roots.add(("tid", next_tid))
            next_tid += 1
        elif kind == "new_closure":
            caps = rng.sample(locs, min(len(locs), rng.randint(0, 2)))
            closures[next_cid] = ClosureObject((), closure_body(caps))
            if rng.random() < 0.7:
                roots.add(("cid", next_cid))
            next_cid += 1
    return Configuration(ValueStore(sigma, next_ref),
                         ObjectStore(tables, closures, next_tid, next_cid),
                         term_of(sorted(roots)))


class TestStillQuiescent:
    """``still_quiescent`` on stores: every state it accepts after random
    edits of a quiescent heap must have a cycle that finds nothing, and it
    rejects the changes a program step cannot make."""

    @pytest.mark.parametrize("mode", ["simple", "fin", "fin_weak"])
    def test_accepted_edits_are_quiescent(self, mode):
        import random

        rng = random.Random(1313)
        accepted = rejected = 0
        for _ in range(600):
            c = edit_heap(rng, random_heap(rng, max_locs=10, weak=True), 4)
            base = run_cycle(c, mode)
            if not base.quiescent:
                continue
            c0 = Configuration(base.kept_sigma, base.kept_theta, c.term)
            assert run_cycle(c0, mode).quiescent
            c1 = edit_heap(rng, c0, rng.randint(1, 3))
            validate(c1)
            if still_quiescent(c0.sigma, c0.theta, c0.roots(), c1):
                o = run_cycle(c1, mode)
                assert o.quiescent and not o.changed
                accepted += 1
            else:
                rejected += 1
        assert accepted > 50 and rejected > 50

    BASE = build_heap({1: ("tid", 1)},
                      {1: {"fields": [(Num(1.0), ("tid", 2))]}, 2: {}},
                      {1: [("ref", 1)]}, [("ref", 1), ("cid", 1)])
    TABLES = BASE.theta.tables

    @pytest.mark.parametrize("tables, closures, new_root, ok", [
        (None, None, None, True),
        ({1: TableObject(())}, None, None, False),
        (None, {1: ClosureObject(("x",), closure_body([]))}, None, False),
        ({**TABLES, 3: TableObject(())}, None, ("tid", 3), True),
        ({**TABLES, 3: TableObject((), meta=2)}, None, ("tid", 3), False),
        ({**TABLES, 3: TableObject((), pos=1)}, None, ("tid", 3), False),
    ], ids=["unchanged", "table_removed", "closure_replaced", "new_table",
            "new_table_with_metatable", "new_table_marked"])
    def test_store_clauses(self, tables, closures, new_root, ok):
        base, theta = self.BASE, self.BASE.theta
        assert run_cycle(base, "fin_weak").quiescent
        c = Configuration(
            base.sigma,
            ObjectStore(tables or theta.tables, closures or theta.closures,
                        theta.next_tid + 1, theta.next_cid + 1),
            term_of([("ref", 1), ("cid", 1)] + [new_root] * bool(new_root)))
        assert still_quiescent(base.sigma, theta, base.roots(), c) == ok

    @pytest.mark.parametrize("allow", [True, False],
                             ids=["finalizer_allowed", "finalizer_in_flight"])
    @pytest.mark.parametrize("mode", ["simple", "fin", "fin_weak"])
    def test_quiescent_cycle_leaves_nothing(self, mode, allow):
        """From a quiescent cycle's kept stores and the same roots, a cycle
        finds nothing: also after it cleared weak fields, and while a
        finalizer in flight holds candidates back."""
        import random

        rng = random.Random(2718)
        cleared = held = 0
        for _ in range(400):
            # the edits mark tables for finalization, as no random heap does
            c = edit_heap(rng, random_heap(rng, max_locs=10, weak=True), 4)
            o = run_cycle(c, mode, allow_finalizer=allow)
            assert not (o.held_for_flight and allow)
            if not o.quiescent:
                continue
            cleared += bool(o.cleared_weak_fields)
            held += o.held_for_flight
            c0 = Configuration(o.kept_sigma, o.kept_theta, c.term)
            again = run_cycle(c0, mode, allow_finalizer=allow)
            assert again.quiescent and not again.changed
            assert again.held_for_flight == o.held_for_flight
        assert cleared > 0 if mode == "fin_weak" else not cleared
        assert held > 0 if mode != "simple" and not allow else not held

    def test_cleared_weak_value_leaves_key_garbage(self):
        """A weak-values field is cleared while its key is reached only
        through it; the cycle is not quiescent, as the key is garbage
        once the field is gone."""
        c = build_heap({}, {1: {"fields": [(("tid", 2), ("tid", 3))],
                                "mode": "v"}, 2: {}, 3: {}},
                       {}, [("tid", 1)])
        o = run_cycle(c, "fin_weak")
        assert o.cleared_weak_fields and o.discarded == (("tid", 3),)
        assert not o.quiescent
        c0 = Configuration(o.kept_sigma, o.kept_theta, c.term)
        assert run_cycle(c0, "fin_weak").discarded == (("tid", 2),)

    def test_ephemeron_value_is_not_one_strong_edge(self):
        """An ephemeron value is reached only once its key is; here the
        key hangs off the value itself, so both become garbage when the
        reference to the value is overwritten."""
        c0 = build_heap({1: ("tid", 2)},
                        {1: {"fields": [(("tid", 3), ("tid", 2))],
                             "mode": "k"},
                         2: {"fields": [(Num(1.0), ("tid", 3))]}, 3: {}},
                        {}, [("ref", 1), ("tid", 1)])
        assert run_cycle(c0, "fin_weak").quiescent
        c1 = Configuration(ValueStore({1: Num(0.0)}, c0.sigma.next_id),
                           c0.theta, c0.term)
        assert run_cycle(c1, "fin_weak").discarded == (("tid", 2),
                                                        ("tid", 3))
        assert not still_quiescent(c0.sigma, c0.theta, c0.roots(), c1)
