"""The recursive reachability definitions against the worklist oracles.

The recursive forms consume store bindings (or field occurrences) as they
descend; the oracles are plain graph fixpoints.  They must agree on every
heap: exhaustively over a small generator grammar, and on seeded random
heaps, including cyclic and weak ones.
"""

import random

from hypothesis import given, settings, strategies as st

from luagc.ast import Num, Str
from luagc.gc import (
    reach,
    reach_cte,
    reach_set,
    strong_reach_set,
)
from luagc.heap import Configuration

from heapgen import all_locs, build_heap, exhaustive_heaps, random_heap


def assert_plain_agreement(config: Configuration):
    plain = reach_set(config.term, config.sigma, config.theta)
    for loc in all_locs(config):
        a = reach(loc, config.term, config.sigma, config.theta)
        b = loc in plain
        assert a == b, (loc, config.term, config.sigma, config.theta)


def assert_strong_agreement(config: Configuration):
    strong = strong_reach_set(config.term, config.sigma, config.theta)
    for loc in all_locs(config):
        a = reach_cte(loc, config.term, config.sigma, config.theta,
                      config.term)
        assert a == (loc in strong), (loc, config.sigma, config.theta)


class TestHandPicked:
    def test_literal_occurrence(self):
        c = build_heap({1: None}, {}, {}, [("ref", 1)])
        assert reach(("ref", 1), c.term, c.sigma, c.theta)

    def test_metatable_of_reachable_table_is_reachable(self):
        c = build_heap({}, {1: {"meta": 2}, 2: {}}, {}, [("tid", 1)])
        assert reach(("tid", 2), c.term, c.sigma, c.theta)
        assert ("tid", 2) in reach_set(c.term, c.sigma, c.theta)

    def test_isolated_binding_unreachable(self):
        c = build_heap({1: None}, {}, {}, [])
        assert not reach(("ref", 1), c.term, c.sigma, c.theta)

    def test_unbound_literal_occurrence_is_false(self):
        c = build_heap({}, {}, {}, [("ref", 9)])
        assert not reach(("ref", 9), c.term, c.sigma, c.theta)
        assert ("ref", 9) not in reach_set(c.term, c.sigma, c.theta)

    def test_cyclic_tables(self):
        c = build_heap(
            {},
            {1: {"fields": [(Num(1), ("tid", 2))]},
             2: {"fields": [(Num(1), ("tid", 1))]}},
            {}, [("tid", 1)],
        )
        for loc in (("tid", 1), ("tid", 2)):
            assert reach(loc, c.term, c.sigma, c.theta)
            assert loc in reach_set(c.term, c.sigma, c.theta)

    def test_closure_environment_traversed(self):
        c = build_heap({1: ("tid", 1)}, {1: {}}, {1: [("ref", 1)]},
                       [("cid", 1)])
        assert reach(("tid", 1), c.term, c.sigma, c.theta)

    def test_weak_value_not_strongly_reachable(self):
        c = build_heap(
            {},
            {1: {"fields": [(Num(1), ("tid", 2))], "mode": "v"}, 2: {}},
            {}, [("tid", 1)],
        )
        assert not reach_cte(("tid", 2), c.term, c.sigma, c.theta, c.term)
        # but plainly reachable
        assert reach(("tid", 2), c.term, c.sigma, c.theta)

    def test_ephemeron_value_gated_on_key(self):
        held = build_heap(
            {1: ("tid", 2)},
            {1: {"fields": [(("tid", 2), ("tid", 3))], "mode": "k"},
             2: {}, 3: {}},
            {}, [("tid", 1), ("ref", 1)],
        )
        assert reach_cte(("tid", 3), held.term, held.sigma, held.theta,
                         held.term)
        dropped = build_heap(
            {},
            {1: {"fields": [(("tid", 2), ("tid", 3))], "mode": "k"},
             2: {}, 3: {}},
            {}, [("tid", 1)],
        )
        assert not reach_cte(("tid", 3), dropped.term, dropped.sigma,
                             dropped.theta, dropped.term)

    def test_ephemeron_self_key_cycle_dead(self):
        c = build_heap(
            {},
            {1: {"fields": [(("tid", 2), ("tid", 3))], "mode": "k"},
             2: {},
             3: {"fields": [(Num(1), ("tid", 2))]}},
            {}, [("tid", 1)],
        )
        assert not reach_cte(("tid", 2), c.term, c.sigma, c.theta, c.term)
        assert not reach_cte(("tid", 3), c.term, c.sigma, c.theta, c.term)


class TestExhaustive:
    def test_exhaustive_grammar_agreement(self):
        count = 0
        for config in exhaustive_heaps():
            assert_plain_agreement(config)
            count += 1
        assert count >= 3000  # the grammar is not accidentally empty


class TestRandomized:
    def test_random_heaps_plain(self):
        rng = random.Random(20240917)
        for _ in range(1000):
            assert_plain_agreement(random_heap(rng, max_locs=12))

    def test_random_heaps_strong(self):
        rng = random.Random(471)
        for _ in range(1000):
            assert_strong_agreement(random_heap(rng, max_locs=12, weak=True))

    def test_strong_subset_of_plain(self):
        rng = random.Random(92)
        for _ in range(300):
            c = random_heap(rng, max_locs=12, weak=True)
            strong = strong_reach_set(c.term, c.sigma, c.theta)
            plain = reach_set(c.term, c.sigma, c.theta)
            assert strong <= plain


@st.composite
def heap_descriptions(draw):
    n_tables = draw(st.integers(1, 4))
    n_refs = draw(st.integers(0, 3))
    tids = list(range(1, n_tables + 1))
    loc = st.one_of(st.none(), st.sampled_from([("tid", t) for t in tids]))
    refs = {r: draw(loc) for r in range(1, n_refs + 1)}
    tables = {}
    for t in tids:
        n_fields = draw(st.integers(0, 2))
        fields = []
        for i in range(n_fields):
            v = draw(loc)
            fields.append((Num(float(i + 1)), v if v else Str("leaf")))
        meta = draw(st.one_of(st.none(), st.sampled_from(tids)))
        mode = draw(st.one_of(st.none(), st.sampled_from(["k", "v", "kv"])))
        tables[t] = {"fields": fields, "meta": meta, "mode": mode}
    pool = [("ref", r) for r in refs] + [("tid", t) for t in tids]
    roots = draw(st.lists(st.sampled_from(pool), unique=True, max_size=4)) \
        if pool else []
    return build_heap(refs, tables, {}, roots)


class TestHypothesis:
    @settings(max_examples=200, deadline=None)
    @given(heap_descriptions())
    def test_plain_agreement(self, config):
        assert_plain_agreement(config)

    @settings(max_examples=200, deadline=None)
    @given(heap_descriptions())
    def test_strong_agreement(self, config):
        assert_strong_agreement(config)
