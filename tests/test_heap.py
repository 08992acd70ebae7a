import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from luagc import ast as A
from luagc.ast import Cid, Nil, Num, Str, Tid
from luagc.heap import (
    FORBIDDEN,
    UNSET,
    Configuration,
    HeapError,
    InvalidKey,
    ObjectStore,
    TableObject,
    ValueStore,
    alloc_closure,
    alloc_table,
    alloc_value,
    index_metatable,
    restrict_stores,
    snapshot_json,
    validate,
    weakness,
)
from luagc.executor import Schedule, run
from luagc.interp import load_program

from heapgen import random_heap


def empty_config(term=None):
    return Configuration(ValueStore(), ObjectStore(), term or A.Empty())


class TestAllocValue:
    def test_first_allocation(self):
        sigma, r = alloc_value(ValueStore(), Num(5))
        assert sigma.bindings == {r: Num(5)}

    def test_freshness(self):
        sigma, r1 = alloc_value(ValueStore(), Num(1))
        sigma, r2 = alloc_value(sigma, Num(2))
        assert r1 != r2

    def test_no_reuse_after_removal(self):
        sigma, r1 = alloc_value(ValueStore(), Num(1))
        shrunk = ValueStore({}, sigma.next_id)
        _, r2 = alloc_value(shrunk, Num(2))
        assert r2 != r1

    def test_alloc_of_table_id_aliases(self):
        theta, tid = alloc_table(ObjectStore(), ())
        sigma, r1 = alloc_value(ValueStore(), Tid(tid))
        sigma, r2 = alloc_value(sigma, Tid(tid))
        # mutate through one alias, observe through the other
        theta = theta.put_table(tid, theta.table(tid).set(Num(1), Str("x")))
        seen_via_r2 = theta.table(sigma.lookup(r2).n).get(Num(1))
        assert seen_via_r2 == Str("x")


class TestAllocTable:
    def test_fresh_table_unset_mark_no_meta(self):
        theta, tid = alloc_table(ObjectStore(), ())
        t = theta.table(tid)
        assert t.meta is None and t.pos is UNSET and t.fields == ()

    def test_distinct_ids(self):
        theta, t1 = alloc_table(ObjectStore(), ())
        theta, t2 = alloc_table(theta, ())
        assert t1 != t2

    def test_table_and_closure_id_spaces_disjoint(self):
        theta, tid = alloc_table(ObjectStore(), ())
        theta, cid = alloc_closure(theta, (), A.Empty())
        assert tid in theta.tables and cid in theta.closures

    def test_nested_reference_stays_well_formed(self):
        theta, t0 = alloc_table(ObjectStore(), ())
        theta, t1 = alloc_table(theta, ((Num(1), Tid(t0)),))
        cfg = Configuration(ValueStore(), theta, A.ExprStat(A.Const(Tid(t1))))
        validate(cfg)

    def test_nil_key_rejected(self):
        with pytest.raises(InvalidKey):
            alloc_table(ObjectStore(), ((Nil(), Num(1)),))

    def test_nan_key_rejected(self):
        with pytest.raises(InvalidKey):
            alloc_table(ObjectStore(), ((Num(float("nan")), Num(1)),))

    def test_nil_valued_fields_skipped(self):
        theta, tid = alloc_table(ObjectStore(), ((Num(1), Nil()),))
        assert theta.table(tid).fields == ()

    # a later non-nil entry wins in the first entry's position; a nil entry
    # is dropped and leaves an earlier one standing
    @pytest.mark.parametrize("fields, want", [
        (((Num(1), Str("a")), (Num(1), Str("b"))), ((Num(1), Str("b")),)),
        (((Num(1), Str("a")), (Num(1), Nil())), ((Num(1), Str("a")),)),
        (((Num(1), Nil()), (Num(1), Str("b"))), ((Num(1), Str("b")),)),
        (((Num(2), Str("x")), (Num(1), Str("y")), (Num(2), Str("z"))),
         ((Num(2), Str("z")), (Num(1), Str("y")))),
        (((Num(1), Str("n")), (A.Bool(True), Str("b")), (Str("1"), Str("s"))),
         ((Num(1), Str("n")), (A.Bool(True), Str("b")), (Str("1"), Str("s")))),
    ], ids=["later-wins", "nil-dropped", "nil-then-value", "first-position",
            "distinct-kinds"])
    def test_duplicate_keys(self, fields, want):
        theta, tid = alloc_table(ObjectStore(), fields)
        assert theta.table(tid).fields == want

    @pytest.mark.parametrize("fields", [
        ((Num(1), Str("a")), (Nil(), Str("b"))),
        ((Num(1), Str("a")), (Nil(), Nil())),
        ((Num(1), Str("a")), (Num(float("nan")), Str("b"))),
        ((Num(float("nan")), Nil()),),
    ], ids=["nil-key", "nil-key-nil-value", "nan-key", "nan-key-nil-value"])
    def test_invalid_key_after_valid_entries(self, fields):
        with pytest.raises(InvalidKey):
            alloc_table(ObjectStore(), fields)

    def test_constructor_duplicates_through_a_run(self):
        rec = run(load_program(
            'local a = {[1] = "a", [1] = "b"}\n'
            'local b = {[1] = "a", [1] = nil}\n'
            'local c = {[2] = "x", [1] = "y", [2] = "z"}\n'
            'return a[1], b[1], c[2], c[1]\n'), Schedule("never"))
        assert [v["v"] for v in json.loads(rec.result.key)["v"]] == [
            "b", "a", "z", "y"]


class TestMetatableLookup:
    def build(self, meta_fields):
        theta, meta = alloc_table(ObjectStore(), tuple(meta_fields))
        theta, tid = alloc_table(theta, ())
        table = theta.table(tid)
        theta = theta.put_table(tid, TableObject(table.fields, meta, table.pos))
        return theta, tid

    def test_no_metatable(self):
        theta, tid = alloc_table(ObjectStore(), ())
        assert index_metatable(tid, "__gc", theta) == Nil()

    def test_gc_field(self):
        theta, cid = ObjectStore(), None
        theta, cid = alloc_closure(theta, (), A.Empty())
        theta, meta = alloc_table(theta, ((Str("__gc"), Cid(cid)),))
        theta, tid = alloc_table(theta, ())
        t = theta.table(tid)
        theta = theta.put_table(tid, TableObject(t.fields, meta, t.pos))
        assert index_metatable(tid, "__gc", theta) == Cid(cid)

    def test_mode_field(self):
        theta, tid = self.build([(Str("__mode"), Str("v"))])
        assert index_metatable(tid, "__mode", theta) == Str("v")


class TestWeakness:
    def tagged(self, mode):
        theta, meta = alloc_table(
            ObjectStore(),
            ((Str("__mode"), mode),) if mode is not None else (),
        )
        theta, tid = alloc_table(theta, ())
        t = theta.table(tid)
        theta = theta.put_table(tid, TableObject(t.fields, meta, t.pos))
        return weakness(tid, theta)

    def test_no_metatable_strong(self):
        theta, tid = alloc_table(ObjectStore(), ())
        assert weakness(tid, theta) == "strong"

    def test_mode_v(self):
        assert self.tagged(Str("v")) == "wv"

    def test_mode_k(self):
        assert self.tagged(Str("k")) == "wk"

    def test_mode_kv(self):
        assert self.tagged(Str("kv")) == "wkv"

    def test_non_string_mode_strong(self):
        assert self.tagged(Num(1)) == "strong"


class TestValidate:
    def test_dangling_term_location(self):
        cfg = Configuration(ValueStore(), ObjectStore(),
                            A.ExprStat(A.Const(Tid(9))))
        with pytest.raises(HeapError):
            validate(cfg)

    def test_dangling_field(self):
        theta, tid = alloc_table(ObjectStore(), ((Num(1), Tid(99)),))
        cfg = Configuration(ValueStore(), theta, A.ExprStat(A.Const(Tid(tid))))
        with pytest.raises(HeapError):
            validate(cfg)

    @pytest.mark.parametrize("holder", ["ref", "table", "closure"])
    def test_names_the_holder_of_an_unbound_location(self, holder):
        sigma, theta = ValueStore(), ObjectStore()
        if holder == "ref":
            sigma, _ = alloc_value(sigma, Tid(9))
            message = "$r1 holds unbound location ('tid', 9)"
        elif holder == "table":
            theta, _ = alloc_table(theta, ((Num(1), Tid(9)),))
            message = "table #1 holds unbound location ('tid', 9)"
        else:
            theta, _ = alloc_closure(theta, (), A.Return((A.Ref(9),)))
            message = "closure #1 holds unbound location ('ref', 9)"
        with pytest.raises(HeapError) as info:
            validate(Configuration(sigma, theta, A.Empty()))
        assert str(info.value) == message

    def test_repeated_key(self):
        theta, _ = alloc_table(ObjectStore(), ())
        theta = theta.put_table(1, TableObject(
            ((Num(1), Str("a")), (Str("k"), Str("b")), (Num(1), Str("c")))))
        with pytest.raises(HeapError) as info:
            validate(Configuration(ValueStore(), theta, A.Empty()))
        assert str(info.value) == "table #1 repeats the key 1"

    @pytest.mark.parametrize("max_locs", [6, 12, 20])
    def test_random_heaps_are_valid(self, max_locs):
        for seed in range(300):
            validate(random_heap(random.Random(seed), max_locs=max_locs,
                                 weak=seed % 2 == 1))

    def test_duplicate_priorities(self):
        theta, t1 = alloc_table(ObjectStore(), ())
        theta, t2 = alloc_table(theta, ())
        theta = theta.put_table(t1, TableObject((), None, 1))
        theta = theta.put_table(t2, TableObject((), None, 1))
        cfg = Configuration(ValueStore(), theta, A.Empty())
        with pytest.raises(HeapError):
            validate(cfg)


class TestTableObject:
    def test_assigning_nil_deletes(self):
        t = TableObject(((Num(1), Str("a")),))
        assert t.set(Num(1), Nil()).fields == ()

    def test_insertion_order_preserved(self):
        t = TableObject(())
        t = t.set(Str("b"), Num(1))
        t = t.set(Str("a"), Num(2))
        t = t.set(Str("b"), Num(3))
        assert [k for k, _ in t.fields] == [Str("b"), Str("a")]

    def test_bool_and_number_keys_distinct(self):
        t = TableObject(())
        t = t.set(A.Bool(True), Str("bool"))
        t = t.set(Num(1), Str("one"))
        assert t.get(A.Bool(True)) == Str("bool")
        assert t.get(Num(1)) == Str("one")


# Keys whose sign of zero, class or identity a table could confuse, and
# values, nil among them; indices into them.
MODEL_KEYS = (Num(0.0), Num(-0.0), Num(1.0), Str("a"), Str("b"),
              A.Bool(True), A.Bool(False), Tid(1), Tid(2), Cid(1))
MODEL_VALUES = (Nil(), Num(2.0), Str("x"), A.Bool(False), Tid(3), Cid(2))
TABLE_OPS = st.lists(st.one_of(
    st.tuples(st.just("set"), st.integers(0, len(MODEL_KEYS) - 1),
              st.integers(0, len(MODEL_VALUES) - 1)),
    st.tuples(st.just("drop"), st.sets(st.integers(0, 9))),
    st.tuples(st.just("meta"), st.sampled_from([None, 1, 4]))), max_size=30)


def exactly(fields) -> list:
    """Fields compared by class and print form too, so a zero's sign
    counts."""
    return [(type(k), repr(k), type(v), repr(v)) for k, v in fields]


class TestIndexedTable:
    """A table's key index gives what a scan of its fields would, across
    writes, nil writes, cleared fields and metatable changes, however the
    index was passed on: the tables model a list of pairs."""

    @staticmethod
    def model_set(pairs: list, key, value) -> None:
        at = next((i for i, (k, _) in enumerate(pairs) if k == key), None)
        if isinstance(value, Nil):
            if at is not None:
                del pairs[at]
        elif at is None:
            pairs.append((key, value))
        else:
            pairs[at] = (pairs[at][0], value)

    def check(self, t: TableObject, pairs: list) -> None:
        assert exactly(t.fields) == exactly(pairs)
        for key in MODEL_KEYS:
            found = [v for k, v in pairs if k == key]
            assert t.has(key) == bool(found)
            assert t.get(key) == (found[0] if found else Nil())
        fresh = TableObject(tuple(pairs), t.meta, t.pos)
        assert t == fresh and hash(t) == hash(fresh)
        assert t.edges == fresh.edges and t.targets == fresh.targets
        for w in ("strong", "wk", "wv", "wkv"):
            assert t.strong_edges(w) == fresh.strong_edges(w)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, len(MODEL_KEYS) - 1),
                              st.integers(0, len(MODEL_VALUES) - 1)),
                    max_size=6), TABLE_OPS)
    def test_index_matches_a_list_of_pairs(self, start, ops):
        pairs: list = []
        for k, v in start:
            if not isinstance(MODEL_VALUES[v], Nil):
                self.model_set(pairs, MODEL_KEYS[k], MODEL_VALUES[v])
        theta, tid = alloc_table(ObjectStore(), tuple(
            (MODEL_KEYS[k], MODEL_VALUES[v]) for k, v in start))
        self.check(theta.table(tid), pairs)
        for op, *args in ops:
            t = theta.table(tid)
            if op == "set":
                key, value = MODEL_KEYS[args[0]], MODEL_VALUES[args[1]]
                absent = all(k != key for k, _ in pairs)
                self.model_set(pairs, key, value)
                new = t.set(key, value)
                if isinstance(value, Nil) and absent:
                    assert new is t
            elif op == "drop":
                new = t.without_fields(args[0])
                pairs = [f for i, f in enumerate(pairs) if i not in args[0]]
            else:
                new = replace(t, meta=args[0])
            theta = theta.put_table(tid, new)
            self.check(theta.table(tid), pairs)

    def test_writes_pass_the_index_on(self):
        theta, tid = alloc_table(ObjectStore(), ((Num(1), Str("a")),
                                                 (Str("k"), Num(2))))
        t = theta.table(tid)
        assert "_index" in vars(t)
        rewritten = t.set(Num(1), Str("b"))
        assert rewritten._index is t._index
        added = t.set(Num(-0.0), Str("c"))
        assert added._index == {Num(1): 0, Str("k"): 1, Num(0): 2}
        assert "_index" not in vars(t.set(Num(1), Nil()))
        assert "_index" not in vars(t.without_fields([0]))

    @pytest.mark.parametrize("n", [500, 2_000])
    def test_fill_loop_writes_compare_no_keys(self, monkeypatch, n):
        """Each write of ``t[i] = {}`` compares as many numbers, whatever
        the size of the table: a scan of the fields would compare one per
        field."""
        from luagc import interp

        compared = [0]
        num_eq = Num.__eq__

        def counting_eq(self, other):
            compared[0] += 1
            return num_eq(self, other)

        per_write = []
        table_write = interp._table_write

        def counting_write(*args):
            before = compared[0]
            out = table_write(*args)
            per_write.append(compared[0] - before)
            return out

        monkeypatch.setattr(Num, "__eq__", counting_eq)
        monkeypatch.setattr(interp, "_table_write", counting_write)
        src = (f"local t = {{}}\nlocal i = 1\n"
               f"while i <= {n} do t[i] = {{}} i = i + 1 end\nreturn i\n")
        rec = run(load_program(src), Schedule("never"), fuel=20 * n)
        assert rec.result.kind == "return"
        assert len(per_write) == n and set(per_write) == {0}


# One store operation: a kind and a number that picks its table.
STORE_OPS = st.lists(st.tuples(
    st.sampled_from(["table", "closure", "meta", "mark", "forbid", "plain",
                     "write", "restrict"]),
    st.integers(0, 50)), max_size=40)


class TestMetaIndex:
    """``ObjectStore.meta_index`` holds exactly the tables with a metatable
    or a mark other than ``UNSET``, however the store was made."""

    @staticmethod
    def scanned(theta: ObjectStore) -> frozenset:
        return frozenset(i for i, t in theta.tables.items()
                         if t.meta is not None or t.pos is not UNSET)

    @settings(max_examples=150, deadline=None)
    @given(STORE_OPS)
    def test_index_matches_full_scan(self, ops):
        sigma, theta = ValueStore(), ObjectStore()
        for op, k in ops:
            tids = sorted(theta.tables)
            if op == "table":
                theta, _ = alloc_table(theta, ((Num(1), Num(k)),))
            elif op == "closure":
                theta, _ = alloc_closure(theta, (), A.Empty())
            elif tids:
                tid = tids[k % len(tids)]
                t = theta.table(tid)
                if op == "meta":
                    t = replace(t, meta=tids[k // 2 % len(tids)])
                elif op == "mark":
                    t = replace(t, pos=k + 1)
                elif op == "forbid":
                    t = replace(t, pos=FORBIDDEN)
                elif op == "plain":
                    t = replace(t, meta=None, pos=UNSET)
                elif op == "write":
                    t = t.set(Num(2), Num(k))
                if op == "restrict":
                    sigma, theta = restrict_stores(sigma, theta,
                                                   {("tid", tid)})
                else:
                    theta = theta.put_table(tid, t)
            scan = self.scanned(theta)
            assert theta.meta_index == scan
            assert theta.meta_order == tuple(sorted(scan))
            # built from the same dicts, a store computes the same index
            rebuilt = ObjectStore(dict(theta.tables), dict(theta.closures),
                                  theta.next_tid, theta.next_cid)
            assert rebuilt.meta_index == scan

    def test_equality_ignores_the_index(self):
        theta, tid = alloc_table(ObjectStore(), ())
        theta = theta.put_table(tid, replace(theta.table(tid), pos=1))
        other = ObjectStore(theta.tables, theta.closures, theta.next_tid,
                            theta.next_cid, frozenset())
        assert other == theta and other.meta_index != theta.meta_index

    def test_cycles_keep_the_index(self):
        from luagc.gc import run_cycle

        rng = random.Random(4242)
        for _ in range(200):
            c = random_heap(rng, max_locs=10, weak=True)
            for mode in ("simple", "fin", "fin_weak"):
                theta = run_cycle(c, mode).kept_theta
                assert theta.meta_index == self.scanned(theta)


def test_snapshot_roundtrips_as_json():
    theta, tid = alloc_table(ObjectStore(), ((Num(1), Str("x")),))
    sigma, r = alloc_value(ValueStore(), Tid(tid))
    cfg = Configuration(sigma, theta, A.ExprStat(A.Ref(r)))
    dumped = snapshot_json(cfg)
    parsed = json.loads(dumped)
    assert parsed["sigma"]["r1"] == {"t": "tid", "v": tid}
    assert snapshot_json(cfg) == dumped


def test_final_heap_snapshot_matches_golden():
    from pathlib import Path

    from luagc.heap import snapshot
    from luagc.interp import Finished, load_program, step

    from conftest import corpus_text

    cfg = load_program(corpus_text("deterministic/table_fields.lua"))
    while True:
        r = step(cfg)
        if isinstance(r, Finished):
            break
        cfg = r.config
    dumped = json.dumps(snapshot(cfg), indent=1, sort_keys=True) + "\n"
    golden = Path(__file__).parent / "golden" / "table_fields_final_heap.json"
    assert dumped == golden.read_text()
