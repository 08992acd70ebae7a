"""Heap builders and generators for reachability testing.

``build_heap`` assembles stores from a compact description; the exhaustive
generator enumerates every heap over a fixed six-location grammar; the
random generator samples larger heaps (tables, closures, refs, weakness,
metatables) from a seeded RNG.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

from luagc import ast as A
from luagc.ast import Cid, Num, Str, Tid
from luagc.heap import (
    UNSET,
    Configuration,
    ClosureObject,
    ObjectStore,
    TableObject,
    ValueStore,
)

Loc = Tuple[str, int]


def term_of(roots: Iterable[Loc]) -> A.Stat:
    """A return statement literally mentioning the given locations."""
    exprs = []
    for kind, i in roots:
        if kind == "ref":
            exprs.append(A.Ref(i))
        elif kind == "tid":
            exprs.append(A.Const(Tid(i)))
        else:
            exprs.append(A.Const(Cid(i)))
    return A.Return(tuple(exprs))


def closure_body(locs: Iterable[Loc]) -> A.Stat:
    return term_of(locs)


def build_heap(
    refs: Dict[int, Optional[Loc]],
    tables: Dict[int, dict],
    closures: Dict[int, List[Loc]],
    roots: Iterable[Loc],
) -> Configuration:
    """Stores from adjacency descriptions.

    refs: ref id -> target location (or None for a number value)
    tables: tid -> {"fields": [(key, value)], "meta": tid or None,
                    "pos": mark (optional), "mode": weakness string or None}
      keys/values are locations or primitive Values.
    closures: cid -> list of captured locations (the body mentions them)
    """

    def val(x):
        if isinstance(x, tuple):
            kind, i = x
            if kind == "tid":
                return Tid(i)
            if kind == "cid":
                return Cid(i)
            return None  # refs cannot live inside tables
        return x

    sigma = {}
    next_ref = 1
    for r, target in refs.items():
        if target is None:
            sigma[r] = Num(float(r))
        else:
            kind, i = target
            sigma[r] = Tid(i) if kind == "tid" else Cid(i)
        next_ref = max(next_ref, r + 1)

    tbl: Dict[int, TableObject] = {}
    clo: Dict[int, ClosureObject] = {}
    next_tid = 1
    next_cid = 1

    # hidden metatables carrying __mode go after the user tables
    hidden = max(tables, default=0)
    for tid, desc in tables.items():
        fields = [(val(k), val(v)) for k, v in desc.get("fields", ())]
        fields = [(a, b) for a, b in fields if a is not None and b is not None]
        meta = desc.get("meta")
        mode = desc.get("mode")
        if mode is not None:
            hidden += 1
            tbl[hidden] = TableObject(((Str("__mode"), Str(mode)),))
            meta = hidden
        tbl[tid] = TableObject(tuple(fields), meta, desc.get("pos", UNSET))
        next_tid = max(next_tid, hidden + 1, tid + 1)
    for cid, locs in closures.items():
        clo[cid] = ClosureObject((), closure_body(locs))
        next_cid = max(next_cid, cid + 1)

    return Configuration(
        ValueStore(sigma, next_ref),
        ObjectStore(tbl, clo, next_tid, next_cid),
        term_of(roots),
    )


# ---------------------------------------------------------------------------
# Exhaustive six-location grammar
# ---------------------------------------------------------------------------

R1, R2 = ("ref", 1), ("ref", 2)
T1, T2, T3 = ("tid", 1), ("tid", 2), ("tid", 3)
C1 = ("cid", 1)

_R1_CHOICES = [None, T1, C1]
_R2_CHOICES = [None, T2]
_T1_FIELDS = [(), (T2,), (C1,), (T2, C1)]
_T1_META = [None, 2]
_T2_FIELDS = [(), (T1,), (T3,), (T1, T3)]
_T3_FIELDS = [(), (T1,)]
_T3_META = [None, 1]
_C1_CAPS = [(), (R1,), (R2,), (R1, R2)]
_ROOTS = [(R1,), (R1, T3), (T1,), ()]


def exhaustive_heaps():
    """Every heap over the fixed grammar: 6 locations, bounded contents."""
    for r1 in _R1_CHOICES:
        for r2 in _R2_CHOICES:
            for t1f in _T1_FIELDS:
                for t1m in _T1_META:
                    for t2f in _T2_FIELDS:
                        for t3f in _T3_FIELDS:
                            for t3m in _T3_META:
                                for caps in _C1_CAPS:
                                    for roots in _ROOTS:
                                        yield build_heap(
                                            {1: r1, 2: r2},
                                            {
                                                1: {"fields": [(Num(float(i + 1)), v) for i, v in enumerate(t1f)], "meta": t1m},
                                                2: {"fields": [(Num(float(i + 1)), v) for i, v in enumerate(t2f)]},
                                                3: {"fields": [(Num(float(i + 1)), v) for i, v in enumerate(t3f)], "meta": t3m},
                                            },
                                            {1: list(caps)},
                                            roots,
                                        )


def all_locs(config: Configuration) -> List[Loc]:
    out: List[Loc] = [("ref", r) for r in config.sigma.bindings]
    out += [("tid", i) for i in config.theta.tables]
    out += [("cid", i) for i in config.theta.closures]
    return out


# ---------------------------------------------------------------------------
# Random heaps
# ---------------------------------------------------------------------------


def random_heap(rng: random.Random, max_locs: int = 12,
                weak: bool = False) -> Configuration:
    n_tables = rng.randint(1, max(1, max_locs // 2))
    n_refs = rng.randint(0, max(0, (max_locs - n_tables) // 2))
    n_closures = rng.randint(0, max(0, max_locs - n_tables - n_refs) // 2)

    tids = list(range(1, n_tables + 1))
    cids = list(range(1, n_closures + 1))
    refs = list(range(1, n_refs + 1))

    def some_loc() -> Optional[Loc]:
        pool: List[Optional[Loc]] = [None]
        pool += [("tid", t) for t in tids]
        pool += [("cid", c) for c in cids]
        return rng.choice(pool)

    sigma: Dict[int, Optional[Loc]] = {r: some_loc() for r in refs}
    tables: Dict[int, dict] = {}
    for t in tids:
        fields = []
        keys = set()
        for i in range(rng.randint(0, 3)):
            if rng.random() < 0.3:
                k: object = some_loc() or Num(float(i + 1))
            else:
                k = Num(float(i + 1))
            # no program builds a table that repeats a key: a location
            # drawn twice falls back to this field's number, which no
            # other field has
            if k in keys:
                k = Num(float(i + 1))
            keys.add(k)
            v = some_loc() or Str("leaf")
            fields.append((k, v))
        meta = rng.choice([None] + tids) if rng.random() < 0.4 else None
        mode = None
        if weak and rng.random() < 0.5:
            mode = rng.choice(["k", "v", "kv"])
        tables[t] = {"fields": fields, "meta": meta, "mode": mode}
    closures = {
        c: [l for l in (some_loc() for _ in range(rng.randint(0, 2)))
            if l is not None]
        + ([("ref", rng.choice(refs))] if refs and rng.random() < 0.5 else [])
        for c in cids
    }
    pool = [("ref", r) for r in refs] + [("tid", t) for t in tids] + [
        ("cid", c) for c in cids
    ]
    roots = [l for l in pool if rng.random() < 0.4]
    return build_heap(sigma, tables, closures, roots)
