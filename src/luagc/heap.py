"""The two stores and the objects they hold.

A running program is a configuration ``sigma : theta : term``:

* ``sigma`` (ValueStore) maps references to values — the imperative
  variables introduced by locals and parameter passing;
* ``theta`` (ObjectStore) maps table ids to table objects and closure ids
  to closure objects.

Tables are triples (fields, metatable, finalization mark).  The mark is
``UNSET`` until a metatable with a ``__gc`` field is attached, then an
integer priority recording chronological order, and ``FORBIDDEN`` once the
finalizer ran (or was skipped), so no object is ever finalized twice.

Allocation counters live inside the stores: ids are never reused within an
execution, even after collection, so traces stay comparable.

The heap graph lives here too.  Its nodes are the bound locations
(``locations``) and its edges are defined once, per kind of location:
``successors`` gives the plain edges (a reference's value, a table's keys,
values and metatable, a closure's environment) and ``strong_edges`` the
ones strong reachability follows, which weak tables prune and ephemerons
gate.  Every heap walk reads them: the reachability sets and cycle of
``gc``, the result canonicalization of ``executor`` and ``validate``.
"""

from __future__ import annotations

import json
import math
from dataclasses import field, replace
from functools import cached_property
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterable, KeysView, List, Optional, Set,
    Tuple, Union,
)

from .ast import (
    Location,
    Nil,
    Num,
    Str,
    compile_records,
    summary,
    term_locations,
    to_source,
    _value_json,
    _value_loc,
    record,
)

if TYPE_CHECKING:
    from .ast import Stat, Term, Value


class HeapError(Exception):
    """An operation violated a store invariant (interpreter-level bug)."""


class _MarkSentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: no finalizer set
UNSET = _MarkSentinel("unset")
#: finalization already happened (or was skipped); may never be re-marked
FORBIDDEN = _MarkSentinel("forbidden")

if TYPE_CHECKING:
    Mark = Union[_MarkSentinel, int]


def is_marked(mark: Mark) -> bool:
    """Marked for finalization: has a pending priority."""
    return isinstance(mark, int)


# An edge of strong reachability: ``(gate, target)``, where ``target`` is
# reached once ``gate`` is, or at once when ``gate`` is None.
Edge = Tuple[Optional[Location], Location]


@record(frozen=True)
class TableObject:
    """A table.  It is immutable and shared by every store holding it (a
    write makes a new object), so what the collector derives from it is
    memoized on it: ``edges``, ``targets``, its strong edges under each
    weakness and ``mode_weakness``, and its hash.  The memos are not
    fields, so equality and hashing ignore them, and ``replace`` builds a
    new object without them.

    So is the key index that ``get``, ``has`` and ``set`` read: each key's
    position in ``fields``.  A write passes it on: a write to a present
    key keeps the key object and its position and shares the index, and
    one that adds a key copies it with the key added.  A nil write to a
    present key shifts the positions after it, so the new table builds its
    index when first asked; to a key that is not there, it changes nothing
    and returns the table itself.  ``alloc_table`` hands on the index it
    makes; a ``replace`` (``setmetatable``, a finalizer's mark) builds its
    own when first asked."""

    fields: Tuple[Tuple[Value, Value], ...]  # insertion ordered, no nils
    meta: Optional[int] = None  # tid of the metatable
    pos: Mark = UNSET

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass's hash, of the compared fields: every key of a
        store that holds the table hashes it."""
        return hash((self.fields, self.meta, self.pos))

    @cached_property
    def edges(self) -> Tuple[Tuple[int, Optional[Location],
                                   Optional[Location]], ...]:
        """``(field index, key location, value location)`` of each field
        with a collectible key or value; None for a side that is not."""
        out = []
        for idx, (k, v) in enumerate(self.fields):
            kloc, vloc = _value_loc(k), _value_loc(v)
            if kloc is not None or vloc is not None:
                out.append((idx, kloc, vloc))
        return tuple(out)

    @cached_property
    def targets(self) -> Tuple[Location, ...]:
        """The distinct locations the table points to, in print order: the
        collectible keys and values of its fields, then its metatable."""
        out = [l for _, k, v in self.edges for l in (k, v) if l is not None]
        if self.meta is not None:
            out.append(("tid", self.meta))
        return tuple(dict.fromkeys(out))

    @cached_property
    def _strong(self) -> Dict[str, Tuple[Edge, ...]]:
        return {}

    def strong_edges(self, w: str) -> Tuple[Edge, ...]:
        """The distinct edges strong reachability follows out of the table
        under weakness ``w``, in print order.

        Strong tables hold all collectible keys and values, weak-values
        tables their collectible keys, weak-keys (ephemeron) tables each
        collectible value gated by its key (ungated under a key that is
        not collectible), fully weak tables nothing; the metatable is
        always held.
        """
        memo = self._strong.get(w)
        if memo is None:
            out: List[Edge] = []
            for _, kloc, vloc in self.edges:
                if w == "wk":
                    if vloc is not None:
                        out.append((kloc, vloc))
                    continue
                if w != "wkv" and kloc is not None:
                    out.append((None, kloc))
                if w == "strong" and vloc is not None:
                    out.append((None, vloc))
            if self.meta is not None:
                out.append((None, ("tid", self.meta)))
            memo = self._strong[w] = tuple(dict.fromkeys(out))
        return memo

    @cached_property
    def mode_weakness(self) -> str:
        """The weakness this table's ``__mode`` field gives a table whose
        metatable it is."""
        mode = self.get(Str("__mode"))
        return parse_mode(mode.s) if isinstance(mode, Str) else "strong"

    @cached_property
    def _index(self) -> Dict[Value, int]:
        return {k: i for i, (k, _) in enumerate(self.fields)}

    def get(self, key: Value) -> Value:
        i = self._index.get(key)
        return Nil() if i is None else self.fields[i][1]

    def has(self, key: Value) -> bool:
        return key in self._index

    def set(self, key: Value, value: Value) -> "TableObject":
        fields, index = self.fields, self._index
        i = index.get(key)
        if isinstance(value, Nil):
            if i is None:
                return self
            return TableObject(fields[:i] + fields[i + 1:], self.meta,
                               self.pos)
        if i is None:
            out = TableObject(fields + ((key, value),), self.meta, self.pos)
            index = {**index, key: len(fields)}
        else:
            out = TableObject(fields[:i] + ((fields[i][0], value),)
                              + fields[i + 1:], self.meta, self.pos)
        out.__dict__["_index"] = index
        return out

    def without_fields(self, idxs: Iterable[int]) -> "TableObject":
        """The table without the fields at the indices ``idxs``."""
        gone = set(idxs)
        return replace(self, fields=tuple(
            f for j, f in enumerate(self.fields) if j not in gone))


@record(frozen=True)
class ClosureObject:
    params: Tuple[str, ...]
    body: Stat

    def locations(self) -> KeysView[Location]:
        """The distinct locations the body mentions, in print order."""
        return summary(self.body)[0].keys()

    @property
    def captured_refs(self) -> Tuple[int, ...]:
        """References the body closed over (its environment)."""
        return tuple(i for kind, i in self.locations() if kind == "ref")


if TYPE_CHECKING:
    HeapObject = Union[TableObject, ClosureObject]


class _Keyed:
    """A store's ``key``: its entries in insertion order and its counters.
    Stores with equal keys are equal; equal stores whose entries went in
    in another order have different keys.  The key and its hash
    (``key_hash``) are cached properties, as ``TableObject``'s memos are,
    so the states that share a store share them.  They are not fields, so
    equality ignores them, and writes and ``replace`` build stores without
    them."""

    @cached_property
    def key(self) -> tuple:
        return self._entries()

    @cached_property
    def key_hash(self) -> int:
        return hash(self.key)


@record(frozen=True)
class ValueStore(_Keyed):
    bindings: Dict[int, Value] = field(default_factory=dict)
    next_id: int = 1

    def _entries(self) -> tuple:
        b = self.bindings
        return tuple(b), tuple(b.values()), self.next_id

    def lookup(self, r: int) -> Value:
        try:
            return self.bindings[r]
        except KeyError:
            raise HeapError(f"dangling value reference $r{r}") from None

    def bind(self, r: int, v: Value) -> "ValueStore":
        if r not in self.bindings:
            raise HeapError(f"update of unbound reference $r{r}")
        b = dict(self.bindings)
        b[r] = v
        return ValueStore(b, self.next_id)


@record(frozen=True)
class ObjectStore(_Keyed):
    """Tables and closures; the two id spaces are disjoint.

    ``meta_index`` holds the tids of the tables that have a metatable or a
    finalization mark other than ``UNSET``: every other table is strong and
    unmarked, so a cycle asks only these about weakness and marks.  A store
    computes it on first read, and each write from a store that has it
    passes it on updated, so a run that never collects never computes it.
    Equality ignores it.
    """

    tables: Dict[int, TableObject] = field(default_factory=dict)
    closures: Dict[int, ClosureObject] = field(default_factory=dict)
    next_tid: int = 1
    next_cid: int = 1
    _meta: Optional[FrozenSet[int]] = field(
        default=None, compare=False, repr=False)

    @property
    def meta_index(self) -> FrozenSet[int]:
        if self._meta is None:
            object.__setattr__(self, "_meta", frozenset(
                i for i, t in self.tables.items() if _indexed(t)))
        return self._meta

    def _entries(self) -> tuple:
        t, c = self.tables, self.closures
        return (tuple(t), tuple(t.values()), tuple(c), tuple(c.values()),
                self.next_tid, self.next_cid)

    @cached_property
    def meta_order(self) -> Tuple[int, ...]:
        """``meta_index`` in ascending tid order."""
        return tuple(sorted(self.meta_index))

    def table(self, tid: int) -> TableObject:
        try:
            return self.tables[tid]
        except KeyError:
            raise HeapError(f"dangling table id #{tid}") from None

    def closure(self, cid: int) -> ClosureObject:
        try:
            return self.closures[cid]
        except KeyError:
            raise HeapError(f"dangling closure id #{cid}") from None

    def put_table(self, tid: int, obj: TableObject) -> "ObjectStore":
        b = dict(self.tables)
        b[tid] = obj
        index = self._meta
        if index is not None and _indexed(obj) != (tid in index):
            index = index ^ {tid}
        return ObjectStore(b, self.closures, self.next_tid, self.next_cid,
                           index)



def _indexed(obj: TableObject) -> bool:
    """Does ``ObjectStore.meta_index`` hold this table?"""
    return obj.meta is not None or obj.pos is not UNSET


@record(frozen=True)
class Configuration:
    sigma: ValueStore
    theta: ObjectStore
    term: Term

    def roots(self) -> Set[Location]:
        """The collector's root set: the locations occurring in the term.
        A whole-term walk; a focused state derives it from its frames."""
        return set(term_locations(self.term))


compile_records(TableObject, ClosureObject, ValueStore, ObjectStore,
                Configuration)


# ---------------------------------------------------------------------------
# Allocation / lookup operations
# ---------------------------------------------------------------------------


def alloc_value(sigma: ValueStore, v: Value) -> Tuple[ValueStore, int]:
    r = sigma.next_id
    b = dict(sigma.bindings)
    b[r] = v
    return ValueStore(b, r + 1), r


def check_key(key: Value) -> None:
    if isinstance(key, Nil):
        raise InvalidKey("table index is nil")
    if isinstance(key, Num) and math.isnan(key.x):
        raise InvalidKey("table index is NaN")


class InvalidKey(Exception):
    pass


def alloc_table(
    theta: ObjectStore, fields: Tuple[Tuple[Value, Value], ...]
) -> Tuple[ObjectStore, int]:
    """Allocate a fresh table: no metatable, finalization mark unset."""
    # a later entry wins in the first one's position; a nil entry is dropped
    cleaned = {}
    for k, v in fields:
        check_key(k)
        if not isinstance(v, Nil):
            cleaned[k] = v
    tid = theta.next_tid
    b = dict(theta.tables)
    b[tid] = table = TableObject(tuple(cleaned.items()), None, UNSET)
    table.__dict__["_index"] = dict(zip(cleaned, range(len(cleaned))))
    return ObjectStore(b, theta.closures, tid + 1, theta.next_cid,
                       theta._meta), tid


def alloc_closure(
    theta: ObjectStore, params: Tuple[str, ...], body: Stat
) -> Tuple[ObjectStore, int]:
    cid = theta.next_cid
    b = dict(theta.closures)
    b[cid] = ClosureObject(params, body)
    return ObjectStore(theta.tables, b, theta.next_tid, cid + 1,
                       theta._meta), cid


def index_metatable(tid: int, key: str, theta: ObjectStore) -> Value:
    """Look up ``key`` in a table's metatable; nil when absent."""
    t = theta.table(tid)
    if t.meta is None:
        return Nil()
    return theta.table(t.meta).get(Str(key))


def weakness(tid: int, theta: ObjectStore) -> str:
    """A table's weakness, from its metatable's ``__mode`` string."""
    meta = theta.table(tid).meta
    return "strong" if meta is None else theta.table(meta).mode_weakness


def parse_mode(mode: str) -> str:
    """The weakness a ``__mode`` string gives: ``wkv``, ``wk``, ``wv`` or
    ``strong``."""
    k, v = "k" in mode, "v" in mode
    return "wkv" if k and v else "wk" if k else "wv" if v else "strong"


def weak_keys(w: str) -> bool:
    return w in ("wk", "wkv")


def weak_values(w: str) -> bool:
    return w in ("wv", "wkv")


# ---------------------------------------------------------------------------
# The heap graph
# ---------------------------------------------------------------------------


def locations(sigma: ValueStore, theta: ObjectStore) -> List[Location]:
    """The bound locations: references, then tables, then closures."""
    locs: List[Location] = [("ref", r) for r in sigma.bindings]
    locs.extend(("tid", i) for i in theta.tables)
    locs.extend(("cid", i) for i in theta.closures)
    return locs


def _bound(loc: Location, sigma: ValueStore, theta: ObjectStore) -> bool:
    kind, i = loc
    if kind == "ref":
        return i in sigma.bindings
    if kind == "tid":
        return i in theta.tables
    return i in theta.closures


def successors(loc: Location, sigma: ValueStore,
               theta: ObjectStore) -> Iterable[Location]:
    """The plain edges out of a bound location, distinct and in print
    order: what a reference's value names, a table's ``targets``, and the
    locations a closure's body mentions (its environment)."""
    kind, i = loc
    if kind == "tid":
        return theta.tables[i].targets
    if kind == "cid":
        return theta.closures[i].locations()
    target = _value_loc(sigma.bindings[i])
    return () if target is None else (target,)


def strong_edges(loc: Location, sigma: ValueStore,
                 theta: ObjectStore) -> Tuple[Edge, ...]:
    """The edges strong reachability follows out of a bound location.
    Only a table prunes or gates its plain edges, by its weakness
    (``TableObject.strong_edges``): only an ephemeron value has a gate."""
    if loc[0] == "tid":
        obj = theta.tables[loc[1]]
        return obj.strong_edges(
            "strong" if obj.meta is None else weakness(loc[1], theta))
    return tuple([(None, n) for n in successors(loc, sigma, theta)])


def restrict(c: Configuration, discard: Set[Location]) -> Configuration:
    """The configuration with the ``discard`` locations unbound."""
    return Configuration(*restrict_stores(c.sigma, c.theta, discard), c.term)


def restrict_stores(sigma: ValueStore, theta: ObjectStore,
                    discard: Set[Location]) -> Tuple[ValueStore, ObjectStore]:
    """The two stores with the ``discard`` locations unbound."""
    if not discard:
        return sigma, theta
    drop_t = {i for kind, i in discard if kind == "tid"}
    drop_c = {i for kind, i in discard if kind == "cid"}
    kept_sigma = ValueStore(
        {r: v for r, v in sigma.bindings.items() if ("ref", r) not in discard},
        sigma.next_id,
    )
    kept_theta = ObjectStore(
        {i: o for i, o in theta.tables.items() if i not in drop_t},
        {i: o for i, o in theta.closures.items() if i not in drop_c},
        theta.next_tid,
        theta.next_cid,
        None if theta._meta is None else theta._meta - drop_t,
    )
    return kept_sigma, kept_theta


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------


def validate(c: Configuration) -> None:
    """Check store well-formedness; raises HeapError on violation.

    Every location mentioned in the term or at the end of a heap-graph
    edge must be bound (so a metatable slot names a table), table fields
    must contain no nils and no repeated key (``alloc_table`` and
    ``TableObject.set`` keep keys distinct, and clearing a weak field drops
    its key), and pending finalization priorities must be pairwise
    distinct.
    """
    for loc in term_locations(c.term):
        if not _bound(loc, c.sigma, c.theta):
            raise HeapError(f"term mentions unbound location {loc}")
    for loc in locations(c.sigma, c.theta):
        for n in successors(loc, c.sigma, c.theta):
            if not _bound(n, c.sigma, c.theta):
                raise HeapError(f"{_NAME[loc[0]]}{loc[1]} holds unbound "
                                f"location {n}")
    priorities = []
    for i, obj in c.theta.tables.items():
        keys = set()
        for k, v in obj.fields:
            if isinstance(k, Nil) or isinstance(v, Nil):
                raise HeapError(f"table #{i} stores a nil key or value")
            if k in keys:
                raise HeapError(f"table #{i} repeats the key {k!r}")
            keys.add(k)
        if is_marked(obj.pos):
            priorities.append(obj.pos)
    if len(priorities) != len(set(priorities)):
        raise HeapError("finalization priorities are not pairwise distinct")


# How ``validate`` names a location of each kind.
_NAME = {"ref": "$r", "tid": "table #", "cid": "closure #"}


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def snapshot(c: Configuration) -> dict:
    """JSON-ready dump of both stores with stable ordering."""
    sigma = {f"r{r}": _value_json(v) for r, v in sorted(c.sigma.bindings.items())}
    theta = {}
    for i, obj in sorted(c.theta.tables.items()):
        theta[f"t{i}"] = {
            "fields": [[_value_json(k), _value_json(v)] for k, v in obj.fields],
            "meta": obj.meta,
            "pos": repr(obj.pos) if not isinstance(obj.pos, int) else obj.pos,
        }
    for i, clo in sorted(c.theta.closures.items()):
        theta[f"c{i}"] = {
            "params": list(clo.params),
            "body": to_source(clo.body),
            "captured": list(clo.captured_refs),
        }
    return {"sigma": sigma, "theta": theta, "term": to_source(c.term)}


def snapshot_json(c: Configuration) -> str:
    return json.dumps(snapshot(c), sort_keys=True)
