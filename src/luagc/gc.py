"""Garbage-collection mathematics.

Reachability comes in two flavours:

* plain reachability — transitive access from the locations literally in
  the program term, through value-store dereference, table fields,
  metatables, and closure environments;
* strong reachability — the weak-table-aware notion: fields of weak tables
  only contribute their non-weak side, and ephemeron (weak-keys) fields
  contribute their value only while the key is strongly reachable from the
  root with that field removed.

Both have a production implementation, a worklist walk over the heap
graph that :mod:`luagc.heap` defines (``successors`` for the plain edges,
``strong_edges`` for the strong ones, where only an ephemeron value has a
gate), and a reference implementation (the literal recursion that
consumes store bindings / field occurrences as it descends, so it
terminates).  The test suite checks the two agree.

On top of reachability sits one collection cycle, ``run_cycle``, extended
twice like the paper's relation: mode ``simple`` drops an unreachable
subset, ``fin`` also protects tables marked for finalization and picks the
next finalizer by priority, and ``fin_weak`` switches to strong
reachability and clears weak fields.

The cycle takes its root set from the state it is given (``roots()``).  A
running program is a focused state (``interp.Focused``): its roots are
the keys of the term's occurrence counts, which each step moves by its
redex and contractum and the frames it cut, so a cycle never walks or
plugs the whole term.  A plain :class:`~luagc.heap.Configuration`, where
no focus exists, walks its term.

A cycle reuses what the heap kept since the last one.  A table is
immutable and shared by every store holding it, so it memoizes its
collectible fields (``TableObject.edges``), its out-edges
(``TableObject.targets`` and its strong edges under each weakness) and,
as a metatable, the weakness its ``__mode`` gives
(``TableObject.mode_weakness``).  The object store indexes the tables
that have a metatable or a mark (``ObjectStore.meta_index``); every other
table is strong and unmarked, so the marks, the weak tables to clear and
the ephemerons to retain are looked for there, in ascending tid order.

``run_cycle`` reports a *quiescent* cycle, one after which a cycle on the
stores it kept, from the same roots, would find nothing: it discarded all
its garbage, with it every weak side it cleared (the strong reach kept
nothing more, and lost no key it had followed), and it had no finalizer
candidate, or only candidates held back because a finalizer was in flight
(``held_for_flight``: quiescent only while one stays in flight).

This module also holds the one rule by which a driver skips a cycle.
``still_quiescent`` proves from the change since a quiescent cycle that a
cycle now would find nothing either: after a collection it looks only at
what the program changed, the store entries it replaced and the roots
whose count fell to zero, like the remembered sets of generation
scavenging.  A focused state keeps the memo of its last quiescent cycle
(its kept stores, ``held_for_flight`` and its mode) with its occurrence
counts and lost roots, so a successor that takes them over takes the memo
over too.  ``memo_vouches`` skips the cycle when ``still_quiescent``
holds from the memo's stores and the roots lost since the memo was taken
(``Focused.lost_roots``); counts built afresh know nothing lost and vouch
for nothing, and a memo held for a finalizer in flight vouches only while
one is.  A memo that vouches moves to the state's stores, so each proof
looks at one step's change; one that does not is dropped, since the roots
lost since it was taken are gone.  ``remember`` keeps the memo of a cycle
that ran.

``enumerate_gc_steps`` is the one way into a cycle: it takes that skip
decision, runs the cycle and remembers it.  ``executor.Machine.collect``
calls it with the schedule's selector before a program step, and the
exhaustive explorer at each node, where ``subset_steps`` adds the other
discard subsets.  The explorer takes a node's *garbage-only* maximal
cycle (``GcOutcome.garbage_only``) as the node's one successor; see
``executor.observations``.
"""

from __future__ import annotations

import itertools
from dataclasses import field as dc_field, replace
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, List, Optional, Set,
    Tuple, Union,
)

from .ast import (
    Cid,
    Location,
    Nil,
    Tid,
    compile_records,
    record,
    term_locations,
    value_locations,
)
from .heap import (
    FORBIDDEN,
    UNSET,
    Configuration,
    ObjectStore,
    ValueStore,
    _bound,
    _value_loc,
    index_metatable,
    is_marked,
    locations,
    restrict_stores,
    strong_edges,
    successors,
    weak_keys,
    weak_values,
    weakness,
)

if TYPE_CHECKING:
    from .ast import Term, Value
    from .heap import Mark
    from .interp import Focused

Selector = Optional[Callable[[List[Location]], Iterable[Location]]]


# ---------------------------------------------------------------------------
# Plain reachability
# ---------------------------------------------------------------------------


def reach_set_from(
    roots: Iterable[Location], sigma: ValueStore, theta: ObjectStore
) -> Set[Location]:
    """The bound locations reachable from ``roots`` (worklist DFS).  An
    unbound successor is skipped: ``restrict`` may unbind a location
    that others still point to."""
    seen: Set[Location] = set()
    stack = [l for l in roots if _bound(l, sigma, theta)]
    while stack:
        l = stack.pop()
        if l in seen:
            continue
        seen.add(l)
        for n in successors(l, sigma, theta):
            if n not in seen and _bound(n, sigma, theta):
                stack.append(n)
    return seen


def reach_set(t: Term, sigma: ValueStore, theta: ObjectStore) -> Set[Location]:
    """All locations reachable from the term's root set (worklist BFS)."""
    return reach_set_from(term_locations(t), sigma, theta)


def reach(l: Location, t: Term, sigma: ValueStore, theta: ObjectStore) -> bool:
    """Reference implementation: the recursion that removes visited
    bindings from the stores so cycles cannot recurse forever.

    An unbound location is never reachable, even if it occurs literally.
    """
    if not _bound(l, sigma, theta):
        return False
    return _rec_reach(l, list(term_locations(t)), dict(sigma.bindings),
                      dict(theta.tables), dict(theta.closures))


def _rec_reach(l: Location, locs: List[Location], sigma: dict,
               tables: dict, closures: dict) -> bool:
    if l in locs:
        return True
    for kind, i in locs:
        if kind == "ref" and i in sigma:
            rest = dict(sigma)
            v = rest.pop(i)
            if _rec_reach(l, list(value_locations(v)), rest, tables, closures):
                return True
        elif kind == "tid" and i in tables:
            obj = tables[i]
            rest = dict(tables)
            del rest[i]
            content = []
            for k, v in obj.fields:
                content.extend(value_locations(k))
                content.extend(value_locations(v))
            if _rec_reach(l, content, sigma, rest, closures):
                return True
            if obj.meta is not None and _rec_reach(
                l, [("tid", obj.meta)], sigma, rest, closures
            ):
                return True
        elif kind == "cid" and i in closures:
            obj = closures[i]
            rest = dict(closures)
            del rest[i]
            if _rec_reach(l, list(obj.locations()), sigma, tables, rest):
                return True
    return False


# ---------------------------------------------------------------------------
# Strong (weak-table-aware) reachability
# ---------------------------------------------------------------------------

def strong_reach_set(t: Term, sigma: ValueStore,
                     theta: ObjectStore) -> Set[Location]:
    """Locations strongly reachable from the term's root set."""
    return strong_reach_set_from(term_locations(t), sigma, theta)


def strong_reach_set_from(roots: Iterable[Location], sigma: ValueStore,
                          theta: ObjectStore) -> Set[Location]:
    """Strongly reachable locations.  A gated edge waits under its gate
    until the gate is reached, so an ephemeron value joins only once its
    key has."""
    reached: Set[Location] = set()
    stack = [l for l in roots if _bound(l, sigma, theta)]
    waiting: Dict[Location, List[Location]] = {}  # gate -> targets
    while stack:
        l = stack.pop()
        if l in reached:
            continue
        reached.add(l)
        if l in waiting:
            stack.extend(waiting.pop(l))
        for gate, target in strong_edges(l, sigma, theta):
            if target in reached or not _bound(target, sigma, theta):
                continue
            if gate is None or gate in reached:
                stack.append(target)
            else:
                waiting.setdefault(gate, []).append(target)
    return reached


def reach_cte(
    l: Location, t: Term, sigma: ValueStore, theta: ObjectStore, rt: Term
) -> bool:
    """Reference implementation of strong reachability of a collectible.

    ``rt`` is the root term that ephemeron key checks restart from, each
    with its gating field removed from the store view (so a value cannot
    justify its own key).  Field removals accumulate only across nested
    key checks; ordinary traversal prunes cycles per path, which keeps the
    recursion well-founded without losing paths.
    """
    if not _bound(l, sigma, theta):
        return False
    rt_locs = list(term_locations(rt))
    return _rec_cte(
        l, list(term_locations(t)), sigma, theta, rt_locs,
        frozenset(), frozenset(),
    )


def _rec_cte(
    l: Location,
    locs: List[Location],
    sigma: ValueStore,
    theta: ObjectStore,
    rt_locs: List[Location],
    removed_fields: FrozenSet[Tuple[int, int]],
    path: FrozenSet[Location],
) -> bool:
    if l in locs:
        return True
    for loc in locs:
        if loc in path or not _bound(loc, sigma, theta):
            continue
        deeper = path | {loc}
        kind, i = loc
        if kind == "ref":
            vlocs = list(value_locations(sigma.bindings[i]))
            if _rec_cte(l, vlocs, sigma, theta, rt_locs, removed_fields,
                        deeper):
                return True
        elif kind == "tid":
            obj = theta.table(i)
            if obj.meta is not None:
                if _rec_cte(l, [("tid", obj.meta)], sigma, theta, rt_locs,
                            removed_fields, deeper):
                    return True
            w = weakness(i, theta)
            for idx, (k, v) in enumerate(obj.fields):
                if (i, idx) in removed_fields:
                    continue
                kloc, vloc = _value_loc(k), _value_loc(v)
                if w in ("strong", "wv") and kloc is not None:
                    if _rec_cte(l, [kloc], sigma, theta, rt_locs,
                                removed_fields, deeper):
                        return True
                if w == "strong" and vloc is not None:
                    if _rec_cte(l, [vloc], sigma, theta, rt_locs,
                                removed_fields, deeper):
                        return True
                if w == "wk" and vloc is not None:
                    key_ok = kloc is None or _rec_cte(
                        kloc, rt_locs, sigma, theta, rt_locs,
                        removed_fields | {(i, idx)}, frozenset(),
                    )
                    if key_ok and _rec_cte(l, [vloc], sigma, theta, rt_locs,
                                           removed_fields, deeper):
                        return True
        else:
            body = list(theta.closure(i).locations())
            if _rec_cte(l, body, sigma, theta, rt_locs, removed_fields,
                        deeper):
                return True
    return False


# ---------------------------------------------------------------------------
# Finalization marks
# ---------------------------------------------------------------------------


def set_fin(tid: int, v: Value, theta: ObjectStore) -> Mark:
    """New finalization mark for ``setmetatable(tid, v)``.

    Case split: a forbidden mark is sticky; a nil metatable unmarks;
    re-setting the same metatable keeps the mark; a metatable without a
    ``__gc`` field unmarks; a new metatable with ``__gc`` marks with the
    next priority (chronological order).
    """
    table = theta.table(tid)
    if table.pos is FORBIDDEN:
        return FORBIDDEN
    if isinstance(v, Nil):
        return UNSET
    assert isinstance(v, Tid)
    if table.meta == v.n:
        return table.pos
    from .ast import Str

    if not theta.table(v.n).has(Str("__gc")):
        return UNSET
    return next_priority(theta)


# Marks and weakness are read only from the tables of the store's
# ``meta_index``: a table outside it has no metatable and no mark.

def next_priority(theta: ObjectStore) -> int:
    best = 0
    for i in theta.meta_order:
        pos = theta.tables[i].pos
        if is_marked(pos) and pos > best:
            best = pos
    return best + 1


def marked_tables(theta: ObjectStore) -> List[int]:
    return [i for i in theta.meta_order if is_marked(theta.tables[i].pos)]


def not_fin_val(tid: int, theta: ObjectStore) -> bool:
    """A table sitting as a value of some weak table may not be finalized
    this cycle; its weak fields must be cleared first."""
    target = ("tid", tid)
    for i in theta.meta_order:
        if weakness(i, theta) == "strong":
            continue
        if any(vloc == target for _, _, vloc in theta.tables[i].edges):
            return False
    return True


# ---------------------------------------------------------------------------
# The collection cycle
# ---------------------------------------------------------------------------


@record
class GcOutcome:
    kept_sigma: ValueStore
    kept_theta: ObjectStore
    pending_finalizer: Optional[Tuple[int, int]] = None  # (cid, tid)
    cleared_weak_fields: List[Tuple[int, Value, Value]] = dc_field(default_factory=list)
    discarded: Tuple[Location, ...] = ()
    marked_forbidden: Optional[int] = None
    # a cycle on the kept stores from the same roots finds nothing
    # (``still_quiescent`` starts from them): all garbage was discarded,
    # with it every cleared weak side, and no finalizer could be selected
    quiescent: bool = False
    # ... but only while a finalizer stays in flight: there were candidates,
    # held back because one was
    held_for_flight: bool = False

    @property
    def changed(self) -> bool:
        return bool(
            self.discarded
            or self.cleared_weak_fields
            or self.pending_finalizer
            or self.marked_forbidden is not None
        )

    @property
    def garbage_only(self) -> bool:
        """Does the cycle only discard, clearing no kept table's weak field
        and neither selecting nor skipping a finalizer?  Of a maximal
        cycle, the program cannot tell whether it ran."""
        return bool(
            self.discarded
            and not self.cleared_weak_fields
            and self.pending_finalizer is None
            and self.marked_forbidden is None
        )


compile_records(GcOutcome)


def _retain_ephemeron_values(
    keep: Set[Location], sigma: ValueStore, theta: ObjectStore
) -> Set[Location]:
    """Close ``keep`` over the values of kept ephemeron fields whose key is
    still marked for finalization: one reach per round, from all such
    values not kept yet."""
    tables = theta.tables
    ephemerons = [i for i in theta.meta_order if weak_keys(weakness(i, theta))]
    while True:
        held = [
            vloc
            for i in ephemerons if ("tid", i) in keep
            for _, kloc, vloc in tables[i].edges
            if kloc is not None and kloc[0] == "tid"
            and is_marked(tables[kloc[1]].pos)
            and vloc is not None and vloc not in keep
        ]
        extra = reach_set_from(held, sigma, theta) - keep
        if not extra:
            return keep
        keep |= extra


def _weak_fields_to_clear(
    strong: Set[Location], theta: ObjectStore
) -> Dict[int, List[int]]:
    """The field indices, by table, of every weak field whose weak side is
    not strongly reachable, except ephemeron fields whose key still awaits
    its finalizer."""
    out: Dict[int, List[int]] = {}
    for i in theta.meta_order:
        w = weakness(i, theta)
        if w == "strong":
            continue
        obj = theta.tables[i]
        for idx, kloc, vloc in obj.edges:
            eligible = (
                weak_keys(w) and kloc is not None and kloc not in strong
            ) or (
                weak_values(w) and vloc is not None and vloc not in strong
            )
            if not eligible:
                continue
            if (weak_keys(w) and kloc is not None and kloc[0] == "tid"
                    and is_marked(theta.table(kloc[1]).pos)):
                continue  # retained until the key's finalizer ran
            out.setdefault(i, []).append(idx)
    return out


def run_cycle(c: Union[Configuration, "Focused"], mode: str,
              selector: Selector = None,
              allow_finalizer: bool = True) -> GcOutcome:
    """One collection cycle in ``mode``, each mode extending the last, on
    the stores of ``c`` and from its root set ``c.roots()``.

    ``simple`` drops a subset (by default the maximal one) of the
    unreachable locations.

    ``fin`` never discards a table marked for finalization, and keeps alive
    everything it reaches for its finalizer.  Among unreachable marked
    tables the one with the highest priority is selected; its ``__gc``
    metafield is the pending finalizer if it is a function (otherwise it
    is skipped silently), and either way the table's mark becomes
    forbidden.

    ``fin_weak`` uses strong reachability instead.  Weak fields whose
    collectible key (weak-keys side) or value (weak-values side) is not
    strongly reachable are cleared, except that a field whose key is still
    marked for finalization is retained, with its value, until that
    finalizer ran.  A table sitting as a value of a weak table is not
    selected for finalization this cycle (its field gets cleared first).

    All decisions are taken against the pre-collection stores.  The kept
    set is closed under the heap edges that survive clearing, so the
    maximal cycle discards all garbage; a selector's choice loses what
    the rest of the heap reaches once the weak fields are cleared.
    """
    if mode not in ("simple", "fin", "fin_weak"):
        raise ValueError(f"unknown gc mode {mode!r}")
    weak = mode == "fin_weak"
    sigma, theta = c.sigma, c.theta
    roots = c.roots()
    if weak:
        reached = strong_reach_set_from(roots, sigma, theta)
    else:
        reached = reach_set_from(roots, sigma, theta)
    marked = [] if mode == "simple" else marked_tables(theta)

    keep = reached | reach_set_from([("tid", tid) for tid in marked], sigma, theta)
    cleared: List[Tuple[int, Value, Value]] = []
    cleared_theta = theta
    if weak:
        keep = _retain_ephemeron_values(keep, sigma, theta)
        drop = _weak_fields_to_clear(reached, theta)
        if drop:
            tables = dict(theta.tables)
            for i, idxs in drop.items():
                obj = tables[i]
                cleared.extend((i, *obj.fields[idx]) for idx in idxs)
                tables[i] = obj.without_fields(idxs)
            cleared_theta = ObjectStore(tables, theta.closures, theta.next_tid,
                                        theta.next_cid, theta.meta_index)

    all_locs = locations(sigma, theta)
    garbage = set(all_locs) - keep
    discard = garbage
    if selector is not None:
        proposal = set(selector(sorted(garbage))) & garbage
        discard = proposal - reach_set_from(
            [l for l in all_locs if l not in proposal], sigma, cleared_theta)
    kept_sigma, kept_theta = restrict_stores(sigma, cleared_theta, discard)
    actually_cleared = [f for f in cleared if ("tid", f[0]) not in discard]

    pending = None
    forbidden = None
    candidates = [tid for tid in marked if ("tid", tid) not in reached]
    if candidates and allow_finalizer:
        best = max(candidates, key=lambda tid: theta.table(tid).pos)
        if not weak or not_fin_val(best, theta):
            v = index_metatable(best, "__gc", kept_theta)
            table = kept_theta.table(best)
            kept_theta = kept_theta.put_table(best, replace(table, pos=FORBIDDEN))
            forbidden = best
            if isinstance(v, Cid):
                pending = (v.n, best)
    quiescent = len(discard) == len(garbage) and (
        not candidates or not allow_finalizer) and (
        not actually_cleared
        or keep == reached and _followed_edges_kept(actually_cleared, theta))
    return GcOutcome(
        kept_sigma, kept_theta, pending, actually_cleared,
        tuple(sorted(discard)), forbidden, quiescent,
        quiescent and bool(candidates),
    )


def _followed_edges_kept(cleared: List[Tuple[int, Value, Value]],
                         theta: ObjectStore) -> bool:
    """Does clearing ``cleared`` keep every edge strong reachability
    followed?  Of a cleared field it followed only a weak-values table's
    collectible key, which may then have lost its last holder."""
    return not any(_value_loc(k) is not None and weakness(i, theta) == "wv"
                   for i, k, _ in cleared)


def still_quiescent(sigma0: ValueStore, theta0: ObjectStore,
                    lost: Iterable[Location],
                    c: Union[Configuration, "Focused"]) -> bool:
    """Would a cycle at ``c`` find nothing, given that one on ``sigma0``
    and ``theta0`` was quiescent (``GcOutcome.quiescent``), and that the
    roots lost since then are among ``lost``?

    A quiescent cycle keeps every location, so each is reachable, or
    kept for a finalizer (held back candidates included); that stays true
    if the change since then cannot cut a path or make a new location
    garbage:

    * no binding was removed, and closures only grew;
    * every new location is a root;
    * every new table has no metatable and no mark;
    * every changed table had and still has no metatable (so it is strong
      and unmarked), and its ``__mode`` gives the same weakness;
    * every location that lost an edge (a dropped root, the old value of
      an overwritten reference, an old edge of a changed table) is a root,
      or sits one strong edge from a root in the new stores; the walk over
      the roots' strong edges stops once it has found every such location.

    Weakness and marks then stay as they were, every path the old cycle
    followed survives or is bypassed at a lost edge, and nothing new waits
    for a clear or a finalizer.  The rule holds in every mode, since a
    strong edge is also a plain one.  The change is diffed by identity
    over the store dicts.  ``lost`` may be any superset of the dropped
    roots: the old root set, or the locations whose occurrence count fell
    to zero in the steps since (``interp.Focused.lost_roots``); one that
    is a root again is no loss.  A ``held_for_flight`` cycle vouches only
    while a finalizer is in flight, which ``memo_vouches`` checks.
    """
    sigma, theta = c.sigma, c.theta
    if sigma is sigma0 and theta is theta0 and not lost:
        return True
    roots = c.roots()
    refs = _dict_change(sigma0.bindings, sigma.bindings)
    tables = _dict_change(theta0.tables, theta.tables)
    closures = _dict_change(theta0.closures, theta.closures)
    if refs is None or tables is None or closures is None or closures[1]:
        return False
    new = ([("ref", r) for r in refs[0]] + [("tid", i) for i in tables[0]]
           + [("cid", i) for i in closures[0]])
    if any(l not in roots for l in new) or any(
            t.meta is not None or t.pos is not UNSET
            for t in map(theta.tables.get, tables[0])):
        return False
    far = set(lost)
    for old, v in refs[1]:
        l = _value_loc(old)
        if l is not None and l != _value_loc(v):
            far.add(l)
    for old, obj in tables[1]:
        if (old.meta is not None or obj.meta is not None
                or old.mode_weakness != obj.mode_weakness):
            return False
        kept = {l for _, k, v in obj.edges for l in (k, v)}
        far.update(l for _, k, v in old.edges for l in (k, v)
                   if l is not None and l not in kept)
    far = {l for l in far if l not in roots}
    if not far:
        return True
    for l in roots:
        if _bound(l, sigma, theta):
            for gate, target in strong_edges(l, sigma, theta):
                if gate is None:
                    far.discard(target)
                    if not far:
                        return True
    return False


def _dict_change(old: dict, new: dict) -> Optional[Tuple[list, list]]:
    """The keys ``new`` adds to ``old`` and the ``(old, new)`` value pairs
    it replaces, by identity; None if it drops a key."""
    if new is old:
        return [], []
    added, replaced = [], []
    for k, v in new.items():
        was = old.get(k)
        if was is None:
            added.append(k)
        elif was is not v:
            replaced.append((was, v))
    if len(new) - len(added) != len(old):
        return None
    return added, replaced


def memo_vouches(state: "Focused", mode: str, allow_finalizer: bool) -> bool:
    """Does the quiescence memo of ``state`` prove that a cycle in ``mode``
    would find nothing there?  The skip rule of the module docstring; it
    takes the state's lost roots."""
    lost = state.lost_roots()
    occ = state._occurrences  # counted by ``lost_roots``
    quiet = occ.quiet
    if quiet is None:
        return False
    if lost is None or quiet[3] != mode or (quiet[2] and allow_finalizer):
        occ.quiet = None
        return False
    sigma, theta = state.sigma, state.theta
    if quiet[0] is sigma and quiet[1] is theta and not lost:
        return True  # nothing changed since the memo was taken
    if not still_quiescent(quiet[0], quiet[1], lost, state):
        occ.quiet = None
        return False
    occ.quiet = (sigma, theta, quiet[2], mode)
    return True


def remember(state: "Focused", outcome: GcOutcome, mode: str) -> None:
    """Keep on ``state``, whose stores are the ones ``outcome`` kept, the
    memo of that cycle in ``mode``: ``(sigma, theta, held_for_flight,
    mode)`` if it was quiescent, else None."""
    (state._occurrences or state._counted()).quiet = (
        (outcome.kept_sigma, outcome.kept_theta, outcome.held_for_flight,
         mode) if outcome.quiescent else None)


def enumerate_gc_steps(
    c: Union[Configuration, "Focused"],
    mode: str = "simple",
    allow_finalizer: bool = True,
    selector: Selector = None,
) -> List[GcOutcome]:
    """The cycle at ``c`` (maximal, or the discard ``selector`` proposes),
    if it changes anything; the one way a driver runs a cycle.

    A focused state whose memo vouches (``memo_vouches``) has none, and
    the cycle does not run.  Otherwise the state remembers the cycle if
    it changed nothing, since the state then keeps its stores; a changed
    one is remembered by the successor that applies it.
    """
    focused = type(c) is not Configuration
    if focused and memo_vouches(c, mode, allow_finalizer):
        return []
    outcome = run_cycle(c, mode, selector, allow_finalizer=allow_finalizer)
    if not outcome.changed:
        if focused:
            remember(c, outcome, mode)
        return []
    return [outcome]


# The most garbage locations whose subsets ``subset_steps`` enumerates
# (2^12 cycles); with more it gives the maximal cycle alone.
SUBSET_CAP = 12


def subset_steps(
    c: Union[Configuration, "Focused"],
    maximal: GcOutcome,
    mode: str,
    allow_finalizer: bool = True,
) -> List[GcOutcome]:
    """Every valid discard subset of the garbage at ``c``, given its
    maximal cycle ``maximal`` (same mode and ``allow_finalizer``).

    Weak-field clearing stays maximal within each outcome.  With more
    garbage locations than ``SUBSET_CAP`` it falls back to maximal.
    """
    if not maximal.discarded or len(maximal.discarded) > SUBSET_CAP:
        return [maximal] if maximal.changed else []
    garbage = sorted(maximal.discarded)
    outcomes: List[GcOutcome] = []
    for n in range(len(garbage) + 1):
        for combo in itertools.combinations(garbage, n):
            chosen = set(combo)
            o = run_cycle(c, mode, selector=lambda g, ch=chosen: ch,
                          allow_finalizer=allow_finalizer)
            if set(o.discarded) == chosen and o.changed:
                outcomes.append(o)
    return outcomes
