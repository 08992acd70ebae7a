"""Program points and reaching definitions.

The analyzer works on the tree ``desugar.desugar_renamed`` gives: every
local binder has a unique name, so definitions can be tracked globally.
Each AST node is a program point (numbered pre-order and keyed by
identity, so the tree must hold no node twice, as parser output never
does); every expression, function bodies included, shares the in-set of
the statement that evaluates it.  Statements are entered in pre-order, so
a statement's expressions are the points after its own and before the next
entered statement's, and ``ReachingDefs.at`` finds it by bisection.

Reaching definitions are the classic forward dataflow, ``out = gen + (in -
kill)``, solved along the syntax tree as for any structured program (Aho,
Sethi & Ullman, *Compilers*, 1986, section 10.5): a sequence threads the
set, ``if`` unions its arms, ``return`` and ``break`` end it (a ``break``
hands its set to the loop's exit), and a ``while`` re-walks its body until
the set at its head is stable.  For gen/kill sets that takes at most two
walks of each loop body per walk of the loop.  Gen and kill are set
operations: a per-name index holds every definition generated so far, so
a statement kills by one set difference against it and gens by a union,
with no Python loop over the live set.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from . import ast as A

Definition = Tuple[str, int]  # (unique var name, defining point)


class OutOfScopeConstruct(Exception):
    """The program uses a form outside the analyzer's supported fragment."""

    def __init__(self, message: str, pos: Optional[A.Pos] = None):
        where = f"{pos.line}:{pos.col}: " if pos else ""
        super().__init__(where + message)
        self.message = message
        self.pos = pos


def original_name(name: str) -> str:
    return name.split("#", 1)[0]


# ---------------------------------------------------------------------------
# Program points
# ---------------------------------------------------------------------------


@A.record
class Points:
    """Pre-order numbering of one (shared, never rebuilt) tree."""

    number: Dict[int, int] = field(default_factory=dict)  # id(node) -> point

    def of(self, n: A.Term) -> int:
        return self.number[id(n)]


def number_points(t: A.Term) -> Points:
    pts = Points()
    for counter, n in enumerate(A.walk(t)):
        pts.number[id(n)] = counter
    return pts


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------


_NONE: FrozenSet[Definition] = frozenset()


@A.record
class ReachingDefs:
    """Definitions valid on entry to each statement point."""

    in_sets: Dict[int, FrozenSet[Definition]] = field(default_factory=dict)
    stmts: List[int] = field(default_factory=list)  # ascending, as entered
    #: ``Seq`` point -> the statement that owns it, whose set it answers
    seq_owner: Dict[int, int] = field(default_factory=dict)

    def at(self, point: int) -> FrozenSet[Definition]:
        stmt = self.seq_owner.get(point)
        if stmt is None:
            stmt = self.stmts[bisect_right(self.stmts, point) - 1]
        return self.in_sets[stmt]


A.compile_records(Points, ReachingDefs)


def _define(live: FrozenSet[Definition], names: Tuple[str, ...], point: int,
            index: Dict[str, Set[Definition]]) -> FrozenSet[Definition]:
    """``gen + (live - kill)`` for a statement binding ``names``.

    ``index`` maps a name to every definition of it generated so far; all
    of ``live`` was generated, so ``index[n]`` holds each live definition
    of ``n`` and killing is one set difference.
    """
    if not names:
        return live
    gen = [(n, point) for n in names]
    for d in gen:
        index.setdefault(d[0], set()).add(d)
    return live.difference(*(index[n] for n in names)).union(gen)


def build_cfg(t: A.Stat, points: Points) -> ReachingDefs:
    """Reaching definitions for every statement point, along the syntax tree."""
    rd = ReachingDefs()
    index: Dict[str, Set[Definition]] = {}  # name -> its definitions so far

    def enter(t: A.Stat, live: FrozenSet[Definition]) -> int:
        """Record ``live`` on entry to ``t``."""
        p = points.of(t)
        if p not in rd.in_sets:
            rd.stmts.append(p)
        rd.in_sets[p] = live
        return p

    # Returns the definitions live where control falls out of ``t``.
    def stat(t: A.Stat, live: FrozenSet[Definition],
             breaks: Optional[List[FrozenSet[Definition]]],
             owner: int) -> FrozenSet[Definition]:
        while isinstance(t, (A.Seq, A.Local)):  # the nesting of a block
            if isinstance(t, A.Seq):
                rd.seq_owner[points.of(t)] = owner
                live = stat(t.first, live, breaks, owner)
                t = t.rest
            else:
                owner = enter(t, live)
                live = _define(live, t.names, owner, index)
                t = t.body
        if isinstance(t, A.Assign):
            p = enter(t, live)
            return _define(
                live, tuple(x.ident for x in t.targets if isinstance(x, A.Name)),
                p, index,
            )
        if isinstance(t, A.Empty):
            enter(t, live)
            return live
        if isinstance(t, A.ExprStat):
            enter(t, live)
            return live
        if isinstance(t, A.Return):
            enter(t, live)
            return _NONE
        if isinstance(t, A.Break):
            if breaks is None:
                raise OutOfScopeConstruct("break outside a loop", t.pos)
            enter(t, live)
            breaks.append(live)
            return _NONE
        if isinstance(t, A.If):
            p = enter(t, live)
            return (stat(t.then_body, live, breaks, p)
                    | stat(t.else_body, live, breaks, p))
        if isinstance(t, A.While):
            p = enter(t, live)
            while True:
                exits: List[FrozenSet[Definition]] = []
                head = live | stat(t.body, rd.in_sets[p], exits, p)
                if head == rd.in_sets[p]:
                    return head.union(*exits)
                rd.in_sets[p] = head
        raise OutOfScopeConstruct(
            f"statement not supported by the analyzer: {type(t).__name__}", t.pos
        )

    entry = t  # top-level sequence points map to the first statement
    while isinstance(entry, A.Seq):
        entry = entry.first
    try:
        stat(t, _NONE, None, points.of(entry))
    finally:
        # ``stat`` holds itself through its closure; without this the
        # cycle, and every set in ``rd``, would wait for the cyclic GC
        del stat
    return rd
