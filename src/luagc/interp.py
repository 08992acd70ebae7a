"""Small-step reduction for the Lua subset.

Execution is classic reduction semantics: decompose the program into an
evaluation context and a redex, reduce the redex, plug the result back.
``decompose`` returns the unique context/redex split (or a terminal
classification), and ``step`` performs exactly one reduction.

Both halves are tables.  Decomposition dispatches on the node's type
(``_DECOMPOSE``): an entry says whether its node is a redex, and under
which rule, ends the program, or descends into one child.  Contraction
dispatches on the rule name (``_CONTRACT``): an entry returns the new
stores, the term that fills the hole and the rule name the trace shows.

The context is a list of frames, outermost first; each frame is a node with
the slot its hole sits in.  A stepping loop does not decompose again from
the root after each reduction: it *refocuses* (Danvy & Nielsen, *Refocusing
in Reduction Semantics*, 2004).  ``refocus(frames, t)`` equals
``decompose(plug(frames, t))`` but starts at the hole.  A contraction only
replaces the hole, so no frame's node changes type and no ancestor changes
which child it descends into; only the innermost frame, rebuilt around
``t``, is inspected afresh, and the ordinary descent goes on from there.
The cost of a step therefore does not grow with the depth of the context.

Nor does it grow with the width of a node.  In a list slot (a constructor's
fields, a call's arguments, the expressions of a ``local``, an assignment or
a ``return``) every element before the hole is a value, so ``refocus``
rebuilds the node by slicing its tuple around the hole and resumes the scan
for the next element to evaluate at the hole, not at the first element.

A :class:`Focused` configuration holds the stores with the split of its
term; the term itself is plugged only when something reads it.  ``step``
takes either form and returns a :class:`StepResult` whose ``state`` is the
next focused configuration; its ``config`` is plugged on first read, so a
loop that does not read it does not pay for it.  The frame
list is owned by the stepping loop: ``step`` on a focused configuration
reuses it for the successor, so a stepped-from state must not be read again.
A state that must outlive a step of its parent, as an explorer's GC
successor beside the plain step does, is a ``branch``: its own copy of the
frame list and counts.

Control effects (errors, break, return, pcall) unwind the context in a
single step by cutting the frame list back to the matching delimiter,
which is looked for from the top of the frame list: a ``return`` costs
the distance to its call, not the depth of the context.

A focused state also answers what a collection cycle asks of its term
without plugging it: ``roots()``, the locations occurring in the term, and
``finalizer_in_flight``.  Both read one multiset of occurrences, each
location's count and the number of finalizer markers (``_Occurrences``),
built once from the memoized ``ast.summary`` of the term.  A step then
moves it, as incremental reference counting does (Deutsch & Bobrow,
CACM 1976): a contraction replaces its redex by its contractum, and an
unwind also cuts frames, each of which takes away its node without the
child it was pushed over; refocusing moves no occurrence.  So the counts
follow the redex, not the context: a step subtracts the redex's summary
and each cut frame's share, and adds the contractum's.  The locations
whose count falls to zero are the roots the step lost.  The counts also
carry the memo of the last quiescent cycle, as data: the skip rule that
reads it with the lost roots is ``gc``'s.

This module holds the step relation and program loading only.  Iterating
the relation, with or without GC, is ``executor.Machine``'s job; under the
``never`` schedule ``collectgarbage()`` is inert there.
"""

from __future__ import annotations

import math
from dataclasses import field, replace
from typing import (
    TYPE_CHECKING, Callable, Dict, KeysView, List, Optional, Sequence, Set,
    Tuple, Union,
)

from . import ast as A
from .ast import (
    And, Assign, BinOp, Break, Call, CallFrame, Cid, Const, Empty, ErrTerm,
    ExprStat, FinStat, FinWrap, Function, Globals, If, Index, Local,
    Location, LoopFrame, Name, Neg, Nil, Not, Num, Or, ProtectedFrame, Ref,
    Return, Seq, Str, TableCtor, Tid, ValueTuple, While, format_number, summary,
    truthy, type_name,
)
from .heap import (
    Configuration, InvalidKey, ObjectStore, ValueStore, alloc_closure,
    alloc_table, alloc_value, check_key, index_metatable,
)
from .gc import set_fin
from .parser import parse
from .desugar import desugar

if TYPE_CHECKING:
    from .ast import Stat, Term, Value


class StuckTerm(Exception):
    """Decomposition failed: an interpreter invariant was broken."""


class LuaError(Exception):
    """A runtime error carrying its Lua-level error value."""

    def __init__(self, value: Value):
        super().__init__(repr(value))
        self.value = value

    @classmethod
    def msg(cls, text: str) -> "LuaError":
        return cls(Str(text))


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


class Frame:
    """A node of the context with the slot its hole sits in, and the
    ``child`` the hole held when the frame was pushed.  Once refocused, the
    slot still holds that stale child, so the node outside the hole is
    ``node`` without ``child``: its *holed node* (``holed``).

    Frames are compared by identity; contexts compare by ``same_context``.
    A frame is never changed once pushed, and a frame list changes only at
    its top (a branch copies the list and shares its frames), so the frames
    below a frame are the same in every list that holds it.  A frame
    therefore memoizes, when first asked, its holed node (``_holed``) and
    the hash of the context it tops (``_hash``, by ``context_hash``).  The
    memo slots stay unset until then: a run that hashes no context pays
    nothing for them."""

    __slots__ = ("node", "slot", "idx", "child", "_holed", "_hash")

    def __init__(self, node: Term, slot: str, idx: int, child: Term):
        self.node = node
        self.slot = slot
        self.idx = idx
        self.child = child

    def __repr__(self) -> str:
        return f"Frame({self.node!r}, {self.slot!r}, {self.idx})"


class Redex:
    """A redex ``term`` in the context ``frames``, reduced by ``rule``.
    An unwind reducing it keeps the frames it cut in ``cut``.  Compared by
    identity, like its frames."""

    __slots__ = ("frames", "term", "rule", "cut")

    def __init__(self, frames: List[Frame], term: Term, rule: str):
        self.frames = frames
        self.term = term
        self.rule = rule
        self.cut: Sequence[Frame] = ()

    def __repr__(self) -> str:
        return f"Redex({self.rule!r}, {self.term!r})"


@A.record(frozen=True)
class Finished:
    kind: str  # "return" | "error" | "empty"
    values: Tuple[Value, ...] = ()
    error_value: Value = field(default_factory=Nil)
    # where the final node sits, as for a redex: the whole term is
    # plug(frames, term)
    frames: List[Frame] = field(default_factory=list, compare=False, repr=False)
    term: Optional[Term] = field(default=None, compare=False, repr=False)


# What a fully evaluated expression in statement or result position is: one
# value, or the values of a call.
_RESULTS = (Const, ValueTuple)


def flatten_el(exprs: Tuple[A.Expr, ...]) -> List[Value]:
    """Expression list -> value list; a trailing tuple splices."""
    vals: List[Value] = []
    for i, e in enumerate(exprs):
        if isinstance(e, Const):
            vals.append(e.value)
        elif isinstance(e, ValueTuple) and i == len(exprs) - 1:
            vals.extend(e.values)
        else:  # pragma: no cover - guarded by decompose
            raise StuckTerm(f"unevaluated expression list element {e!r}")
    return vals


def adjust(vals: List[Value], n: int) -> List[Value]:
    out = list(vals[:n])
    while len(out) < n:
        out.append(Nil())
    return out


def decompose(term: Term) -> Union[Redex, Finished]:
    """Unique context/redex split, or the terminal classification."""
    return _descend([], term)


def refocus(frames: List[Frame], t: Term) -> Union[Redex, Finished]:
    """``decompose(plug(frames, t))``, continuing from the hole.

    ``frames`` must be a context that a decomposition produced, and ``t``
    the term that now fills its hole.  The list is consumed: it becomes the
    frame list of the result.  In a list slot the scan for the next element
    to evaluate resumes at the hole: every element before it is a value.
    """
    if frames:
        f = frames.pop()
        t = _replace_child(f.node, f.slot, f.idx, t)
        if f.slot in _LIST_SLOTS:
            d = _next_el(t, f.idx)
            if d is not None:
                slot, idx, child = d
                frames.append(Frame(t, slot, idx, child))
                t = child
    return _descend(frames, t)


def _descend(frames: List[Frame], t: Term) -> Union[Redex, Finished]:
    """Descend from ``t``, whose context is ``frames``, to the redex or the
    final node, pushing a frame per node passed."""
    while True:
        res = _DECOMPOSE.get(type(t), _stuck)(t, frames)
        if type(res) is tuple:
            slot, idx, child = res
            frames.append(Frame(t, slot, idx, child))
            t = child
        elif type(res) is str:
            return Redex(frames, t, res)
        else:
            return res


def _next_el(t: Term, start: int):
    """The first element of ``t``'s list from index ``start`` that is not
    evaluated yet, as ``(slot, index, element)``; None if there is none.

    A trailing value tuple stays splicable; anywhere else it must still be
    truncated (and is itself the redex).
    """
    slot, holes = _LIST_OF[type(t)]
    seq = getattr(t, slot)
    if len(holes) == 2:  # a constructor's pairs
        for i in range(start, len(seq)):
            k, v = seq[i]
            if k is not None and type(k) is not Const:
                return (holes[0], i, k)
            if type(v) is not Const:
                return (holes[1], i, v)
        return None
    last = len(seq) - 1
    for i in range(start, last + 1):
        e = seq[i]
        if not (type(e) is Const or (i == last and type(e) is ValueTuple)):
            return (slot, i, e)
    return None


def _innermost(frames: List[Frame], delimiter: type) -> int:
    """The index of the innermost ``delimiter`` frame, looked for from the
    top of the frame list; -1 if there is none."""
    for i in range(len(frames) - 1, -1, -1):
        if type(frames[i].node) is delimiter:
            return i
    return -1


# Decomposition, keyed by node type.  An entry is given a node and its
# context and returns the name of the rule that reduces the node, a
# ``Finished`` if the node ends the program, or the ``(slot, index, child)``
# to descend into.  Its ``rules`` are the rule names it can return.  A node
# type without an entry is stuck wherever it occurs (``_stuck``).
_DECOMPOSE: Dict[type, Callable[[Term, List[Frame]],
                                 Union[str, Finished, tuple]]] = {}


def _decomposes(*types: type, rules: Tuple[str, ...] = ()):
    """Register the decorated function as the entry of ``types``."""
    def register(fn):
        fn.rules = rules
        for ty in types:
            _DECOMPOSE[ty] = fn
        return fn
    return register


def _stuck(t: Term, frames: List[Frame]):
    if type(t) is Const:
        raise StuckTerm("a bare value is not a program")
    if type(t) in (Name, Globals):
        raise StuckTerm(f"unresolved name {A.to_source(t)}")
    raise StuckTerm(f"cannot decompose {t!r}")


# The node types that are a redex wherever they occur.
for _ty, _rule in ((While, "loop-enter"), (Break, "break"),
                   (ValueTuple, "truncate"), (Ref, "deref"),
                   (Function, "closure")):
    _decomposes(_ty, rules=(_rule,))(lambda t, frames, rule=_rule: rule)
del _ty, _rule


# ---- statements -----------------------------------------------------------

@_decomposes(Empty)
def _d_empty(t, frames):
    if frames:
        raise StuckTerm("empty statement in context position")
    return Finished("empty", frames=frames, term=t)


@_decomposes(ErrTerm)
def _d_error(t, frames):
    if frames:
        raise StuckTerm("error object in context position")
    return Finished("error", error_value=t.value, frames=frames, term=t)


@_decomposes(Seq, rules=("seq",))
def _d_seq(t, frames):
    return "seq" if type(t.first) is Empty else ("first", 0, t.first)


@_decomposes(Local, rules=("local",))
def _d_local(t, frames):
    return _next_el(t, 0) or "local"


@_decomposes(Assign, rules=("assign",))
def _d_assign(t, frames):
    for i, x in enumerate(t.targets):
        if type(x) is Index:
            if type(x.obj) is not Const:
                return ("target_obj", i, x.obj)
            if type(x.key) is not Const:
                return ("target_key", i, x.key)
        elif type(x) is not Ref:
            raise StuckTerm(f"unresolved assignment target {x!r}")
    return _next_el(t, 0) or "assign"


@_decomposes(ExprStat, rules=("discard",))
def _d_expr_stat(t, frames):
    return "discard" if type(t.expr) in _RESULTS else ("expr", 0, t.expr)


@_decomposes(If, rules=("if",))
def _d_if(t, frames):
    return "if" if type(t.cond) is Const else ("cond", 0, t.cond)


@_decomposes(LoopFrame, rules=("loop-restart", "loop-exit"))
def _d_loop_frame(t, frames):
    if type(t.inner) is While:
        return "loop-restart"
    if type(t.inner) is Empty:
        return "loop-exit"
    return ("inner", 0, t.inner)


@_decomposes(Return, rules=("return",))
def _d_return(t, frames):
    d = _next_el(t, 0)
    if d is not None:
        return d
    if _innermost(frames, CallFrame) >= 0:
        return "return"
    return Finished("return", values=tuple(flatten_el(t.exprs)),
                    frames=frames, term=t)


@_decomposes(FinStat, rules=("fin-done",))
def _d_fin_stat(t, frames):
    return "fin-done" if type(t.inner) is Empty else ("inner", 0, t.inner)


# ---- expressions ----------------------------------------------------------

@_decomposes(Index, rules=("index",))
def _d_index(t, frames):
    if type(t.obj) is not Const:
        return ("obj", 0, t.obj)
    if type(t.key) is not Const:
        return ("key", 0, t.key)
    return "index"


@_decomposes(Call, rules=("call",))
def _d_call(t, frames):
    if type(t.fn) is not Const:
        return ("fn", 0, t.fn)
    return _next_el(t, 0) or "call"


@_decomposes(TableCtor, rules=("table",))
def _d_table(t, frames):
    return _next_el(t, 0) or "table"


@_decomposes(BinOp, rules=("binop",))
def _d_binop(t, frames):
    if type(t.lhs) is not Const:
        return ("lhs", 0, t.lhs)
    if type(t.rhs) is not Const:
        return ("rhs", 0, t.rhs)
    return "binop"


@_decomposes(And, Or, rules=("shortcut",))
def _d_shortcut(t, frames):
    return "shortcut" if type(t.lhs) is Const else ("lhs", 0, t.lhs)


@_decomposes(Not, Neg, rules=("unop",))
def _d_unop(t, frames):
    return "unop" if type(t.operand) is Const else ("operand", 0, t.operand)


@_decomposes(CallFrame, rules=("call-finish",))
def _d_call_frame(t, frames):
    return "call-finish" if type(t.body) is Empty else ("body", 0, t.body)


@_decomposes(ProtectedFrame, rules=("pcall-ok",))
def _d_protected(t, frames):
    return "pcall-ok" if type(t.inner) in _RESULTS else ("inner", 0, t.inner)


@_decomposes(FinWrap, rules=("fin-done",))
def _d_fin_wrap(t, frames):
    return "fin-done" if type(t.inner) in _RESULTS else ("inner", 0, t.inner)


# ---------------------------------------------------------------------------
# Plugging
# ---------------------------------------------------------------------------


def _put_target(n: Assign, i: int, obj: Term, key: Term) -> Assign:
    t = n.targets
    return Assign(t[:i] + (Index(obj, key, pos=t[i].pos),) + t[i + 1:],
                  n.exprs, pos=n.pos)


# Each frame kind's node with the child in its hole replaced, keyed by node
# type and slot: one per evaluated slot of the node schema, a key's and a
# value's for a constructor's pairs, and the holes of an assignment target,
# which sit inside the target ``Index``.  A tuple slot is rebuilt by slicing
# around the hole.  ``_LIST_OF`` gives a node type's evaluated tuple slot
# and the slots of its holes (a constructor's fields are one list, each key
# before its value); ``_LIST_SLOTS`` are the latter.  The derived entries
# compile with this module's classes, below; here they are sources.
_PLUG = {
    (Assign, "target_obj"): lambda n, i, c: _put_target(
        n, i, c, n.targets[i].key),
    (Assign, "target_key"): lambda n, i, c: _put_target(
        n, i, n.targets[i].obj, c),
}
# ``_PARTS`` gives, for the same keys, the class and the compared fields of
# the node that ``_PLUG`` would build, as a tuple, without building it.
_PARTS = {
    (Assign, s): lambda n, i, c, build=_PLUG[Assign, s]: (
        Assign, build(n, i, c).targets, n.exprs)
    for s in ("target_obj", "target_key")
}
_LIST_OF: Dict[type, Tuple[str, Tuple[str, ...]]] = {}
_PLUG_SOURCES: Dict[Tuple[type, str], str] = {}
_PARTS_SOURCES: Dict[Tuple[type, str], str] = {}
for _cls, _slots in A.SLOTS.items():
    for _name, _shape, _evaluated in _slots:
        if not _evaluated:
            continue
        _seq = f"t.{_name}"
        _around = f"{_seq}[:i] + (%s,) + {_seq}[i + 1:]"
        _holes = ({_name: "c"} if _shape == A.ONE
                  else {_name: _around % "c"} if _shape == A.MANY
                  else {_name + "_key": _around % f"(c, {_seq}[i][1])",
                        _name + "_value": _around % f"({_seq}[i][0], c)"})
        for _slot, _new in _holes.items():
            _PLUG_SOURCES[_cls, _slot] = A.rebuilder(_cls, "i, c",
                                                     {_name: _new})
            _PARTS_SOURCES[_cls, _slot] = A.rebuilder(_cls, "i, c",
                                                      {_name: _new},
                                                      parts=True)
        if _shape != A.ONE:
            _LIST_OF[_cls] = (_name, tuple(_holes))
_LIST_SLOTS = frozenset(s for _, holes in _LIST_OF.values() for s in holes)


def _replace_child(node: Term, slot: str, idx: int, child: Term) -> Term:
    build = _PLUG.get((type(node), slot))
    if build is None:
        raise StuckTerm(f"cannot plug {slot} of {type(node).__name__}")
    return build(node, idx, child)


def plug(frames: List[Frame], t: Term) -> Term:
    for f in reversed(frames):
        t = _replace_child(f.node, f.slot, f.idx, t)
    return t


# What fills the hole of a holed node.  No runtime term holds a ``Name``;
# and holed nodes are compared only at the same slot and index, where both
# hold this one object.
HOLE = Name("[]")


def holed(f: Frame) -> tuple:
    """``f``'s holed node, its node with ``HOLE`` in its hole: the frame's
    share of every term plugged into it.  It is kept as the node's class
    and compared fields (``_PARTS``), which compare and hash as the node
    would, without building the node.  Memoized on the frame."""
    h = getattr(f, "_holed", None)
    if h is None:
        h = f._holed = _PARTS[type(f.node), f.slot](f.node, f.idx, HOLE)
    return h


def context_hash(frames: Sequence[Frame]) -> int:
    """A hash of the context ``frames``: each frame folds the hash of the
    frames below it with its slot, index and holed node.

    Memoized on each frame, which is valid in every list that holds it
    (see ``Frame``): only the frames pushed since the last call on an
    ancestor of the list are hashed."""
    i = len(frames)
    while i and getattr(frames[i - 1], "_hash", None) is None:
        i -= 1
    h = frames[i - 1]._hash if i else 0
    for f in frames[i:]:
        h = f._hash = hash((h, f.slot, f.idx, holed(f)))
    return h


def same_context(a: Sequence[Frame], b: Sequence[Frame]) -> bool:
    """Do the contexts ``a`` and ``b``, both hashed by ``context_hash``,
    plug every term into equal terms?

    They are compared from the top and the comparison stops at the first
    frame they share: the frames below it are shared too (see ``Frame``).
    Frames that differ compare by the hash of the context they top, then
    by slot, index and holed node."""
    if len(a) != len(b):
        return False
    for i in range(len(a) - 1, -1, -1):
        fa, fb = a[i], b[i]
        if fa is fb:
            return True
        if (fa._hash != fb._hash or fa.slot != fb.slot or fa.idx != fb.idx
                or holed(fa) != holed(fb)):
            return False
    return True


# ---------------------------------------------------------------------------
# One reduction step
# ---------------------------------------------------------------------------


class _Occurrences:
    """The occurrences in a focused state's term, as a multiset.

    ``counts`` maps each location occurring in the term to how often it
    does, and ``markers`` counts the term's finalizer markers.  A step
    moves them by what it changed (``move``), and records in ``lost`` the
    locations whose count fell to zero since the set was last taken; it is
    None until then, since counts built afresh know no earlier roots.
    ``quiet`` is the quiescence memo read with ``lost`` (the skip rule of
    ``gc``), None where no cycle vouches for the stores.
    """

    __slots__ = ("counts", "markers", "lost", "quiet")

    def __init__(self, at: Union[Redex, Finished], term: Optional[Term]):
        counts, self.markers = summary(at.term if term is None else term)
        self.counts = dict(counts)
        self.lost: Optional[Set[Location]] = None
        self.quiet: Optional[tuple] = None
        if term is None:
            for f in at.frames:
                self.move(f.child, f.node)

    def fork(self) -> "_Occurrences":
        """A copy that moves apart from this one, with nothing lost yet
        and no memo."""
        occ = _Occurrences.__new__(_Occurrences)
        occ.counts, occ.markers = dict(self.counts), self.markers
        occ.lost, occ.quiet = set(), None
        return occ

    def move(self, out: Term, into: Term, cut: Sequence[Frame] = ()) -> None:
        """Count the term after ``into`` replaced ``out`` in the hole, and
        the frames ``cut`` were cut away around it: each cut frame's share
        is its node without the child it was pushed over.

        ``into`` is added first and only what the term held is taken away,
        so a count falls to zero only for a location the term lost."""
        new, old = summary(into), summary(out)
        if new is old and not cut:
            return
        dropped = [old]
        for f in cut:
            (locs, markers), child = summary(f.node), summary(f.child)
            share = dict(locs)
            for l, k in child[0].items():
                share[l] -= k
            dropped.append((share, markers - child[1]))
        counts = self.counts
        for l, k in new[0].items():
            counts[l] = counts.get(l, 0) + k
        self.markers += new[1]
        lost = self.lost
        for locs, markers in dropped:
            self.markers -= markers
            for l, k in locs.items():
                if not k:
                    continue
                k = counts[l] - k
                if k:
                    counts[l] = k
                else:
                    del counts[l]
                    if lost is not None:
                        lost.add(l)


@A.record
class Focused:
    """A configuration held as its stores and the split of its term.

    ``term`` is ``plug(at.frames, at.term)``, built on first read.  The
    occurrences in the term (``_Occurrences``) are counted on the first
    read of ``roots()`` or ``finalizer_in_flight``; from then on each step
    moves them by its redex and contractum and the frames it cut, and
    passes them to the successor with the frame list, together with the
    lost roots and the quiescence memo that ``gc.memo_vouches`` reads.
    """

    sigma: ValueStore
    theta: ObjectStore
    at: Union[Redex, Finished]
    _term: Optional[Term] = field(default=None, repr=False)
    _occurrences: Optional[_Occurrences] = field(default=None, repr=False,
                                                 compare=False)

    @classmethod
    def of(cls, config: Configuration) -> "Focused":
        return cls(config.sigma, config.theta, decompose(config.term),
                   config.term)

    def refocused(self, sigma: ValueStore, theta: ObjectStore,
                  frames: List[Frame], t: Term) -> "Focused":
        """The state with stores ``sigma`` and ``theta`` whose term is
        ``t`` in the hole of ``frames``, a prefix of this state's frame
        list, which it takes over (``refocus``) with the occurrences:
        ``t`` replaces the focus, and the frames past ``frames`` are cut."""
        occ = self._occurrences
        if occ is not None:
            occ.move(self.at.term, t, self.at.frames[len(frames):])
        return Focused(sigma, theta, refocus(frames, t), None, occ)

    @property
    def term(self) -> Term:
        if self._term is None:
            self._term = plug(self.at.frames, self.at.term)
        return self._term

    @property
    def config(self) -> Configuration:
        return Configuration(self.sigma, self.theta, self.term)

    def _counted(self) -> _Occurrences:
        if self._occurrences is None:
            self._occurrences = _Occurrences(self.at, self._term)
        return self._occurrences

    def roots(self) -> KeysView[Location]:
        """The locations occurring in the term, the collector's root set:
        a live view of the counts."""
        return self._counted().counts.keys()

    @property
    def finalizer_in_flight(self) -> bool:
        """Does the term hold a ``FinStat``/``FinWrap`` marker?  A pending
        ``FinWrap`` argument of a spliced thunk call sits in its frame's
        node; a marker cut away by an unwind left with its frame."""
        return (self._occurrences or self._counted()).markers > 0

    def lost_roots(self) -> Optional[Set[Location]]:
        """The locations whose count fell to zero in the steps since the
        last call: a superset of the roots lost since then, as one may
        occur again.  None on the first call after the counts were built,
        when nothing is known of what was lost."""
        occ = self._counted()
        lost, occ.lost = occ.lost, set()
        return lost

    def with_stores(self, sigma: ValueStore, theta: ObjectStore) -> "Focused":
        return Focused(sigma, theta, self.at, self._term, self._occurrences)

    def branch(self, sigma: ValueStore, theta: ObjectStore) -> "Focused":
        """This state's term over the stores ``sigma`` and ``theta``, with
        a frame list and occurrence counts of its own, so that stepping
        either state leaves the other as it was; no memo."""
        at = self.at
        if type(at) is Redex:
            at = Redex(list(at.frames), at.term, at.rule)
        return Focused(sigma, theta, at, self._term, self._counted().fork())


_plugs, _parts = A.compile_records(Finished, Focused,
                                   derived=(_PLUG_SOURCES, _PARTS_SOURCES))
_PLUG.update(_plugs)
_PARTS.update(_parts)


class StepResult:
    """One reduction: the focused successor ``state``, the rule applied,
    the printed lines, whether ``collectgarbage()`` asked for a drain and
    the ``redex`` reduced.  ``config`` is built on first read."""

    __slots__ = ("state", "rule", "output", "gc_request", "redex")

    def __init__(self, state: Focused, rule: str, output: List[str],
                 gc_request: bool, redex: Term):
        self.state = state
        self.rule = rule
        self.output = output
        self.gc_request = gc_request
        self.redex = redex

    @property
    def config(self) -> Configuration:
        return self.state.config


BUILTINS = (
    "print", "error", "pcall", "setmetatable", "getmetatable",
    "tostring", "collectgarbage",
)


def render(v: Value) -> str:
    """print-style rendering; table/closure identities are canonical ids."""
    if isinstance(v, Str):
        return v.s
    if isinstance(v, Num):
        return format_number(v.x)
    return repr(v)


# What a contraction leaves: the new stores, the term that fills the hole
# of the (possibly cut back) context, the rule name and the drain request.
if TYPE_CHECKING:
    _Contracted = Tuple[ValueStore, ObjectStore, Term, str, bool]


def step(config: Union[Configuration, Focused]) -> Union[StepResult, Finished]:
    """Apply exactly one reduction to a well-formed configuration.

    A :class:`Configuration` is decomposed from the root; a
    :class:`Focused` one is stepped from its split, whose frame list the
    successor takes over.
    """
    state = config if type(config) is Focused else Focused.of(config)
    d = state.at
    if type(d) is Finished:
        return d
    out: List[str] = []
    try:
        sigma, theta, hole, rule, gc_request = _CONTRACT[d.rule](
            d, state.sigma, state.theta, out)
    except LuaError as e:
        hole = _unwind_error(d, e.value)
        sigma, theta, rule, gc_request = state.sigma, state.theta, "raise", False
    occ = state._occurrences
    if occ is not None:
        occ.move(d.term, hole, d.cut)
    nxt = Focused(sigma, theta, refocus(d.frames, hole), None, occ)
    return StepResult(nxt, rule, out, gc_request, d.term)


def _cut(d: Redex, i: int) -> None:
    """Cut the context of ``d`` back to its first ``i`` frames, keeping
    the ones cut in ``d.cut``."""
    d.cut = d.frames[i:]
    del d.frames[i:]


def _unwind(d: Redex, delimiter: type) -> bool:
    """Cut the context of ``d`` back to just outside the innermost
    ``delimiter`` frame; False (and the context untouched) if there is
    none."""
    i = _innermost(d.frames, delimiter)
    if i < 0:
        return False
    _cut(d, i)
    return True


def _unwind_error(d: Redex, v: Value) -> Term:
    if _unwind(d, ProtectedFrame):
        return ValueTuple((A.FALSE, v))
    _cut(d, 0)
    return ErrTerm(v)


def _bind(sigma: ValueStore, names: Tuple[str, ...], vals: List[Value]):
    """Allocate a reference per name, holding its value adjusted to the
    names; the new store and the name-to-reference substitution."""
    mapping = {}
    for name, v in zip(names, adjust(vals, len(names))):
        sigma, r = alloc_value(sigma, v)
        mapping[name] = r
    return sigma, mapping


# Contraction, keyed by rule name.  An entry is given the redex, the stores
# and the list that ``print`` appends to.  The statement and expression
# rules whose result is fixed by the redex alone are the lambdas in the
# table itself.

def _c_local(d: Redex, sigma, theta, out) -> _Contracted:
    t = d.term
    sigma, mapping = _bind(sigma, t.names, flatten_el(t.exprs))
    return sigma, theta, A.subst(t.body, mapping), "local", False


def _c_assign(d: Redex, sigma, theta, out) -> _Contracted:
    t = d.term
    vals = adjust(flatten_el(t.exprs), len(t.targets))
    for target, v in zip(t.targets, vals):
        if type(target) is Ref:
            sigma = sigma.bind(target.r, v)
        else:
            theta = _table_write(theta, target.obj.value, target.key.value, v)
    return sigma, theta, Empty(), "assign", False


def _c_if(d: Redex, sigma, theta, out) -> _Contracted:
    t = d.term
    if truthy(t.cond.value):
        return sigma, theta, t.then_body, "if-true", False
    return sigma, theta, t.else_body, "if-false", False


def _c_loop_restart(d: Redex, sigma, theta, out) -> _Contracted:
    t = d.term
    w = t.inner
    unrolled = If(w.cond, Seq(w.body, w, pos=w.pos), Empty(), pos=w.pos)
    return sigma, theta, LoopFrame(unrolled, pos=t.pos), "loop-restart", False


def _c_break(d: Redex, sigma, theta, out) -> _Contracted:
    if not _unwind(d, LoopFrame):
        raise StuckTerm("break outside any loop")
    return sigma, theta, Empty(), "break", False


def _c_return(d: Redex, sigma, theta, out) -> _Contracted:
    vals = tuple(flatten_el(d.term.exprs))
    if not _unwind(d, CallFrame):
        raise StuckTerm("return-unwind without a call frame")
    return sigma, theta, ValueTuple(vals), "return", False


def _c_fin_done(d: Redex, sigma, theta, out) -> _Contracted:
    t = d.term
    hole = Empty() if type(t) is FinStat else t.inner
    return sigma, theta, hole, "fin-done", False


def _c_truncate(d: Redex, sigma, theta, out) -> _Contracted:
    values = d.term.values
    return sigma, theta, Const(values[0] if values else Nil()), "truncate", False


def _c_index(d: Redex, sigma, theta, out) -> _Contracted:
    t = d.term
    hole, rule = _index_read(theta, t.obj.value, t.key.value, t.pos)
    return sigma, theta, hole, rule, False


def _c_call(d: Redex, sigma, theta, out) -> _Contracted:
    t = d.term
    fn = t.fn.value
    args = flatten_el(t.args)
    if isinstance(fn, Cid):
        clo = theta.closure(fn.n)
        sigma, mapping = _bind(sigma, clo.params, args)
        body = CallFrame(A.subst(clo.body, mapping), pos=t.pos)
        return sigma, theta, body, "call", False
    if isinstance(fn, A.Builtin):
        theta, hole, gc_request = _call_builtin(fn.name, args, t, theta, out)
        return sigma, theta, hole, f"builtin:{fn.name}", gc_request
    raise LuaError.msg(f"attempt to call a {type_name(fn)} value")


def _c_closure(d: Redex, sigma, theta, out) -> _Contracted:
    t = d.term
    theta, cid = alloc_closure(theta, t.params, t.body)
    return sigma, theta, Const(Cid(cid)), "closure", False


def _c_table(d: Redex, sigma, theta, out) -> _Contracted:
    pairs = tuple((k.value, v.value) for k, v in d.term.fields)
    try:
        theta, tid = alloc_table(theta, pairs)
    except InvalidKey as e:
        raise LuaError.msg(str(e)) from None
    return sigma, theta, Const(Tid(tid)), "table", False


def _c_binop(d: Redex, sigma, theta, out) -> _Contracted:
    t = d.term
    return (sigma, theta, Const(_binop(t.op, t.lhs.value, t.rhs.value)),
            "binop", False)


def _c_shortcut(d: Redex, sigma, theta, out) -> _Contracted:
    t = d.term
    lhs = t.lhs.value
    if type(t) is And:
        return sigma, theta, t.rhs if truthy(lhs) else Const(lhs), "and", False
    return sigma, theta, Const(lhs) if truthy(lhs) else t.rhs, "or", False


def _c_unop(d: Redex, sigma, theta, out) -> _Contracted:
    t = d.term
    v = t.operand.value
    if type(t) is Not:
        return sigma, theta, Const(A.Bool(not truthy(v))), "not", False
    if not isinstance(v, Num):
        raise LuaError.msg(
            f"attempt to perform arithmetic on a {type_name(v)} value")
    return sigma, theta, Const(Num(-v.x)), "neg", False


def _c_pcall_ok(d: Redex, sigma, theta, out) -> _Contracted:
    inner = d.term.inner
    vals = (inner.value,) if type(inner) is Const else inner.values
    return sigma, theta, ValueTuple((A.TRUE,) + vals), "pcall-ok", False


_CONTRACT: Dict[str, Callable[[Redex, ValueStore, ObjectStore, List[str]],
                               _Contracted]] = {
    # ---- statements -------------------------------------------------------
    "seq": lambda d, sigma, theta, out: (
        sigma, theta, d.term.rest, "seq", False),
    "local": _c_local,
    "assign": _c_assign,
    "discard": lambda d, sigma, theta, out: (
        sigma, theta, Empty(), "discard", False),
    "if": _c_if,
    "loop-enter": lambda d, sigma, theta, out: (
        sigma, theta, LoopFrame(d.term, pos=d.term.pos), "loop-enter", False),
    "loop-restart": _c_loop_restart,
    "loop-exit": lambda d, sigma, theta, out: (
        sigma, theta, Empty(), "loop-exit", False),
    "break": _c_break,
    "return": _c_return,
    "fin-done": _c_fin_done,
    # ---- expressions ------------------------------------------------------
    "deref": lambda d, sigma, theta, out: (
        sigma, theta, Const(sigma.lookup(d.term.r)), "deref", False),
    "truncate": _c_truncate,
    "index": _c_index,
    "call": _c_call,
    "closure": _c_closure,
    "table": _c_table,
    "binop": _c_binop,
    "shortcut": _c_shortcut,
    "unop": _c_unop,
    "call-finish": lambda d, sigma, theta, out: (
        sigma, theta, ValueTuple(()), "call-finish", False),
    "pcall-ok": _c_pcall_ok,
}


def _table_write(theta: ObjectStore, obj: Value, key: Value, v: Value) -> ObjectStore:
    if not isinstance(obj, Tid):
        raise LuaError.msg(f"attempt to index a {type_name(obj)} value")
    try:
        check_key(key)
    except InvalidKey as e:
        raise LuaError.msg(str(e)) from None
    table = theta.table(obj.n)
    new = table.set(key, v)
    return theta if new is table else theta.put_table(obj.n, new)


def _index_read(theta: ObjectStore, obj: Value, key: Value, pos):
    """The term an index reads, and the rule name it is traced under."""
    if not isinstance(obj, Tid):
        raise LuaError.msg(f"attempt to index a {type_name(obj)} value")
    table = theta.table(obj.n)
    if table.has(key):
        return Const(table.get(key)), "index"
    handler = index_metatable(obj.n, "__index", theta)
    if isinstance(handler, Nil):
        return Const(Nil()), "index"
    if isinstance(handler, Tid):
        # repeat the access on the handler table
        return Index(Const(handler), Const(key), pos=pos), "index-meta"
    raise LuaError.msg("'__index' handler is not a table")


def _binop(op: str, a: Value, b: Value) -> Value:
    if op == "==":
        return A.Bool(a == b)
    if op == "~=":
        return A.Bool(a != b)
    if op in ("<", "<=", ">", ">="):
        if isinstance(a, Num) and isinstance(b, Num):
            x, y = a.x, b.x
        elif isinstance(a, Str) and isinstance(b, Str):
            x, y = a.s, b.s  # type: ignore[assignment]
        else:
            raise LuaError.msg(
                f"attempt to compare {type_name(a)} with {type_name(b)}"
            )
        res = {"<": x < y, "<=": x <= y, ">": x > y, ">=": x >= y}[op]
        return A.Bool(res)
    if not (isinstance(a, Num) and isinstance(b, Num)):
        bad = a if not isinstance(a, Num) else b
        raise LuaError.msg(
            f"attempt to perform arithmetic on a {type_name(bad)} value"
        )
    x, y = a.x, b.x
    try:
        if op == "+":
            return Num(x + y)
        if op == "-":
            return Num(x - y)
        if op == "*":
            return Num(x * y)
        if op == "/":
            if y == 0:
                return Num(x * math.copysign(math.inf, y))
            return Num(x / y)
        if op == "%":
            if y == 0:
                return Num(math.nan)
            return Num(x - math.floor(x / y) * y)
        if op == "^":
            try:
                return Num(math.pow(x, y))
            except ValueError:
                return Num(math.nan)
    except OverflowError:
        return Num(math.inf)
    raise StuckTerm(f"unknown operator {op}")  # pragma: no cover


def _call_builtin(name: str, args: List[Value], t: Call, theta: ObjectStore,
                  out: List[str]) -> Tuple[ObjectStore, Term, bool]:
    """A builtin call's object store, result and drain request."""
    if name == "print":
        out.append("\t".join(render(v) for v in args))
        return theta, ValueTuple(()), False
    if name == "tostring":
        v = args[0] if args else Nil()
        if isinstance(v, (Tid, Cid, A.Builtin)):
            raise LuaError.msg(
                f"{type_name(v)} identity is not observable in this model"
            )
        return theta, Const(Str(render(v))), False
    if name == "error":
        raise LuaError(args[0] if args else Nil())
    if name == "pcall":
        if not args:
            raise LuaError.msg("bad argument #1 to 'pcall' (value expected)")
        inner = Call(Const(args[0]), tuple(Const(a) for a in args[1:]), pos=t.pos)
        return theta, ProtectedFrame(inner, pos=t.pos), False
    if name == "setmetatable":
        if not args or not isinstance(args[0], Tid):
            raise LuaError.msg(
                "bad argument #1 to 'setmetatable' (table expected)"
            )
        meta = args[1] if len(args) > 1 else Nil()
        if not isinstance(meta, (Tid, Nil)):
            raise LuaError.msg(
                "bad argument #2 to 'setmetatable' (nil or table expected)"
            )
        tid = args[0].n
        if not isinstance(index_metatable(tid, "__metatable", theta), Nil):
            raise LuaError.msg("cannot change a protected metatable")
        table = theta.table(tid)
        mark = set_fin(tid, meta, theta)
        new_meta = meta.n if isinstance(meta, Tid) else None
        theta = theta.put_table(tid, replace(table, meta=new_meta, pos=mark))
        return theta, Const(args[0]), False
    if name == "getmetatable":
        v = args[0] if args else Nil()
        if not isinstance(v, Tid):
            return theta, Const(Nil()), False
        table = theta.table(v.n)
        if table.meta is None:
            return theta, Const(Nil()), False
        guard = index_metatable(v.n, "__metatable", theta)
        if not isinstance(guard, Nil):
            return theta, Const(guard), False
        return theta, Const(Tid(table.meta)), False
    if name == "collectgarbage":
        return theta, Const(Num(0.0)), True
    raise LuaError.msg(f"attempt to call unknown builtin '{name}'")


# ---------------------------------------------------------------------------
# Program loading
# ---------------------------------------------------------------------------


def load_term(term: Term) -> Configuration:
    """Build the initial configuration: allocate the global-environment
    table (holding the builtins) and patch the globals placeholder."""
    fields = tuple((Str(n), A.Builtin(n)) for n in BUILTINS)
    theta, gtid = alloc_table(ObjectStore(), fields)
    patched = _patch_globals(term, gtid)
    return Configuration(ValueStore(), theta, patched)


def _patch_globals(t: Term, gtid: int) -> Term:
    """Replace every globals placeholder by the environment table."""
    def visit(n: Term, _):
        if isinstance(n, Globals):
            return Const(Tid(gtid), pos=n.pos), False
        return n, True

    return A.rewrite(t, None, visit)


def load_program(text: str, origin: str = "<inline>") -> Configuration:
    return load_term(desugar(parse(text, origin)))
