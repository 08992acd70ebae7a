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

Control effects (errors, break, return, pcall) unwind the context in a
single step by cutting the frame list back to the matching delimiter,
which is looked for from the top of the frame list: a ``return`` costs
the distance to its call, not the depth of the context.

A focused state also answers what a collection cycle asks of its term
without plugging it: ``roots()``, the locations occurring in the term, and
``finalizer_in_flight``.  Each frame summarizes its node outside the hole
once (``Frame.summary``), by combining the memoized summaries of the
hole's siblings (``_SIBLINGS``).  A list-slot frame does not walk its
node's elements for that: it carries the locations of the values before the
hole, extended by those that became values at each step, and shares the
summaries of the elements after the hole, taken once per evaluation of the
list (``_Rest``).  The root set itself is kept as occurrence counts of the
frames' locations (``_Counted``), carried from a state to its successor
with the frame list, as a remembered set is (Ungar, *Generation
Scavenging*, 1984).  A step only changes the top of the context, so the
counts are brought up to date by uncounting the frames it lost and
counting those it pushed; a list frame that follows one of the same
evaluation applies only its delta, the values it added and the positions
it passed.  ``roots()`` is then the counted locations plus the focus's.
The Python work of a step thus grows with neither the depth nor the width
of its context; what still grows with the width is tuple copying.

This module holds the step relation and program loading only.  Iterating
the relation, with or without GC, is ``executor.Machine``'s job; under the
``never`` schedule ``collectgarbage()`` is inert there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple, Union

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


# The slots that hold an expression list, evaluated left to right.  A
# constructor's fields are one list of positions, each key before its value.
_LIST_SLOTS = frozenset(("exprs", "args", "field_key", "field_value"))


class Frame:
    """A node of the context with the slot its hole sits in.

    In a list slot, ``done`` holds the locations of the values before the
    hole and ``rest`` the summaries of the rest of the node (``_Rest``),
    shared by every frame of one evaluation of the list.  Frames are
    compared by identity: a refocused frame's slot still holds a stale
    child.
    """

    __slots__ = ("node", "slot", "idx", "done", "rest", "_summary")

    def __init__(self, node: Term, slot: str, idx: int = 0,
                 done: Tuple[Location, ...] = (),
                 rest: Optional["_Rest"] = None):
        self.node = node
        self.slot = slot
        self.idx = idx
        self.done = done
        self.rest = rest
        self._summary: Optional[A.Summary] = None

    def __repr__(self) -> str:
        return f"Frame({self.node!r}, {self.slot!r}, {self.idx})"

    @property
    def summary(self) -> A.Summary:
        """The locations of ``node`` outside the hole, and whether that part
        holds a finalizer marker (the node itself may be one).  Computed on
        first read.

        Outside a list slot it combines the memoized summaries of the
        hole's siblings (``_SIBLINGS``), in print order.  The hole is left
        out by position: once refocused, the slot still holds a stale
        child, which may be the same object as a sibling.  In a list slot
        the locations may repeat and are not in print order.
        """
        if self._summary is None:
            node = self.node
            if self.rest is None:
                siblings = _SIBLINGS[type(node), self.slot](node, self.idx)
                for s in siblings:
                    if s._summary is None:
                        summary(s)
                self._summary = A.combine(siblings, type(node) in _MARKERS)
            else:
                locs, marker = self.rest.after(_position(self.slot, self.idx))
                self._summary = self.done + locs, marker
        return self._summary


class _Rest:
    """The summaries of a list node's positions and of its other children
    (a ``Local``'s body, a call's function, an assignment's targets), taken
    from the node as the evaluation of its list found it.  The positions
    after a hole are not evaluated yet, so each frame of that evaluation
    reads its suffix here.  Computed on first read: a run that asks no
    frame for its summary pays nothing."""

    def __init__(self, node: Term, slot: str):
        self.node = node
        self.slot = slot

    @cached_property
    def _flat(self) -> Tuple[Tuple[Location, ...], List[int], int]:
        """The locations of every position and then of the other children,
        in order; where each one's share ends; the last one that holds a
        marker (-1 if none).  The other children come after every
        position, so every suffix holds them."""
        locs: List[Location] = []
        ends: List[int] = []
        marked = -1
        others = _SIBLINGS[type(self.node), self.slot](self.node, 0)
        for p, e in enumerate(_positions(self.node) + others):
            if e is not None:
                elocs, marker = summary(e)
                locs.extend(elocs)
                if marker:
                    marked = p
            ends.append(len(locs))
        return tuple(locs), ends, marked

    def after(self, pos: int) -> A.Summary:
        """The summary of what comes after position ``pos``."""
        locs, ends, marked = self._flat
        return locs[ends[pos]:], marked > pos


def _positions(t: Term) -> Tuple[Optional[Term], ...]:
    if isinstance(t, TableCtor):
        return tuple(x for kv in t.fields for x in kv)
    return t.args if isinstance(t, Call) else t.exprs


def _position(slot: str, idx: int) -> int:
    """A list hole's position: its index, with a constructor's key and
    value at ``2 * idx`` and ``2 * idx + 1``."""
    if slot == "field_key":
        return 2 * idx
    if slot == "field_value":
        return 2 * idx + 1
    return idx


def _element(t: Term, p: int) -> Optional[Term]:
    if isinstance(t, TableCtor):
        return t.fields[p >> 1][p & 1]
    return (t.args if isinstance(t, Call) else t.exprs)[p]


def _list_frame(t: Term, slot: str, idx: int,
                last: Optional[Frame] = None) -> Frame:
    """The frame of ``t`` with its hole at list slot ``slot``/``idx``.

    ``last`` is the frame this one follows in the same evaluation of the
    list, if any: the locations before the hole extend its own by the
    positions that became values since, and the summaries of the rest are
    its own.  Every position before a list hole holds a value, so the work
    is that of the positions passed.
    """
    if last is None:
        start, done, rest = 0, (), _Rest(t, slot)
    else:
        start, done, rest = _position(last.slot, last.idx), last.done, last.rest
    for p in range(start, _position(slot, idx)):
        e = _element(t, p)
        if e is not None:
            done += tuple(A.value_locations(e.value))
    return Frame(t, slot, idx, done, rest)


class Redex:
    """A redex ``term`` in the context ``frames``, reduced by ``rule``.
    Compared by identity, like its frames."""

    __slots__ = ("frames", "term", "rule")

    def __init__(self, frames: List[Frame], term: Term, rule: str):
        self.frames = frames
        self.term = term
        self.rule = rule

    def __repr__(self) -> str:
        return f"Redex({self.rule!r}, {self.term!r})"


@dataclass(frozen=True)
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
                frames.append(_list_frame(t, slot, idx, f))
                t = child
    return _descend(frames, t)


def _descend(frames: List[Frame], t: Term) -> Union[Redex, Finished]:
    """Descend from ``t``, whose context is ``frames``, to the redex or the
    final node, pushing a frame per node passed."""
    while True:
        res = _DECOMPOSE.get(type(t), _stuck)(t, frames)
        if type(res) is tuple:
            slot, idx, child = res
            frames.append(_list_frame(t, slot, idx) if slot in _LIST_SLOTS
                          else Frame(t, slot, idx))
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
    if type(t) is TableCtor:
        fields = t.fields
        for i in range(start, len(fields)):
            k, v = fields[i]
            if k is not None and type(k) is not Const:
                return ("field_key", i, k)
            if type(v) is not Const:
                return ("field_value", i, v)
        return None
    slot, seq = ("args", t.args) if type(t) is Call else ("exprs", t.exprs)
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


def _put(seq: tuple, i: int, x) -> tuple:
    return seq[:i] + (x,) + seq[i + 1:]


def _put_target(n: Assign, i: int, obj: Term, key: Term) -> Assign:
    return Assign(_put(n.targets, i, Index(obj, key, pos=n.targets[i].pos)),
                  n.exprs, pos=n.pos)


# Each frame kind's node with the child in its hole replaced, keyed by node
# type and slot.  A list slot is rebuilt by slicing around the hole.
_PLUG = {
    (Seq, "first"): lambda n, i, c: Seq(c, n.rest, pos=n.pos),
    (Local, "exprs"): lambda n, i, c: Local(
        n.names, _put(n.exprs, i, c), n.body, pos=n.pos),
    (Assign, "exprs"): lambda n, i, c: Assign(
        n.targets, _put(n.exprs, i, c), pos=n.pos),
    (Assign, "target_obj"): lambda n, i, c: _put_target(
        n, i, c, n.targets[i].key),
    (Assign, "target_key"): lambda n, i, c: _put_target(
        n, i, n.targets[i].obj, c),
    (Return, "exprs"): lambda n, i, c: Return(_put(n.exprs, i, c), pos=n.pos),
    (ExprStat, "expr"): lambda n, i, c: ExprStat(c, pos=n.pos),
    (If, "cond"): lambda n, i, c: If(c, n.then_body, n.else_body, pos=n.pos),
    (Index, "obj"): lambda n, i, c: Index(c, n.key, pos=n.pos),
    (Index, "key"): lambda n, i, c: Index(n.obj, c, pos=n.pos),
    (Call, "fn"): lambda n, i, c: Call(c, n.args, pos=n.pos),
    (Call, "args"): lambda n, i, c: Call(n.fn, _put(n.args, i, c), pos=n.pos),
    (TableCtor, "field_key"): lambda n, i, c: TableCtor(
        _put(n.fields, i, (c, n.fields[i][1])), pos=n.pos),
    (TableCtor, "field_value"): lambda n, i, c: TableCtor(
        _put(n.fields, i, (n.fields[i][0], c)), pos=n.pos),
    (BinOp, "lhs"): lambda n, i, c: BinOp(n.op, c, n.rhs, pos=n.pos),
    (BinOp, "rhs"): lambda n, i, c: BinOp(n.op, n.lhs, c, pos=n.pos),
    (And, "lhs"): lambda n, i, c: And(c, n.rhs, pos=n.pos),
    (Or, "lhs"): lambda n, i, c: Or(c, n.rhs, pos=n.pos),
    (Not, "operand"): lambda n, i, c: Not(c, pos=n.pos),
    (Neg, "operand"): lambda n, i, c: Neg(c, pos=n.pos),
    (CallFrame, "body"): lambda n, i, c: CallFrame(c, pos=n.pos),
    (LoopFrame, "inner"): lambda n, i, c: LoopFrame(c, pos=n.pos),
    (FinStat, "inner"): lambda n, i, c: FinStat(c, pos=n.pos),
    (ProtectedFrame, "inner"): lambda n, i, c: ProtectedFrame(c, pos=n.pos),
    (FinWrap, "inner"): lambda n, i, c: FinWrap(c, pos=n.pos),
}


# The hole's siblings, keyed like ``_PLUG``: the other children of the
# node, in print order, with the hole left out by position.  In a list slot
# they are the children outside the list (``_Rest`` covers its positions).
_SIBLINGS = {
    (Seq, "first"): lambda n, i: (n.rest,),
    (Local, "exprs"): lambda n, i: (n.body,),
    (Assign, "exprs"): lambda n, i: n.targets,
    (Assign, "target_obj"): lambda n, i: (
        n.targets[:i] + (n.targets[i].key,) + n.targets[i + 1:] + n.exprs),
    (Assign, "target_key"): lambda n, i: (
        n.targets[:i] + (n.targets[i].obj,) + n.targets[i + 1:] + n.exprs),
    (Return, "exprs"): lambda n, i: (),
    (ExprStat, "expr"): lambda n, i: (),
    (If, "cond"): lambda n, i: (n.then_body, n.else_body),
    (Index, "obj"): lambda n, i: (n.key,),
    (Index, "key"): lambda n, i: (n.obj,),
    (Call, "fn"): lambda n, i: n.args,
    (Call, "args"): lambda n, i: (n.fn,),
    (TableCtor, "field_key"): lambda n, i: (),
    (TableCtor, "field_value"): lambda n, i: (),
    (BinOp, "lhs"): lambda n, i: (n.rhs,),
    (BinOp, "rhs"): lambda n, i: (n.lhs,),
    (And, "lhs"): lambda n, i: (n.rhs,),
    (Or, "lhs"): lambda n, i: (n.rhs,),
    (Not, "operand"): lambda n, i: (),
    (Neg, "operand"): lambda n, i: (),
    (CallFrame, "body"): lambda n, i: (),
    (LoopFrame, "inner"): lambda n, i: (),
    (FinStat, "inner"): lambda n, i: (),
    (ProtectedFrame, "inner"): lambda n, i: (),
    (FinWrap, "inner"): lambda n, i: (),
}

# The node types that are finalizer markers.
_MARKERS = (FinStat, FinWrap)


def _replace_child(node: Term, slot: str, idx: int, child: Term) -> Term:
    build = _PLUG.get((type(node), slot))
    if build is None:
        raise StuckTerm(f"cannot plug {slot} of {type(node).__name__}")
    return build(node, idx, child)


def plug(frames: List[Frame], t: Term) -> Term:
    for f in reversed(frames):
        t = _replace_child(f.node, f.slot, f.idx, t)
    return t


# ---------------------------------------------------------------------------
# One reduction step
# ---------------------------------------------------------------------------


class _Counted:
    """The root set of a frame list, kept as occurrence counts.

    ``counts`` maps each location to the number of times the summaries of
    the ``frames`` counted hold it, and ``markers`` is the number of those
    frames that hold a marker.  It is carried from a state to its
    successor with the frame list, and ``sync`` brings it up to date at the
    cost of what changed, not of the depth of the context.
    """

    __slots__ = ("counts", "frames", "markers")

    def __init__(self) -> None:
        self.counts: Dict[Location, int] = {}
        self.frames: List[Frame] = []
        self.markers = 0

    def sync(self, frames: List[Frame]) -> None:
        """Count ``frames`` instead of the frames counted so far.

        Frames are only pushed and popped, so walking down from the top to
        the first frame already counted finds where the two lists part:
        the counted frames above it are uncounted and the new ones
        counted.  A new list frame that follows a lost one of the same
        evaluation (same ``_Rest``) only applies its delta.
        """
        counted = self.frames
        i = min(len(counted), len(frames))
        while i and counted[i - 1] is not frames[i - 1]:
            i -= 1
        j = i
        if (i < len(counted) and i < len(frames)
                and frames[i].rest is not None
                and frames[i].rest is counted[i].rest):
            self._advance(counted[i], frames[i])
            j = i + 1
        for f in counted[j:]:
            self._add(f, -1)
        for f in frames[j:]:
            self._add(f, 1)
        counted[i:] = frames[i:]

    def _add(self, f: Frame, sign: int) -> None:
        locs, marker = f.summary
        if locs:
            self._count(locs, sign)
        if marker:
            self.markers += sign

    def _advance(self, old: Frame, new: Frame) -> None:
        """Recount a list frame as ``new``, a later frame of its evaluation:
        the values that ``new`` adds to ``old.done`` join, and the
        positions it passed leave."""
        self._count(new.done[len(old.done):], 1)
        locs, ends, marked = new.rest._flat
        p0, p1 = _position(old.slot, old.idx), _position(new.slot, new.idx)
        self._count(locs[ends[p0]:ends[p1]], -1)
        self.markers += (marked > p1) - (marked > p0)

    def _count(self, locs: Tuple[Location, ...], sign: int) -> None:
        counts = self.counts
        for l in locs:
            n = counts.get(l, 0) + sign
            if n:
                counts[l] = n
            else:
                del counts[l]


@dataclass
class Focused:
    """A configuration held as its stores and the split of its term.

    ``term`` is ``plug(at.frames, at.term)``, built on first read.  The
    root counts of the frames (``_Counted``) pass to the successor with
    the frame list.
    """

    sigma: ValueStore
    theta: ObjectStore
    at: Union[Redex, Finished]
    _term: Optional[Term] = field(default=None, repr=False)
    _counted: _Counted = field(default_factory=_Counted, repr=False,
                               compare=False)

    @classmethod
    def of(cls, config: Configuration) -> "Focused":
        return cls(config.sigma, config.theta, decompose(config.term),
                   config.term)

    def refocused(self, sigma: ValueStore, theta: ObjectStore,
                  frames: List[Frame], t: Term) -> "Focused":
        """The state with stores ``sigma`` and ``theta`` whose term is
        ``t`` in the hole of ``frames``, this state's frame list, which it
        takes over (``refocus``) with its root counts."""
        return Focused(sigma, theta, refocus(frames, t), None, self._counted)

    @property
    def term(self) -> Term:
        if self._term is None:
            self._term = plug(self.at.frames, self.at.term)
        return self._term

    @property
    def config(self) -> Configuration:
        return Configuration(self.sigma, self.theta, self.term)

    @cached_property
    def _scan(self) -> Tuple[Set[Location], bool]:
        counted = self._counted
        counted.sync(self.at.frames)
        locs, marker = summary(self.at.term)
        return counted.counts.keys() | locs, marker or counted.markers > 0

    def roots(self) -> Set[Location]:
        """The locations occurring in the term, the collector's root set:
        the locations the frames' summaries count plus the focus's.
        Read-only."""
        return self._scan[0]

    @property
    def finalizer_in_flight(self) -> bool:
        """Does the term hold a ``FinStat``/``FinWrap`` marker?  A pending
        ``FinWrap`` argument of a spliced thunk call sits in its frame's
        node; a marker cut away by an unwind left with its frame."""
        return self._scan[1]

    def with_stores(self, sigma: ValueStore, theta: ObjectStore) -> "Focused":
        return Focused(sigma, theta, self.at, self._term, self._counted)


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
        hole = _unwind_error(d.frames, e.value)
        sigma, theta, rule, gc_request = state.sigma, state.theta, "raise", False
    nxt = Focused(sigma, theta, refocus(d.frames, hole), None,
                  state._counted)
    return StepResult(nxt, rule, out, gc_request, d.term)


def _unwind(frames: List[Frame], delimiter: type) -> bool:
    """Cut ``frames`` back to just outside the innermost ``delimiter``
    frame; False (and ``frames`` untouched) if there is none."""
    i = _innermost(frames, delimiter)
    if i < 0:
        return False
    del frames[i:]
    return True


def _unwind_error(frames: List[Frame], v: Value) -> Term:
    if _unwind(frames, ProtectedFrame):
        return ValueTuple((A.FALSE, v))
    frames.clear()
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
    if not _unwind(d.frames, LoopFrame):
        raise StuckTerm("break outside any loop")
    return sigma, theta, Empty(), "break", False


def _c_return(d: Redex, sigma, theta, out) -> _Contracted:
    vals = tuple(flatten_el(d.term.exprs))
    if not _unwind(d.frames, CallFrame):
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
    return theta.put_table(obj.n, table.set(key, v))


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
