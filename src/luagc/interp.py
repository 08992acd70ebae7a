"""Small-step reduction for the Lua subset.

Execution is classic reduction semantics: decompose the program into an
evaluation context and a redex, reduce the redex, plug the result back.
``decompose`` returns the unique context/redex split (or a terminal
classification), and ``step`` performs exactly one reduction.

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
next focused configuration; its ``config`` and ``redex_src`` are computed
on first read, so a loop that reads neither pays for neither.  The frame
list is owned by the stepping loop: ``step`` on a focused configuration
reuses it for the successor, so a stepped-from state must not be read again.

Control effects (errors, break, return, pcall) unwind the context in a
single step by cutting the frame list back to the matching delimiter.

A focused state also answers what a collection cycle asks of its term
without plugging it: ``roots()``, the locations occurring in the term, and
``finalizer_in_flight``.  Each frame summarizes its node outside the hole
once (``Frame.summary``); a step builds only the frames below the one it
rebuilds, so the others keep theirs.  A list-slot frame does not walk its
node's elements for that: it carries the locations of the values before the
hole, extended by those that became values at each step, and shares the
summaries of the elements after the hole, taken once per evaluation of the
list (``_Rest``).  The Python work of a step thus grows with neither the
depth nor the width of its context; what still grows with the width is
tuple copying.

This module holds the step relation and program loading only.  Iterating
the relation, with or without GC, is ``executor.Machine``'s job; under the
``never`` schedule ``collectgarbage()`` is inert there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import List, Optional, Set, Tuple, Union

from . import ast as A
from .ast import (
    And, Assign, BinOp, Break, Call, CallFrame, Cid, Const, Empty, ErrTerm,
    ExprStat, FinStat, FinWrap, Function, Globals, If, Index, Local,
    Location, LoopFrame, Name, Neg, Nil, Not, Num, Or, ProtectedFrame, Ref,
    Return, Seq, Stat, Str, TableCtor, Term, Tid, Value, ValueTuple, While,
    format_number, summary, truthy, type_name,
)
from .heap import (
    Configuration, InvalidKey, ObjectStore, ValueStore, alloc_closure,
    alloc_table, alloc_value, check_key, index_metatable,
)
from .gc import set_fin
from .parser import parse
from .desugar import desugar


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


@dataclass(frozen=True)
class Frame:
    node: Term
    slot: str
    idx: int = 0
    # In a list slot: the locations of the values before the hole, and the
    # summaries of the rest of the node (``_Rest``), shared by every frame
    # of one evaluation of the list.
    done: Tuple[Location, ...] = field(default=(), compare=False, repr=False)
    rest: Optional["_Rest"] = field(default=None, compare=False, repr=False)

    @cached_property
    def summary(self) -> A.Summary:
        """The locations of ``node`` outside the hole, and whether that part
        holds a finalizer marker (the node itself may be one).

        The hole is left out by position: once refocused, the slot still
        holds a stale child, which may be the same object as a sibling.  In
        a list slot the locations may repeat and are not in print order.
        """
        if self.rest is None:
            return summary(_replace_child(self.node, self.slot, self.idx,
                                          _HOLE))
        locs, marker = self.rest.after(_position(self.slot, self.idx))
        return self.done + locs, marker


class _Rest:
    """The summaries of a list node's positions and of its other children
    (a ``Local``'s body, a call's function, an assignment's targets), taken
    from the node as the evaluation of its list found it.  The positions
    after a hole are not evaluated yet, so each frame of that evaluation
    reads its suffix here.  Computed on first read: a run that asks no
    frame for its summary pays nothing."""

    def __init__(self, node: Term):
        self.node = node

    @cached_property
    def _flat(self) -> Tuple[Tuple[Location, ...], List[int], int]:
        """The locations of every position and then of the other children,
        in order; where each one's share ends; the last one that holds a
        marker (-1 if none).  The other children come after every
        position, so every suffix holds them."""
        locs: List[Location] = []
        ends: List[int] = []
        marked = -1
        for p, e in enumerate(_positions(self.node) + _others(self.node)):
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


def _others(t: Term) -> Tuple[Term, ...]:
    if isinstance(t, Local):
        return (t.body,)
    if isinstance(t, Call):
        return (t.fn,)
    if isinstance(t, Assign):
        return t.targets
    return ()


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


def _frame(t: Term, slot: str, idx: int,
           last: Optional[Frame] = None) -> Frame:
    """The frame of ``t`` with its hole at ``slot``/``idx``.

    In a list slot, ``last`` is the frame this one follows in the same
    evaluation of the list, if any: the locations before the hole extend
    its own by the positions that became values since, and the summaries
    of the rest are its own.  Every position before a list hole holds a
    value, so the work is that of the positions passed.
    """
    if slot not in _LIST_SLOTS:
        return Frame(t, slot, idx)
    if last is None:
        start, done, rest = 0, (), _Rest(t)
    else:
        start, done, rest = _position(last.slot, last.idx), last.done, last.rest
    for p in range(start, _position(slot, idx)):
        e = _element(t, p)
        if e is not None:
            done += tuple(A.value_locations(e.value))
    return Frame(t, slot, idx, done, rest)


_HOLE = Empty()


@dataclass(frozen=True)
class Redex:
    frames: List[Frame]
    term: Term
    rule: str


@dataclass(frozen=True)
class Finished:
    kind: str  # "return" | "error" | "empty"
    values: Tuple[Value, ...] = ()
    error_value: Value = field(default_factory=Nil)
    # where the final node sits, as for a redex: the whole term is
    # plug(frames, term)
    frames: List[Frame] = field(default_factory=list, compare=False, repr=False)
    term: Optional[Term] = field(default=None, compare=False, repr=False)


def _is_value(e: Term) -> bool:
    return isinstance(e, Const)


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
                frames.append(_frame(t, slot, idx, f))
                t = child
    return _descend(frames, t)


def _descend(frames: List[Frame], t: Term) -> Union[Redex, Finished]:
    while True:
        res = _inspect(t, frames)
        if isinstance(res, (Redex, Finished)):
            return res
        slot, idx, child = res
        frames.append(_frame(t, slot, idx))
        t = child


def _next_el(t: Term, start: int):
    """The first element of ``t``'s list from index ``start`` that is not
    evaluated yet, as ``(slot, index, element)``; None if there is none.

    A trailing value tuple stays splicable; anywhere else it must still be
    truncated (and is itself the redex).
    """
    if isinstance(t, TableCtor):
        fields = t.fields
        for i in range(start, len(fields)):
            k, v = fields[i]
            if k is not None and not isinstance(k, Const):
                return ("field_key", i, k)
            if not isinstance(v, Const):
                return ("field_value", i, v)
        return None
    slot, seq = ("args", t.args) if isinstance(t, Call) else ("exprs", t.exprs)
    last = len(seq) - 1
    for i in range(start, last + 1):
        e = seq[i]
        if not (isinstance(e, Const)
                or (i == last and isinstance(e, ValueTuple))):
            return (slot, i, e)
    return None


def _inspect(t: Term, frames: List[Frame]):
    """One dispatch step: redex here, terminal here, or descend."""
    # ---- statements -----------------------------------------------------
    if isinstance(t, Empty):
        if not frames:
            return Finished("empty", frames=frames, term=t)
        raise StuckTerm("empty statement in context position")
    if isinstance(t, ErrTerm):
        if not frames:
            return Finished("error", error_value=t.value, frames=frames,
                            term=t)
        raise StuckTerm("error object in context position")
    if isinstance(t, Seq):
        if isinstance(t.first, Empty):
            return Redex(frames, t, "seq")
        return ("first", 0, t.first)
    if isinstance(t, Local):
        d = _next_el(t, 0)
        return Redex(frames, t, "local") if d is None else d
    if isinstance(t, Assign):
        for i, x in enumerate(t.targets):
            if isinstance(x, Ref):
                continue
            if isinstance(x, Index):
                if not _is_value(x.obj):
                    return ("target_obj", i, x.obj)
                if not _is_value(x.key):
                    return ("target_key", i, x.key)
                continue
            raise StuckTerm(f"unresolved assignment target {x!r}")
        d = _next_el(t, 0)
        return Redex(frames, t, "assign") if d is None else d
    if isinstance(t, ExprStat):
        if _is_value(t.expr) or isinstance(t.expr, ValueTuple):
            return Redex(frames, t, "discard")
        return ("expr", 0, t.expr)
    if isinstance(t, If):
        if _is_value(t.cond):
            return Redex(frames, t, "if")
        return ("cond", 0, t.cond)
    if isinstance(t, While):
        return Redex(frames, t, "loop-enter")
    if isinstance(t, LoopFrame):
        if isinstance(t.inner, While):
            return Redex(frames, t, "loop-restart")
        if isinstance(t.inner, Empty):
            return Redex(frames, t, "loop-exit")
        return ("inner", 0, t.inner)
    if isinstance(t, Break):
        return Redex(frames, t, "break")
    if isinstance(t, Return):
        d = _next_el(t, 0)
        if d is not None:
            return d
        if any(isinstance(f.node, CallFrame) for f in frames):
            return Redex(frames, t, "return")
        return Finished("return", values=tuple(flatten_el(t.exprs)),
                        frames=frames, term=t)
    if isinstance(t, FinStat):
        if isinstance(t.inner, Empty):
            return Redex(frames, t, "fin-done")
        return ("inner", 0, t.inner)

    # ---- expressions ----------------------------------------------------
    if isinstance(t, Const):
        raise StuckTerm("a bare value is not a program")
    if isinstance(t, ValueTuple):
        return Redex(frames, t, "truncate")
    if isinstance(t, Ref):
        return Redex(frames, t, "deref")
    if isinstance(t, (Name, Globals)):
        raise StuckTerm(f"unresolved name {A.to_source(t)}")
    if isinstance(t, Index):
        if not _is_value(t.obj):
            return ("obj", 0, t.obj)
        if not _is_value(t.key):
            return ("key", 0, t.key)
        return Redex(frames, t, "index")
    if isinstance(t, Call):
        if not _is_value(t.fn):
            return ("fn", 0, t.fn)
        d = _next_el(t, 0)
        return Redex(frames, t, "call") if d is None else d
    if isinstance(t, Function):
        return Redex(frames, t, "closure")
    if isinstance(t, TableCtor):
        d = _next_el(t, 0)
        return Redex(frames, t, "table") if d is None else d
    if isinstance(t, BinOp):
        if not _is_value(t.lhs):
            return ("lhs", 0, t.lhs)
        if not _is_value(t.rhs):
            return ("rhs", 0, t.rhs)
        return Redex(frames, t, "binop")
    if isinstance(t, (And, Or)):
        if not _is_value(t.lhs):
            return ("lhs", 0, t.lhs)
        return Redex(frames, t, "shortcut")
    if isinstance(t, (Not, Neg)):
        if not _is_value(t.operand):
            return ("operand", 0, t.operand)
        return Redex(frames, t, "unop")
    if isinstance(t, CallFrame):
        if isinstance(t.body, Empty):
            return Redex(frames, t, "call-finish")
        return ("body", 0, t.body)
    if isinstance(t, ProtectedFrame):
        if _is_value(t.inner) or isinstance(t.inner, ValueTuple):
            return Redex(frames, t, "pcall-ok")
        return ("inner", 0, t.inner)
    if isinstance(t, FinWrap):
        if _is_value(t.inner) or isinstance(t.inner, ValueTuple):
            return Redex(frames, t, "fin-done")
        return ("inner", 0, t.inner)
    raise StuckTerm(f"cannot decompose {t!r}")  # pragma: no cover


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


@dataclass
class Focused:
    """A configuration held as its stores and the split of its term.

    ``term`` is ``plug(at.frames, at.term)``, built on first read.
    """

    sigma: ValueStore
    theta: ObjectStore
    at: Union[Redex, Finished]
    _term: Optional[Term] = field(default=None, repr=False)

    @classmethod
    def of(cls, config: Configuration) -> "Focused":
        return cls(config.sigma, config.theta, decompose(config.term),
                   config.term)

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
        locs, in_flight = summary(self.at.term)
        roots = set(locs)
        for f in self.at.frames:
            flocs, marker = f.summary
            roots.update(flocs)
            in_flight = in_flight or marker
        return roots, in_flight

    def roots(self) -> Set[Location]:
        """The locations occurring in the term, the collector's root set:
        the frames' summaries plus the focus.  Read-only."""
        return self._scan[0]

    @property
    def finalizer_in_flight(self) -> bool:
        """Does the term hold a ``FinStat``/``FinWrap`` marker?  A pending
        ``FinWrap`` argument of a spliced thunk call sits in its frame's
        node; a marker cut away by an unwind left with its frame."""
        return self._scan[1]

    def with_stores(self, sigma: ValueStore, theta: ObjectStore) -> "Focused":
        return Focused(sigma, theta, self.at, self._term)


class StepResult:
    """One reduction: the focused successor ``state``, the rule applied,
    the printed lines and whether ``collectgarbage()`` asked for a drain.
    ``config`` and ``redex_src`` are built on first read."""

    __slots__ = ("state", "rule", "output", "gc_request", "_redex")

    def __init__(self, state: Focused, rule: str, output: List[str],
                 gc_request: bool, redex: Term):
        self.state = state
        self.rule = rule
        self.output = output
        self.gc_request = gc_request
        self._redex = redex

    @property
    def config(self) -> Configuration:
        return self.state.config

    @property
    def redex_src(self) -> str:
        return A.to_source(self._redex)


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
_Contracted = Tuple[ValueStore, ObjectStore, Term, str, bool]


def step(config: Union[Configuration, Focused]) -> Union[StepResult, Finished]:
    """Apply exactly one reduction to a well-formed configuration.

    A :class:`Configuration` is decomposed from the root; a
    :class:`Focused` one is stepped from its split, whose frame list the
    successor takes over.
    """
    state = config if isinstance(config, Focused) else Focused.of(config)
    d = state.at
    if isinstance(d, Finished):
        return d
    out: List[str] = []
    try:
        sigma, theta, hole, rule, gc_request = _apply(
            d, state.sigma, state.theta, out)
    except LuaError as e:
        hole = _unwind_error(d.frames, e.value)
        sigma, theta, rule, gc_request = state.sigma, state.theta, "raise", False
    nxt = Focused(sigma, theta, refocus(d.frames, hole))
    return StepResult(nxt, rule, out, gc_request, d.term)


def _unwind(frames: List[Frame], delimiter: type) -> bool:
    """Cut ``frames`` back to just outside the innermost ``delimiter``
    frame; False (and ``frames`` untouched) if there is none."""
    for i in range(len(frames) - 1, -1, -1):
        if isinstance(frames[i].node, delimiter):
            del frames[i:]
            return True
    return False


def _unwind_error(frames: List[Frame], v: Value) -> Term:
    if _unwind(frames, ProtectedFrame):
        return ValueTuple((A.FALSE, v))
    frames.clear()
    return ErrTerm(v)


def _apply(d: Redex, sigma: ValueStore, theta: ObjectStore,
           out: List[str]) -> _Contracted:
    t = d.term
    rule = d.rule

    def done_with(new_term, new_sigma=None, new_theta=None, rule_name=None,
                  gc_request=False) -> _Contracted:
        s = new_sigma if new_sigma is not None else sigma
        th = new_theta if new_theta is not None else theta
        return s, th, new_term, rule_name or rule, gc_request

    # ---- statements -----------------------------------------------------
    if rule == "seq":
        assert isinstance(t, Seq)
        return done_with(t.rest)
    if rule == "local":
        assert isinstance(t, Local)
        vals = adjust(flatten_el(t.exprs), len(t.names))
        mapping = {}
        for name, v in zip(t.names, vals):
            sigma, r = alloc_value(sigma, v)
            mapping[name] = r
        return done_with(A.subst(t.body, mapping), new_sigma=sigma)
    if rule == "assign":
        assert isinstance(t, Assign)
        vals = adjust(flatten_el(t.exprs), len(t.targets))
        for target, v in zip(t.targets, vals):
            if isinstance(target, Ref):
                sigma = sigma.bind(target.r, v)
            else:
                assert isinstance(target, Index)
                obj = target.obj.value  # type: ignore[union-attr]
                key = target.key.value  # type: ignore[union-attr]
                theta = _table_write(theta, obj, key, v)
        return done_with(Empty(), new_sigma=sigma, new_theta=theta)
    if rule == "discard":
        return done_with(Empty())
    if rule == "if":
        assert isinstance(t, If)
        cond = t.cond.value  # type: ignore[union-attr]
        return done_with(
            t.then_body if truthy(cond) else t.else_body,
            rule_name="if-true" if truthy(cond) else "if-false",
        )
    if rule == "loop-enter":
        assert isinstance(t, While)
        return done_with(LoopFrame(t, pos=t.pos))
    if rule == "loop-restart":
        assert isinstance(t, LoopFrame) and isinstance(t.inner, While)
        w = t.inner
        unrolled = If(w.cond, Seq(w.body, w, pos=w.pos), Empty(), pos=w.pos)
        return done_with(LoopFrame(unrolled, pos=t.pos))
    if rule == "loop-exit":
        return done_with(Empty())
    if rule == "break":
        if _unwind(d.frames, LoopFrame):
            return done_with(Empty())
        raise StuckTerm("break outside any loop")
    if rule == "return":
        assert isinstance(t, Return)
        vals = tuple(flatten_el(t.exprs))
        if _unwind(d.frames, CallFrame):
            return done_with(ValueTuple(vals))
        raise StuckTerm("return-unwind without a call frame")
    if rule == "fin-done":
        if isinstance(t, FinStat):
            return done_with(Empty())
        assert isinstance(t, FinWrap)
        return done_with(t.inner)

    # ---- expressions ----------------------------------------------------
    if rule == "deref":
        assert isinstance(t, Ref)
        return done_with(Const(sigma.lookup(t.r)))
    if rule == "truncate":
        assert isinstance(t, ValueTuple)
        v = t.values[0] if t.values else Nil()
        return done_with(Const(v))
    if rule == "index":
        assert isinstance(t, Index)
        obj = t.obj.value  # type: ignore[union-attr]
        key = t.key.value  # type: ignore[union-attr]
        new_term, rname = _index_read(theta, obj, key, t.pos)
        return done_with(new_term, rule_name=rname)
    if rule == "call":
        assert isinstance(t, Call)
        fn = t.fn.value  # type: ignore[union-attr]
        args = flatten_el(t.args)
        if isinstance(fn, Cid):
            clo = theta.closure(fn.n)
            vals = adjust(args, len(clo.params))
            mapping = {}
            for name, v in zip(clo.params, vals):
                sigma, r = alloc_value(sigma, v)
                mapping[name] = r
            body = A.subst(clo.body, mapping)
            return done_with(CallFrame(body, pos=t.pos), new_sigma=sigma)
        if isinstance(fn, A.Builtin):
            return _call_builtin(fn.name, args, t, theta, done_with, out)
        raise LuaError.msg(f"attempt to call a {type_name(fn)} value")
    if rule == "closure":
        assert isinstance(t, Function)
        theta2, cid = alloc_closure(theta, t.params, t.body)
        return done_with(Const(Cid(cid)), new_theta=theta2)
    if rule == "table":
        assert isinstance(t, TableCtor)
        pairs = []
        for k, v in t.fields:
            assert k is not None
            pairs.append((k.value, v.value))  # type: ignore[union-attr]
        try:
            theta2, tid = alloc_table(theta, tuple(pairs))
        except InvalidKey as e:
            raise LuaError.msg(str(e)) from None
        return done_with(Const(Tid(tid)), new_theta=theta2)
    if rule == "binop":
        assert isinstance(t, BinOp)
        lhs = t.lhs.value  # type: ignore[union-attr]
        rhs = t.rhs.value  # type: ignore[union-attr]
        return done_with(Const(_binop(t.op, lhs, rhs)))
    if rule == "shortcut":
        lhs = t.lhs.value  # type: ignore[union-attr]
        if isinstance(t, And):
            return done_with(t.rhs if truthy(lhs) else Const(lhs), rule_name="and")
        assert isinstance(t, Or)
        return done_with(Const(lhs) if truthy(lhs) else t.rhs, rule_name="or")
    if rule == "unop":
        v = t.operand.value  # type: ignore[union-attr]
        if isinstance(t, Not):
            return done_with(Const(A.Bool(not truthy(v))), rule_name="not")
        if not isinstance(v, Num):
            raise LuaError.msg(
                f"attempt to perform arithmetic on a {type_name(v)} value"
            )
        return done_with(Const(Num(-v.x)), rule_name="neg")
    if rule == "call-finish":
        return done_with(ValueTuple(()))
    if rule == "pcall-ok":
        assert isinstance(t, ProtectedFrame)
        if isinstance(t.inner, Const):
            vals: Tuple[Value, ...] = (t.inner.value,)
        else:
            assert isinstance(t.inner, ValueTuple)
            vals = t.inner.values
        return done_with(ValueTuple((A.TRUE,) + vals))
    raise StuckTerm(f"no rule for {rule}")  # pragma: no cover


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
    if not isinstance(obj, Tid):
        raise LuaError.msg(f"attempt to index a {type_name(obj)} value")
    table = theta.table(obj.n)
    if table.has(key):
        return Const(table.get(key)), None
    handler = index_metatable(obj.n, "__index", theta)
    if isinstance(handler, Nil):
        return Const(Nil()), None
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


def _call_builtin(name: str, args: List[Value], t, theta, done_with, out):
    rule_name = f"builtin:{name}"
    if name == "print":
        out.append("\t".join(render(v) for v in args))
        return done_with(ValueTuple(()), rule_name=rule_name)
    if name == "tostring":
        v = args[0] if args else Nil()
        if isinstance(v, (Tid, Cid, A.Builtin)):
            raise LuaError.msg(
                f"{type_name(v)} identity is not observable in this model"
            )
        return done_with(Const(Str(render(v))), rule_name=rule_name)
    if name == "error":
        raise LuaError(args[0] if args else Nil())
    if name == "pcall":
        if not args:
            raise LuaError.msg("bad argument #1 to 'pcall' (value expected)")
        inner = Call(Const(args[0]), tuple(Const(a) for a in args[1:]), pos=t.pos)
        return done_with(ProtectedFrame(inner, pos=t.pos), rule_name=rule_name)
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
        return done_with(Const(args[0]), new_theta=theta, rule_name=rule_name)
    if name == "getmetatable":
        v = args[0] if args else Nil()
        if not isinstance(v, Tid):
            return done_with(Const(Nil()), rule_name=rule_name)
        table = theta.table(v.n)
        if table.meta is None:
            return done_with(Const(Nil()), rule_name=rule_name)
        guard = index_metatable(v.n, "__metatable", theta)
        if not isinstance(guard, Nil):
            return done_with(Const(guard), rule_name=rule_name)
        return done_with(Const(Tid(table.meta)), rule_name=rule_name)
    if name == "collectgarbage":
        return done_with(Const(Num(0.0)), rule_name=rule_name, gc_request=True)
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
