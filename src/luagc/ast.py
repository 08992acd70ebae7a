"""AST and runtime values for the Lua subset.

Two layers live here:

* ``Value`` objects -- nil, booleans, numbers, strings, table ids, closure
  ids and builtin primitives.  These are the things stores map to and the
  things table fields hold.  They are hashable so they can be table keys.
* ``Term`` nodes -- statements and expressions.  Parser output uses only the
  source forms; reduction introduces runtime forms (store references, value
  tuples, call frames, loop frames, error objects).

Terms are frozen dataclasses; reduction never mutates, it rebuilds.
Source positions are carried for diagnostics but excluded from equality so
that structural comparison of reduced terms is meaningful.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple, Union, get_args


@dataclass(frozen=True)
class Pos:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def _pos_field():
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Nil:
    def __repr__(self) -> str:
        return "nil"


@dataclass(frozen=True)
class Bool:
    flag: bool

    def __repr__(self) -> str:
        return "true" if self.flag else "false"


@dataclass(frozen=True)
class Num:
    x: float

    def __repr__(self) -> str:
        return format_number(self.x)


@dataclass(frozen=True)
class Str:
    s: str

    def __repr__(self) -> str:
        return json.dumps(self.s)


@dataclass(frozen=True)
class Tid:
    """Table identifier; tables live in the object store."""

    n: int

    def __repr__(self) -> str:
        return f"table: #{self.n}"


@dataclass(frozen=True)
class Cid:
    """Closure identifier; closures live in the object store."""

    n: int

    def __repr__(self) -> str:
        return f"function: #{self.n}"


@dataclass(frozen=True)
class Builtin:
    """A primitive library function (print, pcall, setmetatable, ...)."""

    name: str

    def __repr__(self) -> str:
        return f"function: builtin:{self.name}"


Value = Union[Nil, Bool, Num, Str, Tid, Cid, Builtin]

NIL = Nil()
TRUE = Bool(True)
FALSE = Bool(False)


def format_number(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return "%.14g" % x


def is_collectible(v: Value) -> bool:
    """Tables and closures are the values weak tables may drop."""
    return isinstance(v, (Tid, Cid))


def truthy(v: Value) -> bool:
    return not (isinstance(v, Nil) or (isinstance(v, Bool) and not v.flag))


def type_name(v: Value) -> str:
    if isinstance(v, Nil):
        return "nil"
    if isinstance(v, Bool):
        return "boolean"
    if isinstance(v, Num):
        return "number"
    if isinstance(v, Str):
        return "string"
    if isinstance(v, Tid):
        return "table"
    return "function"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    """A value in expression position."""

    value: Value
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Name:
    """A source-level variable.  Gone after desugaring/substitution."""

    ident: str
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Globals:
    """Placeholder for the global-environment table, patched at load time."""

    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Ref:
    """Runtime reference into the value store."""

    r: int
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class ValueTuple:
    """Runtime form: the (possibly empty) result list of a finished call."""

    values: Tuple[Value, ...]
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Index:
    obj: "Expr"
    key: "Expr"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Call:
    fn: "Expr"
    args: Tuple["Expr", ...]
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Function:
    params: Tuple[str, ...]
    body: "Stat"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class TableCtor:
    """Table constructor; after desugaring every field has an explicit key."""

    fields: Tuple[Tuple[Optional["Expr"], "Expr"], ...]
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / % ^ == ~= < <= > >=
    lhs: "Expr"
    rhs: "Expr"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class And:
    lhs: "Expr"
    rhs: "Expr"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Or:
    lhs: "Expr"
    rhs: "Expr"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Not:
    operand: "Expr"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class CallFrame:
    """Runtime form: a function body executing in expression position."""

    body: "Stat"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class ProtectedFrame:
    """Runtime form: the guarded region opened by pcall."""

    inner: "Expr"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class FinWrap:
    """Runtime marker around an in-flight finalizer call (expression form)."""

    inner: "Expr"
    pos: Optional[Pos] = _pos_field()


Expr = Union[
    Const,
    Name,
    Globals,
    Ref,
    ValueTuple,
    Index,
    Call,
    Function,
    TableCtor,
    BinOp,
    And,
    Or,
    Not,
    Neg,
    CallFrame,
    ProtectedFrame,
    FinWrap,
]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Empty:
    """The empty statement ``;``."""

    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Seq:
    first: "Stat"
    rest: "Stat"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Local:
    names: Tuple[str, ...]
    exprs: Tuple[Expr, ...]
    body: "Stat"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Assign:
    targets: Tuple[Expr, ...]  # Ref or Index after desugaring
    exprs: Tuple[Expr, ...]
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class ExprStat:
    """A call executed for effect; its results are discarded."""

    expr: Expr
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class If:
    cond: Expr
    then_body: "Stat"
    else_body: "Stat"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class While:
    cond: Expr
    body: "Stat"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Break:
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Return:
    exprs: Tuple[Expr, ...]
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class LoopFrame:
    """Runtime form: the active extent of a loop; break unwinds to here."""

    inner: "Stat"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class ErrTerm:
    """Runtime form: an uncaught error object terminating the program."""

    value: Value
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class FinStat:
    """Runtime marker around an in-flight finalizer call (statement form)."""

    inner: "Stat"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Block:
    """Parser-level statement list; folded away by desugaring."""

    stats: Tuple["Stat", ...]
    pos: Optional[Pos] = _pos_field()


Stat = Union[
    Empty,
    Seq,
    Local,
    Assign,
    ExprStat,
    If,
    While,
    Break,
    Return,
    LoopFrame,
    ErrTerm,
    FinStat,
    Block,
]

Term = Union[Stat, Expr]


def _hash_once(cls: type) -> None:
    """Cache the structural hash on each node: terms are immutable, and a
    fresh term shares most of its nodes with the term it came from, so
    hashing it only walks the nodes that are new.  String hashes are salted
    per process, so a cached hash must not travel to another one."""
    structural = cls.__hash__

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = structural(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__


# Memo slots read by ``__hash__`` and ``summary``; they are not dataclass
# fields, so equality, ``replace`` and printing ignore them.
for _cls in get_args(Term):
    _cls._hash = None
    _cls._summary = None
    _hash_once(_cls)


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

Location = Tuple[str, int]  # ("ref"|"tid"|"cid", id)


def value_locations(v: Value) -> Iterator[Location]:
    if isinstance(v, Tid):
        yield ("tid", v.n)
    elif isinstance(v, Cid):
        yield ("cid", v.n)


def children(t: Term) -> Iterator[Term]:
    """Immediate sub-terms, in evaluation-relevant left-to-right order."""
    if isinstance(t, (Const, Name, Globals, Ref, ValueTuple, Empty, Break, ErrTerm)):
        return
    if isinstance(t, Seq):
        yield t.first
        yield t.rest
    elif isinstance(t, Local):
        yield from t.exprs
        yield t.body
    elif isinstance(t, Assign):
        yield from t.targets
        yield from t.exprs
    elif isinstance(t, ExprStat):
        yield t.expr
    elif isinstance(t, If):
        yield t.cond
        yield t.then_body
        yield t.else_body
    elif isinstance(t, While):
        yield t.cond
        yield t.body
    elif isinstance(t, Return):
        yield from t.exprs
    elif isinstance(t, (LoopFrame, FinStat)):
        yield t.inner
    elif isinstance(t, Block):
        yield from t.stats
    elif isinstance(t, Index):
        yield t.obj
        yield t.key
    elif isinstance(t, Call):
        yield t.fn
        yield from t.args
    elif isinstance(t, Function):
        yield t.body
    elif isinstance(t, TableCtor):
        for k, v in t.fields:
            if k is not None:
                yield k
            yield v
    elif isinstance(t, BinOp):
        yield t.lhs
        yield t.rhs
    elif isinstance(t, (And, Or)):
        yield t.lhs
        yield t.rhs
    elif isinstance(t, (Not, Neg)):
        yield t.operand
    elif isinstance(t, CallFrame):
        yield t.body
    elif isinstance(t, (ProtectedFrame, FinWrap)):
        yield t.inner
    else:  # pragma: no cover - exhaustiveness guard
        raise TypeError(f"unknown term {t!r}")


def walk(t: Term) -> Iterator[Term]:
    """Every node of ``t`` in pre-order.

    Iterative: children are pushed in reverse on an explicit stack, so the
    order is the recursive one and deep terms need no Python recursion.
    """
    stack = [t]
    while stack:
        n = stack.pop()
        yield n
        kids = list(children(n))
        kids.reverse()
        stack.extend(kids)


def term_locations(t: Term) -> Iterator[Location]:
    """Locations literally occurring in a term, in print order."""
    for n in walk(t):
        if isinstance(n, Ref):
            yield ("ref", n.r)
        elif isinstance(n, Const):
            yield from value_locations(n.value)
        elif isinstance(n, ValueTuple):
            for v in n.values:
                yield from value_locations(v)


# The distinct locations of a term in print order (first occurrences, as
# ``term_locations`` yields them), and whether it holds a finalizer marker.
Summary = Tuple[Tuple[Location, ...], bool]
_NOTHING: Summary = ((), False)


def summary(t: Term) -> Summary:
    """What a collector needs from a term, without walking it again.

    Memoized on every node: a node is summarized once, from its children's
    summaries, so a subterm shared between terms (a continuation, a closure
    body) is walked once however often it is asked about.  Iterative
    post-order, so deep terms need no Python recursion.
    """
    stack = [t]
    while stack:
        n = stack[-1]
        if n._summary is not None:
            stack.pop()
            continue
        pending = [c for c in children(n) if c._summary is None]
        if pending:
            stack.extend(pending)
        else:
            stack.pop()
            object.__setattr__(n, "_summary", _summarize(n))
    return t._summary


def _summarize(n: Term) -> Summary:
    """One node's summary from its children's, sharing a child's when the
    node adds nothing to it."""
    if isinstance(n, Ref):
        return ((("ref", n.r),), False)
    if isinstance(n, (Const, ValueTuple)):
        vals = (n.value,) if isinstance(n, Const) else n.values
        locs = tuple(dict.fromkeys(l for v in vals for l in value_locations(v)))
        return (locs, False) if locs else _NOTHING
    marker = isinstance(n, (FinStat, FinWrap))
    parts = [c._summary for c in children(n) if c._summary is not _NOTHING]
    if len(parts) == 1 and (parts[0][1] or not marker):
        return parts[0]
    locs = tuple(dict.fromkeys(l for p in parts for l in p[0]))
    marker = marker or any(p[1] for p in parts)
    return (locs, marker) if locs or marker else _NOTHING


def subst(t: Term, mapping: dict) -> Term:
    """Replace bound names by store references (``mapping``: name -> ref id).

    Stops at binders that shadow a substituted name.
    """
    if not mapping:
        return t
    if isinstance(t, Name):
        if t.ident in mapping:
            return Ref(mapping[t.ident], pos=t.pos)
        return t
    if isinstance(t, Local):
        exprs = tuple(subst(e, mapping) for e in t.exprs)
        inner = {k: v for k, v in mapping.items() if k not in t.names}
        return Local(t.names, exprs, subst(t.body, inner), pos=t.pos)
    if isinstance(t, Function):
        inner = {k: v for k, v in mapping.items() if k not in t.params}
        return Function(t.params, subst(t.body, inner), pos=t.pos)
    return _rebuild(t, lambda c: subst(c, mapping))


def _rebuild(t: Term, f) -> Term:
    """Rebuild a node by mapping ``f`` over its sub-terms."""
    if isinstance(t, (Const, Name, Globals, Ref, ValueTuple, Empty, Break, ErrTerm)):
        return t
    if isinstance(t, Seq):
        return Seq(f(t.first), f(t.rest), pos=t.pos)
    if isinstance(t, Local):
        return Local(t.names, tuple(f(e) for e in t.exprs), f(t.body), pos=t.pos)
    if isinstance(t, Assign):
        return Assign(
            tuple(f(x) for x in t.targets), tuple(f(e) for e in t.exprs), pos=t.pos
        )
    if isinstance(t, ExprStat):
        return ExprStat(f(t.expr), pos=t.pos)
    if isinstance(t, If):
        return If(f(t.cond), f(t.then_body), f(t.else_body), pos=t.pos)
    if isinstance(t, While):
        return While(f(t.cond), f(t.body), pos=t.pos)
    if isinstance(t, Return):
        return Return(tuple(f(e) for e in t.exprs), pos=t.pos)
    if isinstance(t, LoopFrame):
        return LoopFrame(f(t.inner), pos=t.pos)
    if isinstance(t, FinStat):
        return FinStat(f(t.inner), pos=t.pos)
    if isinstance(t, Block):
        return Block(tuple(f(s) for s in t.stats), pos=t.pos)
    if isinstance(t, Index):
        return Index(f(t.obj), f(t.key), pos=t.pos)
    if isinstance(t, Call):
        return Call(f(t.fn), tuple(f(a) for a in t.args), pos=t.pos)
    if isinstance(t, Function):
        return Function(t.params, f(t.body), pos=t.pos)
    if isinstance(t, TableCtor):
        return TableCtor(
            tuple((None if k is None else f(k), f(v)) for k, v in t.fields),
            pos=t.pos,
        )
    if isinstance(t, BinOp):
        return BinOp(t.op, f(t.lhs), f(t.rhs), pos=t.pos)
    if isinstance(t, And):
        return And(f(t.lhs), f(t.rhs), pos=t.pos)
    if isinstance(t, Or):
        return Or(f(t.lhs), f(t.rhs), pos=t.pos)
    if isinstance(t, Not):
        return Not(f(t.operand), pos=t.pos)
    if isinstance(t, Neg):
        return Neg(f(t.operand), pos=t.pos)
    if isinstance(t, CallFrame):
        return CallFrame(f(t.body), pos=t.pos)
    if isinstance(t, ProtectedFrame):
        return ProtectedFrame(f(t.inner), pos=t.pos)
    if isinstance(t, FinWrap):
        return FinWrap(f(t.inner), pos=t.pos)
    raise TypeError(f"unknown term {t!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC = {
    "or": 1,
    "and": 2,
    "==": 3, "~=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
    "unary": 6,
    "^": 7,
}


def print_value(v: Value) -> str:
    if isinstance(v, Str):
        return json.dumps(v.s)
    return repr(v)


def to_source(t: Term) -> str:
    """Render a term as (re-parseable, for source terms) program text."""
    return _pstat(t) if _is_stat(t) else _pexpr(t, 0)


def _is_stat(t: Term) -> bool:
    return isinstance(
        t, (Empty, Seq, Local, Assign, ExprStat, If, While, Break, Return,
            LoopFrame, ErrTerm, FinStat, Block)
    )


def _pstat(t: Stat) -> str:
    if isinstance(t, Empty):
        return ";"
    if isinstance(t, Seq):
        return f"{_pstat(t.first)} {_pstat(t.rest)}"
    if isinstance(t, Local):
        names = ", ".join(t.names)
        exprs = ", ".join(_pexpr(e, 0) for e in t.exprs)
        rhs = f" = {exprs}" if t.exprs else ""
        if isinstance(t.body, Empty):
            return f"local {names}{rhs}"
        return f"local {names}{rhs} in {_pstat(t.body)} end"
    if isinstance(t, Assign):
        lhs = ", ".join(_pexpr(x, 0) for x in t.targets)
        rhs = ", ".join(_pexpr(e, 0) for e in t.exprs)
        return f"{lhs} = {rhs}"
    if isinstance(t, ExprStat):
        return _pexpr(t.expr, 0)
    if isinstance(t, If):
        if isinstance(t.else_body, Empty):
            return f"if {_pexpr(t.cond, 0)} then {_pstat(t.then_body)} end"
        return (
            f"if {_pexpr(t.cond, 0)} then {_pstat(t.then_body)}"
            f" else {_pstat(t.else_body)} end"
        )
    if isinstance(t, While):
        return f"while {_pexpr(t.cond, 0)} do {_pstat(t.body)} end"
    if isinstance(t, Break):
        return "break"
    if isinstance(t, Return):
        exprs = ", ".join(_pexpr(e, 0) for e in t.exprs)
        return f"return {exprs}".rstrip()
    if isinstance(t, LoopFrame):
        return f"$loop[{_pstat(t.inner)}]"
    if isinstance(t, ErrTerm):
        return f"$err {print_value(t.value)}"
    if isinstance(t, FinStat):
        return f"$fin[{_pstat(t.inner)}]"
    if isinstance(t, Block):
        if not t.stats:
            return ";"
        return " ".join(
            f"do {_pstat(s)} end" if isinstance(s, Block) else _pstat(s)
            for s in t.stats
        )
    raise TypeError(f"unknown statement {t!r}")  # pragma: no cover


def _pexpr(t: Expr, parent_prec: int) -> str:
    if isinstance(t, Const):
        return print_value(t.value)
    if isinstance(t, Name):
        return t.ident
    if isinstance(t, Globals):
        return "$globals"
    if isinstance(t, Ref):
        return f"$r{t.r}"
    if isinstance(t, ValueTuple):
        return "$values(" + ", ".join(print_value(v) for v in t.values) + ")"
    if isinstance(t, Index):
        return f"{_pprefix(t.obj)}[{_pexpr(t.key, 0)}]"
    if isinstance(t, Call):
        args = ", ".join(_pexpr(a, 0) for a in t.args)
        return f"{_pprefix(t.fn)}({args})"
    if isinstance(t, Function):
        params = ", ".join(t.params)
        return f"function ({params}) {_pstat(t.body)} end"
    if isinstance(t, TableCtor):
        parts = []
        for k, v in t.fields:
            if k is None:
                parts.append(_pexpr(v, 0))
            else:
                parts.append(f"[{_pexpr(k, 0)}] = {_pexpr(v, 0)}")
        return "{" + ", ".join(parts) + "}"
    if isinstance(t, BinOp):
        p = _PREC[t.op]
        extra = 1 if t.op == "^" else 0  # right assoc
        s = f"{_pexpr(t.lhs, p + extra)} {t.op} {_pexpr(t.rhs, p + 1 - extra)}"
        return f"({s})" if p < parent_prec else s
    if isinstance(t, And):
        s = f"{_pexpr(t.lhs, 2)} and {_pexpr(t.rhs, 3)}"
        return f"({s})" if _PREC["and"] < parent_prec else s
    if isinstance(t, Or):
        s = f"{_pexpr(t.lhs, 1)} or {_pexpr(t.rhs, 2)}"
        return f"({s})" if _PREC["or"] < parent_prec else s
    if isinstance(t, Not):
        s = f"not {_pexpr(t.operand, _PREC['unary'])}"
        return f"({s})" if _PREC["unary"] < parent_prec else s
    if isinstance(t, Neg):
        s = f"-{_pexpr(t.operand, _PREC['unary'])}"
        return f"({s})" if _PREC["unary"] < parent_prec else s
    if isinstance(t, CallFrame):
        return f"$call[{_pstat(t.body)}]"
    if isinstance(t, ProtectedFrame):
        return f"$protected[{_pexpr(t.inner, 0)}]"
    if isinstance(t, FinWrap):
        return f"$finexpr[{_pexpr(t.inner, 0)}]"
    raise TypeError(f"unknown expression {t!r}")  # pragma: no cover


def _pprefix(t: Expr) -> str:
    """Callee / indexee position: wrap non-prefix expressions in parens."""
    s = _pexpr(t, 0)
    if isinstance(t, (Name, Index, Call, Ref, Globals, CallFrame, ProtectedFrame)):
        return s
    return f"({s})"


# ---------------------------------------------------------------------------
# JSON dump (deterministic, for golden tests / --dump-ast)
# ---------------------------------------------------------------------------


def to_json(t: Term) -> dict:
    if isinstance(t, Const):
        return {"kind": "const", "value": _value_json(t.value)}
    if isinstance(t, Name):
        return {"kind": "name", "ident": t.ident}
    if isinstance(t, Globals):
        return {"kind": "globals"}
    if isinstance(t, Ref):
        return {"kind": "ref", "r": t.r}
    if isinstance(t, ValueTuple):
        return {"kind": "values", "values": [_value_json(v) for v in t.values]}
    if isinstance(t, Index):
        return {"kind": "index", "obj": to_json(t.obj), "key": to_json(t.key)}
    if isinstance(t, Call):
        return {"kind": "call", "fn": to_json(t.fn), "args": [to_json(a) for a in t.args]}
    if isinstance(t, Function):
        return {"kind": "function", "params": list(t.params), "body": to_json(t.body)}
    if isinstance(t, TableCtor):
        return {
            "kind": "table",
            "fields": [
                {"key": None if k is None else to_json(k), "value": to_json(v)}
                for k, v in t.fields
            ],
        }
    if isinstance(t, BinOp):
        return {"kind": "binop", "op": t.op, "lhs": to_json(t.lhs), "rhs": to_json(t.rhs)}
    if isinstance(t, And):
        return {"kind": "and", "lhs": to_json(t.lhs), "rhs": to_json(t.rhs)}
    if isinstance(t, Or):
        return {"kind": "or", "lhs": to_json(t.lhs), "rhs": to_json(t.rhs)}
    if isinstance(t, Not):
        return {"kind": "not", "operand": to_json(t.operand)}
    if isinstance(t, Neg):
        return {"kind": "neg", "operand": to_json(t.operand)}
    if isinstance(t, Empty):
        return {"kind": "empty"}
    if isinstance(t, Seq):
        return {"kind": "seq", "first": to_json(t.first), "rest": to_json(t.rest)}
    if isinstance(t, Local):
        return {
            "kind": "local",
            "names": list(t.names),
            "exprs": [to_json(e) for e in t.exprs],
            "body": to_json(t.body),
        }
    if isinstance(t, Assign):
        return {
            "kind": "assign",
            "targets": [to_json(x) for x in t.targets],
            "exprs": [to_json(e) for e in t.exprs],
        }
    if isinstance(t, ExprStat):
        return {"kind": "exprstat", "expr": to_json(t.expr)}
    if isinstance(t, If):
        return {
            "kind": "if",
            "cond": to_json(t.cond),
            "then": to_json(t.then_body),
            "else": to_json(t.else_body),
        }
    if isinstance(t, While):
        return {"kind": "while", "cond": to_json(t.cond), "body": to_json(t.body)}
    if isinstance(t, Break):
        return {"kind": "break"}
    if isinstance(t, Return):
        return {"kind": "return", "exprs": [to_json(e) for e in t.exprs]}
    if isinstance(t, Block):
        return {"kind": "block", "stats": [to_json(s) for s in t.stats]}
    if isinstance(t, LoopFrame):
        return {"kind": "loopframe", "inner": to_json(t.inner)}
    if isinstance(t, ErrTerm):
        return {"kind": "err", "value": _value_json(t.value)}
    if isinstance(t, FinStat):
        return {"kind": "finstat", "inner": to_json(t.inner)}
    if isinstance(t, CallFrame):
        return {"kind": "callframe", "body": to_json(t.body)}
    if isinstance(t, ProtectedFrame):
        return {"kind": "protected", "inner": to_json(t.inner)}
    if isinstance(t, FinWrap):
        return {"kind": "finwrap", "inner": to_json(t.inner)}
    raise TypeError(f"unknown term {t!r}")  # pragma: no cover


def _value_json(v: Value):
    if isinstance(v, Nil):
        return {"t": "nil"}
    if isinstance(v, Bool):
        return {"t": "bool", "v": v.flag}
    if isinstance(v, Num):
        return {"t": "num", "v": v.x}
    if isinstance(v, Str):
        return {"t": "str", "v": v.s}
    if isinstance(v, Tid):
        return {"t": "tid", "v": v.n}
    if isinstance(v, Cid):
        return {"t": "cid", "v": v.n}
    if isinstance(v, Builtin):
        return {"t": "builtin", "v": v.name}
    raise TypeError(f"unknown value {v!r}")  # pragma: no cover
