"""AST and runtime values for the Lua subset.

Two layers live here:

* ``Value`` objects -- nil, booleans, numbers, strings, table ids, closure
  ids and builtin primitives.  These are the things stores map to and the
  things table fields hold.  They are hashable so they can be table keys.
* ``Term`` nodes -- statements and expressions.  Parser output uses only the
  source forms; reduction introduces runtime forms (store references, value
  tuples, call frames, loop frames, error objects).

Terms are frozen dataclasses; reduction never mutates, it rebuilds.
``rewrite`` is the one tree rebuild: desugaring, substitution, globals
patching and renaming are each a visit over it, and a rebuilt term shares
every subtree that did not change.  One table, ``_KIDS``, gives each node
kind's sub-terms; ``walk``, ``summary`` and ``rewrite`` index it directly,
and ``children`` is its public accessor.
Source positions are carried for diagnostics but excluded from equality so
that structural comparison of reduced terms is meaningful.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union


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


if TYPE_CHECKING:
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


# The expression and statement node kinds.  The ``Union`` aliases exist only
# for type checkers: a runtime ``typing`` alias is cached by ``typing`` and
# would keep the classes, and so this module, alive after a fresh import.
EXPR_TYPES = (Const, Name, Globals, Ref, ValueTuple, Index, Call, Function,
              TableCtor, BinOp, And, Or, Not, Neg, CallFrame, ProtectedFrame,
              FinWrap)

if TYPE_CHECKING:
    Expr = Union[Const, Name, Globals, Ref, ValueTuple, Index, Call, Function,
                 TableCtor, BinOp, And, Or, Not, Neg, CallFrame,
                 ProtectedFrame, FinWrap]


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


STAT_TYPES = (Empty, Seq, Local, Assign, ExprStat, If, While, Break, Return,
              LoopFrame, ErrTerm, FinStat, Block)
TERM_TYPES = STAT_TYPES + EXPR_TYPES

if TYPE_CHECKING:
    Stat = Union[Empty, Seq, Local, Assign, ExprStat, If, While, Break, Return,
                 LoopFrame, ErrTerm, FinStat, Block]
    Term = Union[Stat, Expr]


_STATS = frozenset(STAT_TYPES)


def is_stat(t: Term) -> bool:
    """Is ``t`` a statement (as opposed to an expression)?"""
    return type(t) in _STATS


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
for _cls in TERM_TYPES:
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


def _leaf(t: Term) -> Tuple[Term, ...]:
    return ()


def _ctor_kids(t: TableCtor) -> Tuple[Term, ...]:
    return tuple(x for k, v in t.fields for x in ((v,) if k is None else (k, v)))


# Immediate sub-terms of each node kind, in evaluation-relevant left-to-right
# order.  A binder's names are not sub-terms.
_KIDS = {
    Const: _leaf, Name: _leaf, Globals: _leaf, Ref: _leaf, ValueTuple: _leaf,
    Empty: _leaf, Break: _leaf, ErrTerm: _leaf,
    Seq: lambda t: (t.first, t.rest),
    Local: lambda t: t.exprs + (t.body,),
    Assign: lambda t: t.targets + t.exprs,
    ExprStat: lambda t: (t.expr,),
    If: lambda t: (t.cond, t.then_body, t.else_body),
    While: lambda t: (t.cond, t.body),
    Return: lambda t: t.exprs,
    LoopFrame: lambda t: (t.inner,),
    FinStat: lambda t: (t.inner,),
    Block: lambda t: t.stats,
    Index: lambda t: (t.obj, t.key),
    Call: lambda t: (t.fn,) + t.args,
    Function: lambda t: (t.body,),
    TableCtor: _ctor_kids,
    BinOp: lambda t: (t.lhs, t.rhs),
    And: lambda t: (t.lhs, t.rhs),
    Or: lambda t: (t.lhs, t.rhs),
    Not: lambda t: (t.operand,),
    Neg: lambda t: (t.operand,),
    CallFrame: lambda t: (t.body,),
    ProtectedFrame: lambda t: (t.inner,),
    FinWrap: lambda t: (t.inner,),
}


def children(t: Term) -> Tuple[Term, ...]:
    """Immediate sub-terms, in evaluation-relevant left-to-right order."""
    return _KIDS[type(t)](t)


def walk(t: Term) -> Iterator[Term]:
    """Every node of ``t`` in pre-order.

    Iterative: children are pushed in reverse on an explicit stack, so the
    order is the recursive one and deep terms need no Python recursion.
    """
    stack = [t]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(_KIDS[type(n)](n)))


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


# A term's occurrences: each location that occurs in it, with how often, in
# first-occurrence print order (``Counter(term_locations(t))``), and how
# many finalizer markers (``FinStat``/``FinWrap``) it holds.  A memo is
# shared between nodes and must not be mutated.
Summary = Tuple[Dict[Location, int], int]
_NOTHING: Summary = ({}, 0)


def summary(t: Term) -> Summary:
    """What a collector needs from a term, without walking it again.

    Memoized on every node: a node is summarized once, from its children's
    summaries, so a subterm shared between terms (a continuation, a closure
    body) is walked once however often it is asked about.  Iterative
    post-order, so deep terms need no Python recursion.
    """
    if t._summary is not None:
        return t._summary
    stack = [t]
    while stack:
        n = stack[-1]
        if n._summary is not None:
            stack.pop()
            continue
        pending = [c for c in _KIDS[type(n)](n) if c._summary is None]
        if pending:
            stack.extend(pending)
        else:
            stack.pop()
            object.__setattr__(n, "_summary", _summarize(n))
    return t._summary


def _summarize(n: Term) -> Summary:
    """One node's summary from its children's, sharing a child's when the
    node adds nothing to it.

    When it does, the locations enter in order by C-level updates; only
    the children other than the largest are walked in Python, to add up
    the counts of the locations they share with the others."""
    if isinstance(n, Ref):
        return {("ref", n.r): 1}, 0
    if isinstance(n, (Const, ValueTuple)):
        counts: Dict[Location, int] = {}
        for v in ((n.value,) if isinstance(n, Const) else n.values):
            for l in value_locations(v):
                counts[l] = counts.get(l, 0) + 1
        return (counts, 0) if counts else _NOTHING
    parts = [c._summary for c in _KIDS[type(n)](n)
             if c._summary is not _NOTHING]
    marker = isinstance(n, (FinStat, FinWrap))
    if len(parts) < 2:
        if not marker:
            return parts[0] if parts else _NOTHING
        counts, markers = parts[0] if parts else _NOTHING
        return counts, markers + 1
    counts = {}
    for p in parts:
        counts.update(p[0])
    big = max(range(len(parts)), key=lambda i: len(parts[i][0]))
    extra: Dict[Location, int] = {}
    for i, p in enumerate(parts):
        if i != big:
            for l, k in p[0].items():
                extra[l] = extra.get(l, 0) + k
    most = parts[big][0]
    for l, k in extra.items():
        counts[l] = most.get(l, 0) + k
    return counts, sum(p[1] for p in parts) + marker


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------


def _rebuild_ctor(t: TableCtor, kids: list) -> TableCtor:
    it = iter(kids)
    return TableCtor(
        tuple((None if k is None else next(it), next(it)) for k, _ in t.fields),
        pos=t.pos,
    )


# A node of each kind from new sub-terms, laid out as ``rewrite`` collects
# them: as ``children`` gives them, except that a binder's names come just
# before its body.
_BUILD = {
    Seq: lambda t, k: Seq(k[0], k[1], pos=t.pos),
    Local: lambda t, k: Local(k[-2], tuple(k[:-2]), k[-1], pos=t.pos),
    Assign: lambda t, k: Assign(
        tuple(k[:len(t.targets)]), tuple(k[len(t.targets):]), pos=t.pos),
    ExprStat: lambda t, k: ExprStat(k[0], pos=t.pos),
    If: lambda t, k: If(k[0], k[1], k[2], pos=t.pos),
    While: lambda t, k: While(k[0], k[1], pos=t.pos),
    Return: lambda t, k: Return(tuple(k), pos=t.pos),
    LoopFrame: lambda t, k: LoopFrame(k[0], pos=t.pos),
    FinStat: lambda t, k: FinStat(k[0], pos=t.pos),
    Block: lambda t, k: Block(tuple(k), pos=t.pos),
    Index: lambda t, k: Index(k[0], k[1], pos=t.pos),
    Call: lambda t, k: Call(k[0], tuple(k[1:]), pos=t.pos),
    Function: lambda t, k: Function(k[0], k[1], pos=t.pos),
    TableCtor: _rebuild_ctor,
    BinOp: lambda t, k: BinOp(t.op, k[0], k[1], pos=t.pos),
    And: lambda t, k: And(k[0], k[1], pos=t.pos),
    Or: lambda t, k: Or(k[0], k[1], pos=t.pos),
    Not: lambda t, k: Not(k[0], pos=t.pos),
    Neg: lambda t, k: Neg(k[0], pos=t.pos),
    CallFrame: lambda t, k: CallFrame(k[0], pos=t.pos),
    ProtectedFrame: lambda t, k: ProtectedFrame(k[0], pos=t.pos),
    FinWrap: lambda t, k: FinWrap(k[0], pos=t.pos),
}

_BIND = -1  # stack mark: a local's expressions are done, bind its names


def _same_scope(names: Tuple[str, ...], env):
    return names, env


def rewrite(t: Term, env, visit, bind=_same_scope) -> Term:
    """Rebuild ``t`` bottom-up, node by node: the one term rewrite.

    ``visit(n, env)`` returns the node to put in ``n``'s place and whether
    to rewrite that node's sub-terms too.  ``bind(names, env)`` returns a
    binder's new names and the environment of its body; it runs for a
    ``Local``'s names once its expressions are done, and for a
    ``Function``'s parameters on entry, so names are met in pre-order.  A
    node none of whose sub-terms (or names) changed is kept as the same
    object, so an untouched subtree keeps its memoized hash and summary.

    A post-order rebuild on an explicit stack, so deep terms need no Python
    recursion.  An open entry is ``(node, env, None)``.  Once visited, a
    node goes back on the stack under its sub-terms as ``(node, old, mark)``
    with its old sub-terms and the length of ``done``; when it comes up
    again it takes the new sub-terms from ``done`` above the mark.  A
    ``Local`` also leaves ``(node, env, _BIND)`` under its expressions,
    which binds its names and opens its body.
    """
    done: list = []
    stack: list = [(t, env, None)]
    while stack:
        n, x, mark = stack.pop()
        if mark is None:
            n, descend = visit(n, x)
            cls = type(n)
            if not descend:
                done.append(n)
            elif cls is Local:
                stack.append((n, n.exprs + (n.names, n.body), len(done)))
                stack.append((n, x, _BIND))
                stack.extend([(e, x, None) for e in reversed(n.exprs)])
            elif cls is Function:
                stack.append((n, (n.params, n.body), len(done)))
                names, inner = bind(n.params, x)
                done.append(names)
                stack.append((n.body, inner, None))
            else:
                kids = _KIDS[cls](n)
                if kids:
                    stack.append((n, kids, len(done)))
                    stack.extend([(c, x, None) for c in reversed(kids)])
                else:
                    done.append(n)
        elif mark == _BIND:
            names, inner = bind(n.names, x)
            done.append(names)
            stack.append((n.body, inner, None))
        else:
            new = done[mark:]
            del done[mark:]
            for a, b in zip(new, x):
                if a is not b:
                    n = _BUILD[type(n)](n, new)
                    break
            done.append(n)
    return done[0]


def subst(t: Term, mapping: dict) -> Term:
    """Replace bound names by store references (``mapping``: name -> ref id).

    Stops at binders that shadow a substituted name; a subtree that
    mentions no substituted name comes back as the same object.
    """
    return rewrite(t, mapping, _subst_visit, _subst_bind)


def _subst_visit(n: Term, mapping: dict):
    if type(n) is Name and n.ident in mapping:
        return Ref(mapping[n.ident], pos=n.pos), False
    return n, bool(mapping)


def _subst_bind(names: Tuple[str, ...], mapping: dict):
    if any(k in mapping for k in names):
        mapping = {k: v for k, v in mapping.items() if k not in names}
    return names, mapping


# ---------------------------------------------------------------------------
# Operator precedence
# ---------------------------------------------------------------------------

# The one statement of operator precedence: the parser's expression loop
# and ``to_source`` both read it.  Each binary operator's level, loosest
# first; all are left-associative except ``^``.  Unary ``not`` and ``-``
# bind tighter than every binary operator but ``^``: ``-x ^ 2`` is
# ``-(x ^ 2)``.
BINARY_PREC = {
    "or": 1,
    "and": 2,
    "==": 3, "~=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
    "^": 7,
}
UNARY_PREC = 6
RIGHT_ASSOC = "^"


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def print_value(v: Value) -> str:
    if isinstance(v, Str):
        return json.dumps(v.s)
    return repr(v)


def to_source(t: Term, limit: Optional[int] = None) -> str:
    """Render a term as (re-parseable, for source terms) program text.

    With ``limit``, only the first ``limit`` characters, the same as
    ``to_source(t)[:limit]``: printing stops once they are out, so the
    rest of the term is never visited.

    An explicit-stack printer, so deep terms need no Python recursion.  A
    stack item is a string to emit or a ``(term, prec)`` pair, where
    ``prec`` is the precedence of the enclosing expression, or ``_STAT``
    for a statement position; a pair is replaced by its node's pieces
    (``_STAT_PIECES``, ``_EXPR_PIECES``), pushed in reverse.
    """
    out: List[str] = []
    size = 0
    stack: list = [(t, _STAT if is_stat(t) else 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            size += len(item)
            if limit is not None and size >= limit:
                break
            continue
        n, prec = item
        if prec == _STAT:
            pieces = _STAT_PIECES.get(type(n))
            if pieces is None:
                raise TypeError(f"unknown statement {n!r}")
            parts = pieces(n)
        else:
            pieces = _EXPR_PIECES.get(type(n))
            if pieces is None:
                raise TypeError(f"unknown expression {n!r}")
            parts = pieces(n, prec)
        parts.reverse()
        stack.extend(parts)
    text = "".join(out)
    return text if limit is None else text[:limit]


# The ``prec`` of a statement position in ``to_source``'s stack items.
_STAT = -1


def _listed(terms, prec: int = 0) -> list:
    """The pieces of ``terms`` separated by commas."""
    out: list = []
    for e in terms:
        if out:
            out.append(", ")
        out.append((e, prec))
    return out


def _local_pieces(t: Local) -> list:
    out: list = ["local " + ", ".join(t.names)]
    if t.exprs:
        out.append(" = ")
        out.extend(_listed(t.exprs))
    if not isinstance(t.body, Empty):
        out.extend((" in ", (t.body, _STAT), " end"))
    return out


def _if_pieces(t: If) -> list:
    out: list = ["if ", (t.cond, 0), " then ", (t.then_body, _STAT)]
    if not isinstance(t.else_body, Empty):
        out.extend((" else ", (t.else_body, _STAT)))
    out.append(" end")
    return out


def _block_pieces(t: Block) -> list:
    out: list = []
    for s in t.stats:
        if out:
            out.append(" ")
        if isinstance(s, Block):
            out.extend(("do ", (s, _STAT), " end"))
        else:
            out.append((s, _STAT))
    return out or [";"]


# A statement's pieces, keyed by node type.
_STAT_PIECES = {
    Empty: lambda t: [";"],
    Seq: lambda t: [(t.first, _STAT), " ", (t.rest, _STAT)],
    Local: _local_pieces,
    Assign: lambda t: _listed(t.targets) + [" = "] + _listed(t.exprs),
    ExprStat: lambda t: [(t.expr, 0)],
    If: _if_pieces,
    While: lambda t: ["while ", (t.cond, 0), " do ", (t.body, _STAT), " end"],
    Break: lambda t: ["break"],
    Return: lambda t: (["return "] + _listed(t.exprs) if t.exprs
                       else ["return"]),
    LoopFrame: lambda t: ["$loop[", (t.inner, _STAT), "]"],
    ErrTerm: lambda t: ["$err " + print_value(t.value)],
    FinStat: lambda t: ["$fin[", (t.inner, _STAT), "]"],
    Block: _block_pieces,
}


_LOGICAL_OPS = {And: "and", Or: "or"}

# The expressions printed bare in callee and indexee position.
_PREFIX_EXPRS = (Name, Index, Call, Ref, Globals, CallFrame, ProtectedFrame)


def _prefix(t: Expr) -> list:
    """Callee / indexee position: wrap non-prefix expressions in parens."""
    if isinstance(t, _PREFIX_EXPRS):
        return [(t, 0)]
    return ["(", (t, 0), ")"]


def _ctor_pieces(t: TableCtor, prec: int) -> list:
    out: list = ["{"]
    for k, v in t.fields:
        if len(out) > 1:
            out.append(", ")
        if k is None:
            out.append((v, 0))
        else:
            out.extend(("[", (k, 0), "] = ", (v, 0)))
    out.append("}")
    return out


def _binary_pieces(t, prec: int) -> list:
    op = _LOGICAL_OPS.get(type(t)) or t.op
    p = BINARY_PREC[op]
    extra = 1 if op == RIGHT_ASSOC else 0
    out = [(t.lhs, p + extra), f" {op} ", (t.rhs, p + 1 - extra)]
    return ["(", *out, ")"] if p < prec else out


def _unary_pieces(t, prec: int) -> list:
    # "- -x", not "--x", which would read as a comment
    if isinstance(t, Not):
        op = "not "
    else:
        op = "- " if _starts_with_minus(t.operand, UNARY_PREC) else "-"
    out = [op, (t.operand, UNARY_PREC)]
    return ["(", *out, ")"] if UNARY_PREC < prec else out


def _starts_with_minus(t: Expr, prec: int) -> bool:
    """Does ``t``, printed under precedence ``prec``, begin with "-"?  Only
    its leftmost spine can tell, walked without printing it."""
    while True:
        if isinstance(t, Const):
            return print_value(t.value)[:1] == "-"
        if isinstance(t, Name):
            return t.ident[:1] == "-"
        if isinstance(t, (BinOp, And, Or)):
            op = _LOGICAL_OPS.get(type(t)) or t.op
            p = BINARY_PREC[op]
            if p < prec:
                return False
            t, prec = t.lhs, p + (1 if op == RIGHT_ASSOC else 0)
        elif isinstance(t, (Not, Neg)):
            return isinstance(t, Neg) and UNARY_PREC >= prec
        elif isinstance(t, (Index, Call)):
            t = t.obj if isinstance(t, Index) else t.fn
            if not isinstance(t, _PREFIX_EXPRS):
                return False
            prec = 0
        else:
            return False


# An expression's pieces under the enclosing precedence, keyed by node type.
_EXPR_PIECES = {
    Const: lambda t, prec: [print_value(t.value)],
    Name: lambda t, prec: [t.ident],
    Globals: lambda t, prec: ["$globals"],
    Ref: lambda t, prec: [f"$r{t.r}"],
    ValueTuple: lambda t, prec: [
        "$values(" + ", ".join(print_value(v) for v in t.values) + ")"],
    Index: lambda t, prec: _prefix(t.obj) + ["[", (t.key, 0), "]"],
    Call: lambda t, prec: _prefix(t.fn) + ["("] + _listed(t.args) + [")"],
    Function: lambda t, prec: [
        "function (" + ", ".join(t.params) + ") ", (t.body, _STAT), " end"],
    TableCtor: _ctor_pieces,
    BinOp: _binary_pieces,
    And: _binary_pieces,
    Or: _binary_pieces,
    Not: _unary_pieces,
    Neg: _unary_pieces,
    CallFrame: lambda t, prec: ["$call[", (t.body, _STAT), "]"],
    ProtectedFrame: lambda t, prec: ["$protected[", (t.inner, 0), "]"],
    FinWrap: lambda t, prec: ["$finexpr[", (t.inner, 0), "]"],
}


# ---------------------------------------------------------------------------
# JSON dump (deterministic, for golden tests / --dump-ast)
# ---------------------------------------------------------------------------


# per class: the JSON kind, the node's own (non-term) fields, and the
# attributes holding its sub-terms; a tuple of terms becomes a list
_JSON_FIELDS = {
    Const: ("const", lambda t: {"value": _value_json(t.value)}, ()),
    Name: ("name", lambda t: {"ident": t.ident}, ()),
    Globals: ("globals", None, ()),
    Ref: ("ref", lambda t: {"r": t.r}, ()),
    ValueTuple: ("values",
                 lambda t: {"values": [_value_json(v) for v in t.values]}, ()),
    Index: ("index", None, ("obj", "key")),
    Call: ("call", None, ("fn", "args")),
    Function: ("function", lambda t: {"params": list(t.params)}, ("body",)),
    BinOp: ("binop", lambda t: {"op": t.op}, ("lhs", "rhs")),
    And: ("and", None, ("lhs", "rhs")),
    Or: ("or", None, ("lhs", "rhs")),
    Not: ("not", None, ("operand",)),
    Neg: ("neg", None, ("operand",)),
    Empty: ("empty", None, ()),
    Seq: ("seq", None, ("first", "rest")),
    Local: ("local", lambda t: {"names": list(t.names)}, ("exprs", "body")),
    Assign: ("assign", None, ("targets", "exprs")),
    ExprStat: ("exprstat", None, ("expr",)),
    If: ("if", None, ("cond", "then_body", "else_body")),
    While: ("while", None, ("cond", "body")),
    Break: ("break", None, ()),
    Return: ("return", None, ("exprs",)),
    Block: ("block", None, ("stats",)),
    LoopFrame: ("loopframe", None, ("inner",)),
    ErrTerm: ("err", lambda t: {"value": _value_json(t.value)}, ()),
    FinStat: ("finstat", None, ("inner",)),
    CallFrame: ("callframe", None, ("body",)),
    ProtectedFrame: ("protected", None, ("inner",)),
    FinWrap: ("finwrap", None, ("inner",)),
}
# the JSON key of an attribute, where the two differ
_JSON_KEYS = {"then_body": "then", "else_body": "else"}


def to_json(t: Term) -> dict:
    """The term as nested dicts and lists, one dict per node.

    An explicit-stack walk, so deep terms need no Python recursion: a
    node's dict is made with ``None`` in each sub-term slot, and the slot
    is filled when that sub-term comes off the stack.
    """
    top: list = [None]
    stack: list = [(top, 0, t)]
    while stack:
        holder, slot, n = stack.pop()
        if isinstance(n, TableCtor):
            fields = []
            for k, v in n.fields:
                f = {"key": None, "value": None}
                fields.append(f)
                if k is not None:
                    stack.append((f, "key", k))
                stack.append((f, "value", v))
            holder[slot] = {"kind": "table", "fields": fields}
            continue
        spec = _JSON_FIELDS.get(type(n))
        if spec is None:
            raise TypeError(f"unknown term {n!r}")  # pragma: no cover
        kind, own, subs = spec
        d = {"kind": kind, **(own(n) if own else {})}
        for attr in subs:
            sub = getattr(n, attr)
            key = _JSON_KEYS.get(attr, attr)
            if isinstance(sub, tuple):
                d[key] = [None] * len(sub)
                stack.extend((d[key], i, c) for i, c in enumerate(sub))
            else:
                d[key] = None
                stack.append((d, key, sub))
        holder[slot] = d
    return top[0]


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
