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
every subtree that did not change.  Each term class declares its sub-term
slots once, on its fields (``_slot``); the per-class functions that take a
node apart and put it together -- ``children``, ``rewrite``'s rebuild,
``==``, ``to_json`` and the interpreter's plugging -- are derived from it.

Every dataclass of the package is declared through ``record``, and its
methods come from the field list, not from ``dataclasses``: one ``exec``
per module (``compile_records``) compiles each class's ``__init__``,
``__eq__`` and, if it is frozen, ``__hash__``, together with the module's
derived functions; the frozen ``__setattr__``/``__delattr__`` and
``repr`` are functions shared by every class.  The constructors of terms,
values and ``Pos`` write the fields straight into the instance dict, as
every step builds nodes; the classes stay frozen.  Source positions are
carried for diagnostics but excluded from equality so that structural
comparison of reduced terms is meaningful.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import (
    MISSING, FrozenInstanceError, dataclass, field, fields, replace,
)
from dataclasses import _HAS_DEFAULT_FACTORY  # a factory default's mark
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple, Union,
)

# A class docstring's place holder while ``dataclasses`` processes a record
# that has none: a false one would have ``dataclasses`` make the docstring
# from ``inspect.signature``, which ``compile_records`` makes from the
# fields instead.
_UNDOCUMENTED = "<no docstring>"


def record(cls=None, /, *, frozen: bool = False):
    """``dataclass(cls, init=False, repr=False, eq=False)``, so that
    ``dataclasses`` compiles no method, then the methods every record
    shares: the dataclass's ``repr`` and, if ``frozen``, its
    ``__setattr__`` and ``__delattr__``, which raise
    ``FrozenInstanceError``; that ``__setattr__`` is what marks the class
    frozen.  ``fields``, ``replace``, ``is_dataclass`` and
    ``__match_args__`` work as on any dataclass; ``compile_records`` gives
    the class the rest.  As with ``dataclass``, a frozen class may not
    inherit from a mutable dataclass, nor a mutable one from a frozen
    dataclass."""
    def wrap(cls):
        bases = [b for b in cls.__mro__[1:]
                 if "__dataclass_fields__" in vars(b)]
        if bases and any(map(_frozen, bases)) != frozen:
            raise TypeError(
                "cannot inherit frozen dataclass from a non-frozen one"
                if frozen else
                "cannot inherit non-frozen dataclass from a frozen one")
        if not cls.__doc__:
            cls.__doc__ = _UNDOCUMENTED
        cls = dataclass(cls, init=False, repr=False, eq=False)
        cls._repr_fields = tuple(f.name for f in fields(cls) if f.repr)
        if "__repr__" not in vars(cls):
            cls.__repr__ = _record_repr
        if frozen:
            for name, fn in (("__setattr__", _frozen_setattr),
                             ("__delattr__", _frozen_delattr)):
                if name in vars(cls):
                    raise TypeError(f"Cannot overwrite attribute {name} in "
                                    f"class {cls.__name__}")
                setattr(cls, name, fn)
        return cls
    return wrap if cls is None else wrap(cls)


def _frozen(cls: type) -> bool:
    """Is the dataclass ``cls`` frozen, as a record or as a dataclass?"""
    return (cls.__setattr__ is _frozen_setattr
            or cls.__dataclass_params__.frozen)


@reprlib.recursive_repr()
def _record_repr(self) -> str:
    """The dataclass's ``repr``: the class and the fields it prints."""
    return (self.__class__.__qualname__ + "("
            + ", ".join([f"{name}={getattr(self, name)!r}"
                         for name in self._repr_fields]) + ")")


def _frozen_owner(self, name: str, fn) -> type:
    """The class in ``self``'s MRO whose own ``name`` method is ``fn``."""
    return next(c for c in type(self).__mro__ if vars(c).get(name) is fn)


def _frozen_setattr(self, name: str, value) -> None:
    """The frozen dataclass's ``__setattr__``: a field, or any attribute
    of an instance of the record itself, may not be set."""
    cls = _frozen_owner(self, "__setattr__", _frozen_setattr)
    if type(self) is cls or name in [f.name for f in fields(cls)]:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")
    super(cls, self).__setattr__(name, value)


def _frozen_delattr(self, name: str) -> None:
    """The frozen dataclass's ``__delattr__``."""
    cls = _frozen_owner(self, "__delattr__", _frozen_delattr)
    if type(self) is cls or name in [f.name for f in fields(cls)]:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
    super(cls, self).__delattr__(name)


def _fields_tuple(o: str, fs) -> str:
    """The dataclass's ``(o.a,o.b,)`` of the fields ``fs``."""
    return "(" + "".join(f"{o}.{f.name}," for f in fs) + ")"


def compile_records(*classes: type, direct: Iterable[type] = (),
                    derived: Iterable[Dict] = ()) -> List[Dict]:
    """Give each of ``classes``, records (or dataclasses declared with
    ``init=False``), the methods ``dataclasses`` would have made from its
    fields, all compiled in one ``exec``: an ``__init__`` with the same
    parameters and defaults; ``__eq__``, which compares the tuples of the
    compared fields of two instances of the same class, unless the class
    has its own; and, for a frozen class without its own, ``__hash__``,
    the hash of that tuple.  A mutable class without its own ``__hash__``
    gets None.  The ``__init__`` of a class in ``direct`` writes each field
    straight into the instance dict; any other assigns it, through
    ``object.__setattr__`` if the class is frozen.  A record without a
    docstring gets the dataclass's, ``Name(a, b=None, c=<factory>)``.

    ``derived`` are dicts of ``lambda`` sources over this module's names;
    they compile in the same ``exec``, and come back as dicts with the
    same keys, of the functions.  A class with ``__slots__``, its own
    ``__init__``, ``__post_init__`` or a field that is not a positional
    parameter is refused before anything compiles."""
    direct = frozenset(direct)
    for cls in classes:
        if ("__slots__" in vars(cls) or "__init__" in vars(cls)
                or hasattr(cls, "__post_init__")
                or any(not f.init or f.kw_only for f in fields(cls))):
            raise TypeError(f"{cls.__name__}: not a dataclass(init=False) "
                            "without __slots__ and __post_init__")
    values: Dict[str, object] = {"_FACTORY": _HAS_DEFAULT_FACTORY}
    src: List[str] = []
    made: List[Tuple[type, str]] = []  # what each appended function is
    for i, cls in enumerate(classes):
        fs, frozen = fields(cls), _frozen(cls)
        params, body, doc = ["self"], [], []
        for f in fs:
            x = f.name
            if f.default is not MISSING:
                values[f"_d{i}_{x}"] = f.default
                params.append(f"{x}=_d{i}_{x}")
                doc.append(f"{x}={f.default!r}")
            elif f.default_factory is not MISSING:
                values[f"_f{i}_{x}"] = f.default_factory
                params.append(f"{x}=_FACTORY")
                doc.append(f"{x}=<factory>")
                x = f"_f{i}_{x}() if {x} is _FACTORY else {x}"
            else:
                params.append(x)
                doc.append(x)
            body.append(f"_self_dict[{f.name!r}] = {x}" if cls in direct
                        else f"object.__setattr__(self, {f.name!r}, {x})"
                        if frozen else f"self.{f.name} = {x}")
        if cls in direct and body:
            body.insert(0, "_self_dict = self.__dict__")
        methods = [("__init__", ", ".join(params), body or ["pass"])]
        compared = [f for f in fs if f.compare]
        if "__eq__" not in vars(cls):
            methods.append(("__eq__", "self, other", [
                "if other.__class__ is self.__class__:",
                f"    return {_fields_tuple('self', compared)}=="
                f"{_fields_tuple('other', compared)}",
                "return NotImplemented"]))
        own_hash = vars(cls).get("__hash__", MISSING)
        # as ``dataclasses`` tells an explicit hash: the None that Python
        # sets beside a class body's own ``__eq__`` is not one
        if own_hash is MISSING or (own_hash is None
                                   and "__eq__" in vars(cls)):
            if frozen:
                hashed = [f for f in fs
                          if (f.compare if f.hash is None else f.hash)]
                methods.append(("__hash__", "self", [
                    f"return hash({_fields_tuple('self', hashed)})"]))
            else:
                cls.__hash__ = None
        for name, args, lines in methods:
            src.append(f"    def {name}({args}):\n"
                       + "".join(f"        {line}\n" for line in lines)
                       + f"    _made.append({name})\n")
            made.append((cls, name))
        if cls.__doc__ is _UNDOCUMENTED:
            cls.__doc__ = f"{cls.__name__}({', '.join(doc)})"
    derived = list(derived)
    for table in derived:
        src.extend(f"    _made.append({lam})\n" for lam in table.values())
    # the defaults and factories are the parameters of one function that
    # makes every method and lambda, as ``dataclasses`` binds them
    ns: dict = {}
    exec(f"def _batch({', '.join(values)}):\n    _made = []\n"
         + "".join(src) + "    return _made\n", globals(), ns)
    fns = ns["_batch"](*values.values())
    for (cls, name), fn in zip(made, fns):
        fn.__module__ = cls.__module__
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    out, at = [], len(made)
    for table in derived:
        out.append(dict(zip(table, fns[at:at + len(table)])))
        at += len(table)
    return out


@record(frozen=True)
class Pos:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def _pos_field():
    return field(default=None, compare=False, repr=False)


# The shape of a sub-term slot: one term, a tuple of terms, or a table
# constructor's (key, value) pairs, whose key may be None.
ONE, MANY, PAIRS = "one", "many", "pairs"


def _slot(shape: str = ONE, evaluated: bool = False):
    """Declare a term's field a sub-term slot.  The machine reduces the
    terms of an ``evaluated`` slot where they stand, and of no other; a
    field not declared a slot, but ``pos``, is the node's own."""
    return field(metadata={"slot": (shape, evaluated)})


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


@record(frozen=True)
class Nil:
    def __repr__(self) -> str:
        return "nil"


@record(frozen=True)
class Bool:
    flag: bool

    def __repr__(self) -> str:
        return "true" if self.flag else "false"


@record(frozen=True)
class Num:
    x: float

    def __repr__(self) -> str:
        return format_number(self.x)


@record(frozen=True)
class Str:
    s: str

    def __repr__(self) -> str:
        return json.dumps(self.s)


@record(frozen=True)
class Tid:
    """Table identifier; tables live in the object store."""

    n: int

    def __repr__(self) -> str:
        return f"table: #{self.n}"


@record(frozen=True)
class Cid:
    """Closure identifier; closures live in the object store."""

    n: int

    def __repr__(self) -> str:
        return f"function: #{self.n}"


@record(frozen=True)
class Builtin:
    """A primitive library function (print, pcall, setmetatable, ...)."""

    name: str

    def __repr__(self) -> str:
        return f"function: builtin:{self.name}"


VALUE_TYPES = (Nil, Bool, Num, Str, Tid, Cid, Builtin)

if TYPE_CHECKING:
    Value = Union[Nil, Bool, Num, Str, Tid, Cid, Builtin]


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


@record(frozen=True)
class Const:
    """A value in expression position."""

    value: Value
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class Name:
    """A source-level variable.  Gone after desugaring/substitution."""

    ident: str
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class Globals:
    """Placeholder for the global-environment table, patched at load time."""

    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class Ref:
    """Runtime reference into the value store."""

    r: int
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class ValueTuple:
    """Runtime form: the (possibly empty) result list of a finished call."""

    values: Tuple[Value, ...]
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class Index:
    obj: "Expr" = _slot(evaluated=True)
    key: "Expr" = _slot(evaluated=True)
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class Call:
    fn: "Expr" = _slot(evaluated=True)
    args: Tuple["Expr", ...] = _slot(MANY, evaluated=True)
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class Function:
    params: Tuple[str, ...]
    body: "Stat" = _slot()
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class TableCtor:
    """Table constructor; after desugaring every field has an explicit key."""

    fields: Tuple[Tuple[Optional["Expr"], "Expr"], ...] = _slot(
        PAIRS, evaluated=True)
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class BinOp:
    op: str  # + - * / % ^ == ~= < <= > >=
    lhs: "Expr" = _slot(evaluated=True)
    rhs: "Expr" = _slot(evaluated=True)
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class And:
    lhs: "Expr" = _slot(evaluated=True)
    rhs: "Expr" = _slot()
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class Or:
    lhs: "Expr" = _slot(evaluated=True)
    rhs: "Expr" = _slot()
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class Not:
    operand: "Expr" = _slot(evaluated=True)
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class Neg:
    operand: "Expr" = _slot(evaluated=True)
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class CallFrame:
    """Runtime form: a function body executing in expression position."""

    body: "Stat" = _slot(evaluated=True)
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class ProtectedFrame:
    """Runtime form: the guarded region opened by pcall."""

    inner: "Expr" = _slot(evaluated=True)
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class FinWrap:
    """Runtime marker around an in-flight finalizer call (expression form)."""

    inner: "Expr" = _slot(evaluated=True)
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


@record(frozen=True)
class Empty:
    """The empty statement ``;``."""

    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class Seq:
    first: "Stat" = _slot(evaluated=True)
    rest: "Stat" = _slot()
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class Local:
    names: Tuple[str, ...]
    exprs: Tuple[Expr, ...] = _slot(MANY, evaluated=True)
    body: "Stat" = _slot()
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class Assign:
    targets: Tuple[Expr, ...] = _slot(MANY)  # Ref or Index after desugaring
    exprs: Tuple[Expr, ...] = _slot(MANY, evaluated=True)
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class ExprStat:
    """A call executed for effect; its results are discarded."""

    expr: Expr = _slot(evaluated=True)
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class If:
    cond: Expr = _slot(evaluated=True)
    then_body: "Stat" = _slot()
    else_body: "Stat" = _slot()
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class While:
    cond: Expr = _slot()
    body: "Stat" = _slot()
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class Break:
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class Return:
    exprs: Tuple[Expr, ...] = _slot(MANY, evaluated=True)
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class LoopFrame:
    """Runtime form: the active extent of a loop; break unwinds to here."""

    inner: "Stat" = _slot(evaluated=True)
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class ErrTerm:
    """Runtime form: an uncaught error object terminating the program."""

    value: Value
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class FinStat:
    """Runtime marker around an in-flight finalizer call (statement form)."""

    inner: "Stat" = _slot(evaluated=True)
    pos: Optional[Pos] = _pos_field()


@record(frozen=True)
class Block:
    """Parser-level statement list; folded away by desugaring."""

    stats: Tuple["Stat", ...] = _slot(MANY)
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


# ---------------------------------------------------------------------------
# The node schema, and the tables derived from it
# ---------------------------------------------------------------------------

# per class: its slots as ``(field, shape, evaluated)``, and its own fields,
# each in field order; the ``_slot`` marks are the one statement of them
SLOTS = {cls: tuple((f.name, *f.metadata["slot"]) for f in fields(cls)
                    if f.metadata) for cls in TERM_TYPES}
OWN = {cls: tuple(f.name for f in fields(cls)
                  if not f.metadata and f.name != "pos") for cls in TERM_TYPES}


def rebuilder(cls: type, params: str, new: Dict[str, str],
              parts: bool = False) -> str:
    """The source of ``lambda t, <params>:`` a ``cls`` node that is ``t``
    but for the slots whose new contents ``new`` gives the source of; with
    ``parts``, the class and that node's compared fields as a tuple,
    without the node.  ``compile_records`` compiles it."""
    args = "".join(new.get(f.name, "t." + f.name) + ", "
                   for f in fields(cls) if f.name != "pos")
    return (f"lambda t, {params}: "
            + (f"({cls.__name__}, {args})" if parts
               else f"{cls.__name__}({args}pos=t.pos)"))


def _pairs_from(pairs, kids) -> tuple:
    """A constructor's pairs with new sub-terms: keys where there were."""
    it = iter(kids)
    return tuple((None if k is None else next(it), next(it)) for k, _ in pairs)


def _sources(cls: type) -> Tuple[str, Dict[str, str], str]:
    """Source for a node's sub-terms as one tuple (``children``); for each
    slot's contents read back from a list ``k`` laid out so (``rewrite``);
    and for a step of ``a == b``: False if their forms differ, else their
    sub-terms' pairs.  A form, the node's own fields and the shapes of its
    tuples of terms, is a tuple: a value that is the same object on both
    sides is equal, even a NaN."""
    def terms(o: str, name: str, shape: str) -> str:
        if shape == PAIRS:
            return (f"tuple(x for k, v in {o}.{name}"
                    " for x in ((v,) if k is None else (k, v)))")
        return f"{o}.{name}" if shape == MANY else f"({o}.{name},)"

    def form(o: str) -> str:
        return "(" + "".join([f"{o}.{name}, " for name in OWN[cls]] + [
            f"len({o}.{name}), " if shape == MANY else
            f"tuple(k is None for k, _ in {o}.{name}), "
            for name, shape, _ in SLOTS[cls] if shape != ONE]) + ")"

    new, at, pairs = {}, "0", []
    for i, (name, shape, _) in enumerate(SLOTS[cls]):
        size = "1" if shape == ONE else f"len({terms('t', name, shape)})"
        end = "" if i == len(SLOTS[cls]) - 1 else f"{at} + {size}"
        new[name] = (f"k[{at}]" if shape == ONE
                     else f"tuple(k[{at}:{end}])" if shape == MANY
                     else f"_pairs_from(t.{name}, k[{at}:])")
        at = end
        pairs.append(f"(a.{name}, b.{name}), " if shape == ONE else
                     f"*zip({terms('a', name, shape)}, "
                     f"{terms('b', name, shape)}), ")
    # a run of single terms makes one tuple: (t.a, t.b,), not (t.a,) + (t.b,)
    kids = " + ".join(terms("t", name, shape) for name, shape, _ in SLOTS[cls])
    same = "(" + "".join(pairs) + ")"
    if form("a") != "()":
        same = f"{form('a')} == {form('b')} and {same}"
    return kids.replace(",) + (", ", ") or "()", new, same


_KIDS_DONE = object()  # stack mark: the node below it has its kids done


def _fill(t: Term, memo: str, make) -> None:
    """Set the unset ``memo`` slot of ``t`` to ``make(t)``, and first that
    of each node below it where it is unset.  A fresh node over memoized
    children and fresh leaves, what a step mostly builds, is filled in
    place; a deeper one by ``_memoize``."""
    for c in _KIDS[type(t)](t):
        if getattr(c, memo) is None:
            if _KIDS[type(c)](c):
                _memoize(t, memo, make)
                return
            c.__dict__[memo] = make(c)
    t.__dict__[memo] = make(t)


def _memoize(t: Term, memo: str, make) -> None:
    """``_fill`` on an iterative post-order, so deep terms need no Python
    recursion."""
    stack = [t]
    while stack:
        n = stack.pop()
        if n is _KIDS_DONE:
            n = stack.pop()
            n.__dict__[memo] = make(n)
        elif getattr(n, memo) is None:
            stack += (n, _KIDS_DONE)
            stack += _KIDS[type(n)](n)


def _term_hash(self: Term) -> int:
    """The dataclass's hash, memoized on each node: a fresh term shares
    most of its nodes with the term it came from, so hashing it only
    walks the nodes that are new.  String hashes are salted per process,
    so a memoized hash must not travel to another one."""
    if self._hash is None:
        _fill(self, "_hash", _structural_hash)
    return self._hash


def _structural_hash(n: Term) -> int:
    return _STRUCTURAL[type(n)](n)


def _term_eq(self: Term, other) -> bool:
    """The dataclass's equality, on an explicit stack of node pairs, so
    deep terms need no Python recursion.  A pair of the same node is
    equal, and one of nodes whose memoized hashes differ is not."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    pairs = [(self, other)]
    while pairs:
        a, b = pairs.pop()
        if a is b:
            continue
        cls = type(a)
        if (type(b) is not cls
                or a._hash != b._hash and None not in (a._hash, b._hash)):
            return False
        more = _SAME[cls](a, b)
        if more is False:
            return False
        pairs += more
    return True


# Per class: its sub-terms (``children``); a node from new sub-terms laid
# out as those (``rewrite``); a step of ``==``; and the dataclass's hash,
# of the tuple of its compared fields.  The memo slots read by ``__hash__``
# and ``summary`` are not dataclass fields: equality, ``replace`` and
# printing ignore them.  The tables hold sources until ``compile_records``
# turns them into functions, in the ``exec`` that compiles this module's
# methods; so no step reads the schema.
_KIDS, _BUILD, _SAME = {}, {}, {}
for _cls in TERM_TYPES:
    _kids, _new, _same = _sources(_cls)
    _KIDS[_cls] = "lambda t: " + _kids
    if _new:
        _BUILD[_cls] = rebuilder(_cls, "k", _new)
    _SAME[_cls] = "lambda a, b: " + _same
    _cls._hash = _cls._summary = None
    _cls.__eq__ = _term_eq
_NODES = (Pos, *VALUE_TYPES, *TERM_TYPES)
_KIDS, _BUILD, _SAME = compile_records(*_NODES, direct=_NODES,
                                       derived=(_KIDS, _BUILD, _SAME))
_STRUCTURAL = {cls: cls.__hash__ for cls in TERM_TYPES}
for _cls in TERM_TYPES:
    _cls.__hash__ = _term_hash

# the value constants, made once the value classes have their constructors
NIL = Nil()
TRUE = Bool(True)
FALSE = Bool(False)


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

Location = Tuple[str, int]  # ("ref"|"tid"|"cid", id)


def value_locations(v: Value) -> Iterator[Location]:
    if isinstance(v, Tid):
        yield ("tid", v.n)
    elif isinstance(v, Cid):
        yield ("cid", v.n)


# the location kind of a collectible value's class
_KINDS = {Tid: "tid", Cid: "cid"}


def _value_loc(v: Value) -> Optional[Location]:
    """The location a collectible value names; None for another value."""
    kind = _KINDS.get(type(v))
    return None if kind is None else (kind, v.n)


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
    body) is walked once however often it is asked about.
    """
    if t._summary is None:
        _fill(t, "_summary", _summarize)
    return t._summary


def _summarize(n: Term) -> Summary:
    """One node's summary from its children's, sharing a child's when the
    node adds nothing to it.

    When it does, the locations enter in order by C-level updates; only
    the children other than the largest are walked in Python, to add up
    the counts of the locations they share with the others."""
    cls = type(n)
    if cls is Const:
        l = _value_loc(n.value)
        return _NOTHING if l is None else ({l: 1}, 0)
    if cls is Ref:
        return {("ref", n.r): 1}, 0
    if cls is ValueTuple:
        counts: Dict[Location, int] = {}
        for l in map(_value_loc, n.values):
            if l is not None:
                counts[l] = counts.get(l, 0) + 1
        return (counts, 0) if counts else _NOTHING
    parts = [c._summary for c in _KIDS[cls](n)
             if c._summary is not _NOTHING]
    marker = cls is FinStat or cls is FinWrap
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
    which binds its names and opens its body.  A binder whose names
    ``bind`` changes is remade with them in the entry that rebuilds it.
    """
    done: list = []
    stack: list = [(t, env, None)]
    while stack:
        n, x, mark = stack.pop()
        if mark is None:
            n, descend = visit(n, x)
            cls = type(n)
            if cls is Function and descend:
                names, x = bind(n.params, x)
                if names is not n.params:
                    n = replace(n, params=names)
            kids = _KIDS[cls](n) if descend else ()
            if not kids:
                done.append(n)
                continue
            stack.append((n, kids, len(done)))
            if cls is Local:
                stack.append((n, x, _BIND))
                kids = n.exprs
            stack.extend([(c, x, None) for c in reversed(kids)])
        elif mark == _BIND:
            names, inner = bind(n.names, x)
            if names is not n.names:
                m, old, at = stack.pop()
                stack.append((replace(m, names=names), old, at))
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


# The JSON kind of a class and key of a field, where they are not its name
# (in lower case); per class, its JSON kind, own fields and slots.
_JSON_KINDS = {ValueTuple: "values", ErrTerm: "err",
               ProtectedFrame: "protected", TableCtor: "table"}
_JSON_KEYS = {"then_body": "then", "else_body": "else"}
_JSON = {cls: (_JSON_KINDS.get(cls, cls.__name__.lower()), OWN[cls],
               SLOTS[cls]) for cls in TERM_TYPES}


def to_json(t: Term) -> dict:
    """The term as nested dicts and lists, one dict per node: its kind,
    then its own fields and its slots, each in field order.  A tuple of
    terms becomes a list, a constructor's pairs ``key``/``value`` dicts.

    An explicit-stack walk, so deep terms need no Python recursion: a
    node's dict is made with ``None`` in each sub-term slot, and the slot
    is filled when that sub-term comes off the stack.
    """
    top: list = [None]
    stack: list = [(top, 0, t)]
    while stack:
        holder, slot, n = stack.pop()
        kind, own, slots = _JSON[type(n)]
        d = {"kind": kind, **{f: _own_json(getattr(n, f)) for f in own}}
        for name, shape, _ in slots:
            sub, key = getattr(n, name), _JSON_KEYS.get(name, name)
            if shape == ONE:
                d[key] = None
                stack.append((d, key, sub))
            elif shape == MANY:
                d[key] = [None] * len(sub)
                stack.extend((d[key], i, c) for i, c in enumerate(sub))
            else:
                d[key] = [{"key": None, "value": None} for _ in sub]
                for f, (k, v) in zip(d[key], sub):
                    stack.append((f, "value", v))
                    if k is not None:
                        stack.append((f, "key", k))
        holder[slot] = d
    return top[0]


def _own_json(x):
    """An own field: a value, a name, an operator, a number or a tuple of
    them."""
    if type(x) is tuple:
        return [_own_json(y) for y in x]
    return x if isinstance(x, (str, int)) else _value_json(x)


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
