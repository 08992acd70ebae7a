"""The analyzer's type language and subtyping.

Types: primitives, singleton types lifting literal values, ``dyn`` (the
top), function arrows with product domains, and table types mapping
singleton keys to types, tagged with the table's weakness.  Table types
may be recursive through their field graph; comparisons are coinductive.

Collectible-value provenance is tracked through ``labels``: the set of
allocation sites (constructor/function-literal program points) a value of
this type may originate from.  The weak-access safety check is a question
about those labels.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Tuple, Union

from . import ast as A
from .heap import weak_keys, weak_values

PRIMS = ("nil", "num", "bool", "str")


@A.record(frozen=True)
class PrimType:
    name: str  # nil | num | bool | str

    def __str__(self) -> str:
        return self.name


@A.record(frozen=True)
class SingletonType:
    value: A.Value  # Nil, Bool, Num or Str
    prim: str

    def __str__(self) -> str:
        return f"<{A.print_value(self.value)}:{self.prim}>"


@A.record(frozen=True)
class DynType:
    def __str__(self) -> str:
        return "dyn"


@A.record(frozen=True)
class BuiltinFnType:
    name: str

    def __str__(self) -> str:
        return f"builtin({self.name})"


@A.record(frozen=True)
class FuncType:
    domain: Tuple["SType", ...]  # product of parameter types; () is unit
    result: "SType"
    labels: FrozenSet[int] = frozenset()

    def __str__(self) -> str:
        dom = " x ".join(str(t) for t in self.domain) if self.domain else "()"
        return f"({dom} -> {self.result})"


A.compile_records(PrimType, SingletonType, DynType, BuiltinFnType, FuncType)


class TableType:
    """A table type: singleton-keyed fields plus a weakness tag.

    Mutable on purpose: field maps are shared between aliases so that
    field additions flow (and self-referencing tables close the loop,
    playing the role of recursive types).  ``retag`` produces a new view
    with different weakness over the same field map.
    """

    __slots__ = ("fields", "weakness", "labels")

    def __init__(
        self,
        fields: Optional[Dict[A.Value, "SType"]] = None,
        weakness: str = "strong",
        labels: Iterable[int] = (),
    ):
        self.fields = fields if fields is not None else {}
        self.weakness = weakness
        self.labels = frozenset(labels)

    def retag(self, weakness: str) -> "TableType":
        t = TableType(self.fields, weakness, self.labels)
        return t
    def __str__(self) -> str:
        inner = ", ".join(
            f"[{A.print_value(k)}]: {_brief(v)}" for k, v in self.fields.items()
        )
        return "{" + inner + "} " + self.weakness


def _brief(t: "SType") -> str:
    if isinstance(t, TableType):
        return "{...} " + t.weakness
    return str(t)


if TYPE_CHECKING:
    SType = Union[PrimType, SingletonType, DynType, FuncType, TableType,
                  BuiltinFnType]

DYN = DynType()
NIL_T = PrimType("nil")
NUM_T = PrimType("num")
BOOL_T = PrimType("bool")
STR_T = PrimType("str")


def singleton_of(v: A.Value) -> SType:
    if isinstance(v, A.Nil):
        return SingletonType(v, "nil")
    if isinstance(v, A.Bool):
        return SingletonType(v, "bool")
    if isinstance(v, A.Num):
        return SingletonType(v, "num")
    if isinstance(v, A.Str):
        return SingletonType(v, "str")
    raise TypeError(f"no singleton type for {v!r}")


# Weaknesses whose values are not strong references.  Analyzed keys are
# literals, never collected, so ephemeron values are strong references.
WEAK_VALUES = ("wv", "wkv")


def is_collectible_type(t: SType) -> bool:
    """Tables and functions are the statically collectible values."""
    return isinstance(t, (TableType, FuncType))


# ---------------------------------------------------------------------------
# Subtyping
# ---------------------------------------------------------------------------


def subtype(a: SType, b: SType, _seen: Optional[set] = None) -> bool:
    """Reflexive-transitive subtyping.

    dyn is the top; singletons sit under their primitive; tables relate by
    width, depth and permutation (weakness deliberately ignored); function
    subtyping is reflexivity; products are covariant.
    """
    if a is b:
        return True
    if isinstance(b, DynType):
        return True
    if isinstance(a, DynType):
        return False
    if isinstance(a, SingletonType):
        if isinstance(b, SingletonType):
            return a.prim == b.prim and a.value == b.value
        return isinstance(b, PrimType) and b.name == a.prim
    if isinstance(a, PrimType):
        return isinstance(b, PrimType) and a.name == b.name
    if isinstance(a, BuiltinFnType) or isinstance(b, BuiltinFnType):
        return a == b
    if isinstance(a, FuncType) and isinstance(b, FuncType):
        return _equal(a, b, _seen or set(), labels=False)
    if isinstance(a, TableType) and isinstance(b, TableType):
        seen = _seen or set()
        key = (id(a), id(b), "sub")
        if key in seen:
            return True  # coinductive assumption
        seen.add(key)
        for k, tb in b.fields.items():
            if k not in a.fields:
                return False
            if not subtype(a.fields[k], tb, seen):
                return False
        return True
    return False


def _equal(a: SType, b: SType, seen: set, labels: bool = True) -> bool:
    """Structural equality; ``labels`` also compares allocation labels,
    which subtyping ignores."""
    if a is b:
        return True
    key = (id(a), id(b), "eq", labels)
    if key in seen:
        return True
    seen.add(key)
    if isinstance(a, FuncType) and isinstance(b, FuncType):
        if len(a.domain) != len(b.domain) or (labels and a.labels != b.labels):
            return False
        return all(
            _equal(x, y, seen, labels) for x, y in zip(a.domain, b.domain)
        ) and _equal(a.result, b.result, seen, labels)
    if isinstance(a, TableType) and isinstance(b, TableType):
        if (a.weakness != b.weakness or (labels and a.labels != b.labels)
                or set(a.fields) != set(b.fields)):
            return False
        return all(
            _equal(a.fields[k], b.fields[k], seen, labels) for k in a.fields
        )
    return a == b


def equal_types(a: SType, b: SType) -> bool:
    """Structural equality; tables must also agree on weakness, and tables
    and functions on their allocation labels."""
    return _equal(a, b, set())


# ---------------------------------------------------------------------------
# Joins (least common supertype, used at control-flow merges)
# ---------------------------------------------------------------------------

def _weak_join(a: str, b: str) -> str:
    """Weak keys if either side has them, and weak values likewise."""
    k = weak_keys(a) or weak_keys(b)
    v = weak_values(a) or weak_values(b)
    return "w" + "k" * k + "v" * v if k or v else "strong"


def join(a: SType, b: SType, _depth: int = 0) -> SType:
    """Pointwise least common supertype; weakness joins conservatively
    toward "weaker" (an access safe only under strong must not be hidden
    by a merge)."""
    if a is b or equal_types(a, b):
        return a
    if _depth > 6:
        return DYN
    if isinstance(a, DynType) or isinstance(b, DynType):
        return DYN
    if isinstance(a, SingletonType) and isinstance(b, SingletonType):
        if a.prim == b.prim:
            return PrimType(a.prim)
        return DYN
    if isinstance(a, SingletonType) and isinstance(b, PrimType):
        return b if a.prim == b.name else DYN
    if isinstance(a, PrimType) and isinstance(b, SingletonType):
        return a if b.prim == a.name else DYN
    if isinstance(a, TableType) and isinstance(b, TableType):
        common = {}
        for k in a.fields:
            if k in b.fields:
                common[k] = join(a.fields[k], b.fields[k], _depth + 1)
        return TableType(
            common,
            _weak_join(a.weakness, b.weakness),
            a.labels | b.labels,
        )
    if (isinstance(a, FuncType) and isinstance(b, FuncType)
            and _equal(a, b, set(), labels=False)):
        return FuncType(a.domain, a.result, a.labels | b.labels)
    # function subtyping is reflexivity, so distinct arrows only meet at dyn
    return DYN
