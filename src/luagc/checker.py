"""Type checking and weak-access safety.

The checker does not walk the program.  Inference's walk records, in walk
order, each site where a checking rule can still fire once the constraints
are solved (:class:`~luagc.inference.Site`), and the checker judges those
sites against the solution.  Table indexing follows three rules: on a
strong table the access types as the matched field; on a weak-values
table with a collectible field type the access additionally needs the
value to be provably strongly reachable (else it is flagged ``unsafe``);
on a weak-values table with a non-collectible field type there is nothing
GC could take away.  ``setmetatable`` retags the variable's table type
according to the metatable's ``__mode`` field — absent or modeless
metatables reset the weakness to strong; the checker warns when that field
or the metatable's type is unknown.  A reassignment that changes a name's
type, a read of an absent field, and a call through a solved parameter
that is not a function or takes another number of arguments are type
errors.  Inference already rejects every other type error.

Strong reachability is answered statically: every collectible type
carries its allocation-site labels; from the definitions valid at the
access point we chase type structure through strong occurrences only
(strong fields and ephemeron values: analyzed keys are literals, never
collected) and ask whether some strongly held type covers the accessed
labels.  A read sees the field maps as they were before the walk's later
writes; a closure may run after them, so the value must also be held in
the maps as the program leaves them.  Reachability is decided from the
valid definitions alone; the sorted witness of a diagnostic and the source
text of the read are built only for a read that is reported.
"""

from __future__ import annotations

import sys
from dataclasses import field
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Set, Tuple

from . import ast as A
from .dataflow import OutOfScopeConstruct, ReachingDefs, build_cfg, original_name
from .inference import (
    InferenceFailure,
    TypedProgram,
    deep_resolve,
    infer,
    metatable_weakness,
    prepare,
    resolve,
)
from .parser import parse
from .statictypes import (
    BuiltinFnType,
    DynType,
    FuncType,
    TableType,
    WEAK_VALUES,
    is_collectible_type,
    subtype,
)

if TYPE_CHECKING:
    from .inference import InfType
    from .statictypes import SType


@A.record(frozen=True)
class Diagnostic:
    severity: str  # unsafe | warning | info
    reason: str  # weak-value-not-strongly-reachable | weak-table-nondeterminism | type-error
    message: str
    line: int
    col: int
    point: int
    table: str = ""  # source of the weak table expression
    access: str = ""  # source of the offending access
    witness: Tuple[str, ...] = ()  # definitions consulted

    def to_json(self) -> dict:
        return {
            "severity": self.severity,
            "reason": self.reason,
            "message": self.message,
            "line": self.line,
            "col": self.col,
            "table": self.table,
            "access": self.access,
            "witness": list(self.witness),
        }


@A.record
class AnalysisReport:
    origin: str
    verdict: str  # SAFE | UNSAFE | UNKNOWN
    diagnostics: List[Diagnostic] = field(default_factory=list)
    reason: str = ""

    @property
    def unsafe(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "unsafe"]

    def to_json(self) -> dict:
        return {
            "file": self.origin,
            "verdict": self.verdict,
            "reason": self.reason,
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }


A.compile_records(Diagnostic, AnalysisReport)


class _Checker:
    def __init__(self, typed: TypedProgram, defs: ReachingDefs):
        self.points = typed.points
        self.log = typed.log
        self.defs = defs
        self.diagnostics: List[Diagnostic] = []
        self.reported: Set[Tuple[int, str, str]] = set()
        self.memo: Dict[int, tuple] = {}  # resolves each type once

    def diag(self, node: A.Term, severity: str, reason: str, message: str,
             table: str = "", access: str = "",
             witness: Tuple[str, ...] = ()) -> None:
        point = self.points.of(node)
        if (point, severity, reason) in self.reported:
            return  # loop bodies are walked to a fixed point; report once
        self.reported.add((point, severity, reason))
        pos = getattr(node, "pos", None)
        self.diagnostics.append(
            Diagnostic(
                severity, reason, message,
                pos.line if pos else 0, pos.col if pos else 0,
                point, table, access, witness,
            )
        )

    # -- on_<kind> judges a site of that kind ------------------------------

    def on_assign(self, t: A.Assign, old, new) -> None:
        old, new = deep_resolve(old, self.memo), deep_resolve(new, self.memo)
        if not (subtype(new, old) or subtype(old, new)):
            self.diag(
                t, "warning", "type-error",
                f"assignment changes the type of "
                f"'{original_name(t.targets[0].ident)}' from {old} to {new}",
            )

    def on_read(self, t: A.Index, table, key: A.Value,
                env: Dict[str, InfType], when: int) -> None:
        tobj = deep_resolve(table, self.memo)
        if not isinstance(tobj, TableType):
            return
        fields = self.log.before(tobj.fields, when)
        if key not in fields:
            seen = deep_resolve(TableType(fields, tobj.weakness), self.memo)
            self.diag(t, "warning", "type-error",
                      f"no field [{A.print_value(key)}] in table type {seen}")
            return
        if tobj.weakness not in WEAK_VALUES:
            return
        fty = deep_resolve(fields[key], self.memo)
        if is_collectible_type(fty):
            # held at the read and, for a closure called later, still
            # held as the program leaves its tables
            point = self.points.of(t)
            if not (static_reach_cte(point, fty, env, self.defs,
                                     lambda m: self.log.before(m, when))
                    and static_reach_cte(point, fty, env, self.defs)):
                self.weak_read(
                    t, "unsafe", "weak-value-not-strongly-reachable",
                    "access {access} reads a collectible value from weak"
                    " table {table} and no strong reference to it is known"
                    " here",
                    lambda: witness(self.defs.at(point), env),
                )
        elif isinstance(fty, DynType):
            self.weak_read(
                t, "warning", "weak-table-nondeterminism",
                "access {access} reads from weak table {table} but the"
                " value's collectibility is unknown",
            )

    def weak_read(self, t: A.Index, severity: str, reason: str,
                  template: str,
                  witness_of: Callable[[], Tuple[str, ...]] = tuple) -> None:
        """Report a read of weak table ``t.obj``; ``template`` names the
        sources ``{access}`` and ``{table}``.  The sources and the witness
        are built only for a read not reported yet."""
        if (self.points.of(t), severity, reason) in self.reported:
            return
        access, table = A.to_source(t), A.to_source(t.obj)
        self.diag(t, severity, reason,
                  template.format(access=access, table=table),
                  table=table, access=access, witness=witness_of())

    def on_call(self, t: A.Call, fn, args) -> None:
        fn = deep_resolve(fn, self.memo)
        if isinstance(fn, FuncType):
            if len(args) != len(fn.domain):
                self.diag(t, "warning", "type-error",
                          f"call arity mismatch: {len(args)} given,"
                          f" {len(fn.domain)} expected")
                return
            for a, d in zip(args, fn.domain):
                a = deep_resolve(a, self.memo)
                if not subtype(a, d):
                    self.diag(t, "warning", "type-error",
                              f"argument of type {a} where {d} is expected")
        elif not isinstance(fn, (DynType, BuiltinFnType)):
            self.diag(t, "warning", "type-error",
                      f"calling a value of type {fn}")

    def on_setmetatable(self, t: A.Call, meta) -> None:
        unknown = metatable_weakness(meta)[1]
        if unknown:
            self.diag(t, "warning", "weak-table-nondeterminism",
                      f"{unknown}; treating the table as fully weak")


def static_reach_cte(
    point: int,
    accessed: SType,
    env: Dict[str, InfType],
    defs: ReachingDefs,
    fields_of: Callable[[dict], dict] = lambda fields: fields,
) -> bool:
    """Is the accessed collectible value strongly reachable at this point?

    Chases the types of the definitions valid at the point through strong
    occurrences only and asks whether some strongly held collectible type
    covers the accessed value's allocation labels.  ``env`` may hold
    solved type variables; ``fields_of`` gives a table's field map as it
    is to be seen.
    """
    labels = getattr(accessed, "labels", frozenset())
    if not labels:
        return False
    # ``env`` lists names in binding order, so the stack tries the types
    # of the latest bindings first; the answer does not depend on order
    valid = {name for name, _ in defs.at(point)}
    stack: List[InfType] = [ty for name, ty in env.items() if name in valid]
    seen: Set[int] = set()
    while stack:
        ty = resolve(stack.pop())
        if id(ty) in seen:
            continue
        seen.add(id(ty))
        if is_collectible_type(ty) and labels <= ty.labels:
            return True
        if isinstance(ty, TableType) and ty.weakness not in WEAK_VALUES:
            stack.extend(fields_of(ty.fields).values())
    return False


def witness(valid: FrozenSet[Tuple[str, int]],
            env: Dict[str, InfType]) -> Tuple[str, ...]:
    """The valid definitions ``static_reach_cte`` consults, sorted, as
    ``name@point``: a diagnostic's witness."""
    # a program's diagnostics repeat the same few definitions, and a caller
    # that keeps reports (repeated checks) keeps each string once
    return tuple(sys.intern(f"{original_name(name)}@{defpoint}")
                 for name, defpoint in sorted(valid) if name in env)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def typecheck(typed: TypedProgram, defs: ReachingDefs) -> List[Diagnostic]:
    """Judge the sites inference recorded, in walk order."""
    checker = _Checker(typed, defs)
    for site in typed.sites:
        getattr(checker, "on_" + site.kind)(site.node, *site.parts)
    return checker.diagnostics


def check_term(term: A.Stat, origin: str = "<inline>") -> AnalysisReport:
    """Prepare a parsed or desugared program, infer, typecheck."""
    try:
        renamed, points = prepare(term)
        typed = infer(renamed, points)
        defs = build_cfg(renamed, points)
        diagnostics = typecheck(typed, defs)
    except (OutOfScopeConstruct, InferenceFailure) as e:
        return AnalysisReport(origin, "UNKNOWN", [], reason=str(e))
    verdict = "UNSAFE" if any(
        d.severity == "unsafe" for d in diagnostics
    ) else "SAFE"
    return AnalysisReport(origin, verdict, diagnostics)


def check_program(text: str, origin: str = "<inline>") -> AnalysisReport:
    """End-to-end: parse, then ``check_term`` on the parsed tree."""
    return check_term(parse(text, origin), origin)
