"""Type checking and weak-access safety.

The checker walks the annotated program threading a type environment and
the current program point.  Table indexing follows three rules: on a
strong table the access types as the matched field; on a weak-values
table with a collectible field type the access additionally needs the
value to be provably strongly reachable (else it is flagged ``unsafe``);
on a weak-values table with a non-collectible field type there is nothing
GC could take away.  ``setmetatable`` retags the variable's table type
according to the metatable's ``__mode`` field — absent or modeless
metatables reset the weakness to strong.

Strong reachability is answered statically: every collectible type
carries its allocation-site labels; from the definitions valid at the
access point we chase type structure through strong occurrences only
(strong fields always; ephemeron values too, since analyzed keys are
literals and literals are never collected) and ask whether some strongly
held type covers the accessed labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from . import ast as A
from .dataflow import (
    OutOfScopeConstruct,
    ReachingDefs,
    build_cfg,
    original_name,
)
from .desugar import desugar
from .inference import (
    _BUILTIN_RESULT,
    InferenceFailure,
    TypedProgram,
    _global_name,
    infer,
    prepare,
    weakness_from_mode,
)
from .parser import parse
from .statictypes import (
    BOOL_T,
    DYN,
    BuiltinFnType,
    DynType,
    FuncType,
    NUM_T,
    SingletonType,
    SType,
    TableType,
    is_collectible_type,
    join,
    singleton_of,
    subtype,
)

_WEAK_VALUES = ("wv", "wkv")


@dataclass(frozen=True)
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


@dataclass
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


class _Checker:
    def __init__(self, typed: TypedProgram, defs: ReachingDefs):
        self.typed = typed
        self.points = typed.points
        self.defs = defs
        self.diagnostics: List[Diagnostic] = []
        self.reported: Set[Tuple[int, str, str]] = set()

    # -- diagnostics --------------------------------------------------------

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

    # -- statements ----------------------------------------------------------

    def stat(self, t: A.Stat, env: Dict[str, SType]) -> None:
        if isinstance(t, (A.Empty, A.Break)):
            return
        if isinstance(t, A.Seq):
            self.stat(t.first, env)
            self.stat(t.rest, env)
            return
        if isinstance(t, A.Local):
            declared = self.typed.decls.get(self.points.of(t), {})
            ty = self.expr(t.exprs[0], env) if t.exprs else singleton_of(A.NIL)
            name = t.names[0]
            env[name] = declared.get(name, ty)
            self.stat(t.body, env)
            return
        if isinstance(t, A.Assign):
            target, rhs = t.targets[0], t.exprs[0]
            ty = self.expr(rhs, env)
            if isinstance(target, A.Name):
                old = env.get(target.ident)
                if old is not None and not (subtype(ty, old) or subtype(old, ty)):
                    self.diag(
                        t, "warning", "type-error",
                        f"assignment changes the type of "
                        f"'{original_name(target.ident)}' from {old} to {ty}",
                    )
                    env[target.ident] = DYN
                else:
                    env[target.ident] = ty if old is None else join(old, ty)
                return
            assert isinstance(target, A.Index)
            self.index_write(target, ty, env)
            return
        if isinstance(t, A.ExprStat):
            self.expr(t.expr, env)
            return
        if isinstance(t, A.If):
            self.expr(t.cond, env)
            e1, e2 = dict(env), dict(env)
            self.stat(t.then_body, e1)
            self.stat(t.else_body, e2)
            for k in list(env):
                env[k] = join(e1.get(k, env[k]), e2.get(k, env[k]))
            return
        if isinstance(t, A.While):
            for _ in range(2):
                self.expr(t.cond, env)
                body_env = dict(env)
                self.stat(t.body, body_env)
                for k in list(env):
                    env[k] = join(env[k], body_env.get(k, env[k]))
            return
        if isinstance(t, A.Return):
            for e in t.exprs:
                self.expr(e, env)
            return
        raise OutOfScopeConstruct(
            f"statement not supported by the analyzer: {type(t).__name__}",
            getattr(t, "pos", None),
        )

    # -- expressions ----------------------------------------------------------

    def expr(self, t: A.Expr, env: Dict[str, SType]) -> SType:
        if isinstance(t, A.Const):
            return singleton_of(t.value)
        if isinstance(t, A.Name):
            return env.get(t.ident, DYN)
        if isinstance(t, A.Index):
            return self.index_read(t, env)
        if isinstance(t, A.Call):
            return self.call(t, env)
        if isinstance(t, A.Function):
            fn = self.typed.functions[self.points.of(t)]
            inner = dict(env)
            for p, ty in zip(t.params, fn.domain):
                inner[p] = ty
            self.stat(t.body, inner)
            return fn
        if isinstance(t, A.TableCtor):
            fields: Dict[A.Value, SType] = {}
            for k, v in t.fields:
                assert isinstance(k, A.Const)
                fields[k.value] = self.expr(v, env)
            return TableType(fields, "strong", {self.points.of(t)})
        if isinstance(t, A.BinOp):
            lt, rt = self.expr(t.lhs, env), self.expr(t.rhs, env)
            if t.op in ("==", "~=", "<", "<=", ">", ">="):
                return BOOL_T
            for side, ty in ((t.lhs, lt), (t.rhs, rt)):
                if not subtype(ty, NUM_T) and not isinstance(ty, DynType):
                    self.diag(t, "warning", "type-error",
                              f"arithmetic on a value of type {ty}")
            return NUM_T
        if isinstance(t, (A.And, A.Or)):
            return join(self.expr(t.lhs, env), self.expr(t.rhs, env))
        if isinstance(t, A.Not):
            self.expr(t.operand, env)
            return BOOL_T
        if isinstance(t, A.Neg):
            self.expr(t.operand, env)
            return NUM_T
        raise OutOfScopeConstruct(
            f"expression not supported by the analyzer: {type(t).__name__}",
            getattr(t, "pos", None),
        )

    def index_read(self, t: A.Index, env: Dict[str, SType]) -> SType:
        g = _global_name(t)
        if g is not None:
            return self.typed.global_type.fields.get(g, DYN)
        tobj = self.expr(t.obj, env)
        tkey = self.expr(t.key, env)
        if isinstance(tobj, DynType):
            return DYN
        if not isinstance(tobj, TableType):
            self.diag(t, "warning", "type-error",
                      f"indexing a value of type {tobj}")
            return DYN
        if not isinstance(tkey, SingletonType):
            raise OutOfScopeConstruct(
                "table access with a non-literal key is not analyzed", t.pos
            )
        key = tkey.value
        if key not in tobj.fields:
            self.diag(
                t, "warning", "type-error",
                f"no field [{A.print_value(key)}] in table type {tobj}",
            )
            return DYN
        fty = tobj.fields[key]
        if tobj.weakness in _WEAK_VALUES:
            access_src = A.to_source(t)
            table_src = A.to_source(t.obj)
            if is_collectible_type(fty):
                point = self.points.of(t)
                reachable, witness = static_reach_cte(
                    point, fty, env, self.defs
                )
                if not reachable:
                    self.diag(
                        t, "unsafe", "weak-value-not-strongly-reachable",
                        f"access {access_src} reads a collectible value from"
                        f" weak table {table_src} and no strong reference"
                        " to it is known here",
                        table=table_src, access=access_src, witness=witness,
                    )
            elif isinstance(fty, DynType):
                self.diag(
                    t, "warning", "weak-table-nondeterminism",
                    f"access {access_src} reads from weak table {table_src}"
                    " but the value's collectibility is unknown",
                    table=table_src, access=access_src,
                )
        return fty

    def index_write(self, t: A.Index, value: SType, env: Dict[str, SType]) -> None:
        g = _global_name(t)
        if g is not None:
            self.typed.global_type.fields[g] = value
            return
        tobj = self.expr(t.obj, env)
        tkey = self.expr(t.key, env)
        if isinstance(tobj, DynType):
            return
        if not isinstance(tobj, TableType):
            self.diag(t, "warning", "type-error",
                      f"indexing a value of type {tobj}")
            return
        if not isinstance(tkey, SingletonType):
            raise OutOfScopeConstruct(
                "table access with a non-literal key is not analyzed", t.pos
            )
        tobj.fields[tkey.value] = value

    def call(self, t: A.Call, env: Dict[str, SType]) -> SType:
        fn = self.expr(t.fn, env)
        args = [self.expr(a, env) for a in t.args]
        if isinstance(fn, BuiltinFnType):
            if fn.name == "setmetatable":
                return self._setmetatable(t, args, env)
            return _BUILTIN_RESULT.get(fn.name, DYN)
        if isinstance(fn, FuncType):
            if len(args) != len(fn.domain):
                self.diag(t, "warning", "type-error",
                          f"call arity mismatch: {len(args)} given,"
                          f" {len(fn.domain)} expected")
                return fn.result
            for a, d in zip(args, fn.domain):
                if not subtype(a, d):
                    self.diag(t, "warning", "type-error",
                              f"argument of type {a} where {d} is expected")
            return fn.result
        if isinstance(fn, DynType):
            return DYN
        self.diag(t, "warning", "type-error",
                  f"calling a value of type {fn}")
        return DYN

    def _setmetatable(self, t: A.Call, args: List[SType], env) -> SType:
        if not args:
            return DYN
        target = args[0]
        meta = args[1] if len(args) > 1 else None
        if isinstance(meta, TableType):
            w = weakness_from_mode(meta.fields.get(A.Str("__mode")))
            if w == "wkv" and not isinstance(
                meta.fields.get(A.Str("__mode")), SingletonType
            ) and meta.fields.get(A.Str("__mode")) is not None:
                self.diag(
                    t, "warning", "weak-table-nondeterminism",
                    "__mode is not a literal string; treating the table"
                    " as fully weak",
                )
        elif meta is None or (
            isinstance(meta, SingletonType) and isinstance(meta.value, A.Nil)
        ):
            w = "strong"
        else:
            w = "wkv"
            self.diag(
                t, "warning", "weak-table-nondeterminism",
                "metatable type is unknown; treating the table as fully weak",
            )
        if isinstance(target, TableType) and isinstance(t.args[0], A.Name):
            env[t.args[0].ident] = target.retag(w)
        return target


def static_reach_cte(
    point: int,
    accessed: SType,
    env: Dict[str, SType],
    defs: ReachingDefs,
) -> Tuple[bool, Tuple[str, ...]]:
    """Is the accessed collectible value strongly reachable at this point?

    Chases the types of the definitions valid at the point through strong
    occurrences only and asks whether some strongly held collectible type
    covers the accessed value's allocation labels.
    """
    labels = getattr(accessed, "labels", frozenset())
    witness: List[str] = []
    if not labels:
        return False, ()
    valid = defs.at(point)
    stack: List[SType] = []
    for name, defpoint in sorted(valid):
        if name in env:
            witness.append(f"{original_name(name)}@{defpoint}")
            stack.append(env[name])
    seen: Set[int] = set()
    while stack:
        ty = stack.pop()
        if id(ty) in seen:
            continue
        seen.add(id(ty))
        if is_collectible_type(ty) and labels <= ty.labels:
            return True, tuple(witness)
        if isinstance(ty, TableType):
            if ty.weakness == "strong":
                stack.extend(ty.fields.values())
            elif ty.weakness == "wk":
                # analyzed keys are literals, hence never collectible, so
                # ephemeron values count as strong occurrences
                stack.extend(ty.fields.values())
            # weak-values tables contribute no strong occurrences here:
            # their keys are literals and carry no labels
    return False, tuple(witness)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def typecheck(typed: TypedProgram, defs: ReachingDefs) -> List[Diagnostic]:
    """Run the checking rules over an annotated program."""
    checker = _Checker(typed, defs)
    checker.stat(typed.term, {})
    return checker.diagnostics


def check_term(term: A.Stat, origin: str = "<inline>") -> AnalysisReport:
    try:
        renamed, points = prepare(term)
        typed = infer(renamed, points)
        defs = build_cfg(renamed, points)
        diagnostics = typecheck(typed, defs)
    except OutOfScopeConstruct as e:
        return AnalysisReport(origin, "UNKNOWN", [], reason=str(e))
    except InferenceFailure as e:
        return AnalysisReport(origin, "UNKNOWN", [], reason=str(e))
    verdict = "UNSAFE" if any(
        d.severity == "unsafe" for d in diagnostics
    ) else "SAFE"
    return AnalysisReport(origin, verdict, diagnostics)


def check_program(text: str, origin: str = "<inline>") -> AnalysisReport:
    """End-to-end: parse, desugar, infer, reaching definitions, typecheck."""
    term = desugar(parse(text, origin))
    return check_term(term, origin)
