"""Constraint-based type inference for the analyzed fragment.

Three phases, as in classic inference for dynamic languages:

1. *generation* — walk the program in evaluation order, give every local
   and every function parameter a type (variables where unknown), and
   record constraints from usage (arithmetic wants numbers, indexing wants
   a field, calls relate arguments to domains);
2. *closure* — process the constraint set, unifying variables, merging
   field requirements into table types, and surfacing any inconsistency;
3. *solution* — pick concrete types for the remaining variables (an upper
   bound from usage if any, else the join of lower bounds, else ``dyn``)
   and verify every subtype constraint under the solution.

Table and function types carry allocation-site labels; the checker's
reachability question is answered in terms of those labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from . import ast as A
from .dataflow import OutOfScopeConstruct, Points, alpha_rename, number_points
from .statictypes import (
    BOOL_T,
    DYN,
    BuiltinFnType,
    DynType,
    FuncType,
    NIL_T,
    NUM_T,
    PrimType,
    STR_T,
    SingletonType,
    SType,
    TableType,
    equal_types,
    join,
    singleton_of,
    subtype,
)


class InferenceFailure(Exception):
    def __init__(self, message: str, pos: Optional[A.Pos] = None):
        where = f"{pos.line}:{pos.col}: " if pos else ""
        super().__init__(where + message)
        self.message = message
        self.pos = pos


class TypeVar:
    _counter = 0

    def __init__(self, origin: str):
        TypeVar._counter += 1
        self.idx = TypeVar._counter
        self.origin = origin
        self.resolved: Optional[SType] = None
        self.uppers: List[SType] = []
        self.lowers: List[SType] = []

    def __str__(self) -> str:
        return f"?{self.idx}"


InfType = Union[SType, TypeVar]


@dataclass
class Constraint:
    kind: str  # "subtype" | "equal" | "hasfield"
    parts: tuple
    pos: Optional[A.Pos] = None

    def __str__(self) -> str:
        if self.kind == "hasfield":
            t, k, v = self.parts
            return f"{t} has [{A.print_value(k)}]: {v}"
        a, b = self.parts
        op = "<:" if self.kind == "subtype" else "=="
        return f"{a} {op} {b}"


def resolve(t: InfType) -> InfType:
    while isinstance(t, TypeVar) and t.resolved is not None:
        t = t.resolved
    return t


@dataclass
class TypedProgram:
    term: A.Stat
    points: Points
    decls: Dict[int, Dict[str, SType]]
    functions: Dict[int, FuncType]
    global_type: TableType
    constraints: List[Constraint]

    def describe(self) -> str:
        lines = []
        for point in sorted(self.decls):
            for name, ty in self.decls[point].items():
                lines.append(f"@{point} local {name}: {ty}")
        for point in sorted(self.functions):
            lines.append(f"@{point} function: {self.functions[point]}")
        return "\n".join(lines)


_BUILTIN_RESULT = {
    "print": NIL_T,
    "tostring": STR_T,
    "error": NIL_T,
    "collectgarbage": NUM_T,
    "getmetatable": DYN,
    "pcall": DYN,
}


def _global_name(t: A.Index) -> Optional[A.Str]:
    """The name read or written by ``t`` if it indexes the globals table."""
    if isinstance(t.obj, A.Globals) and isinstance(t.key, A.Const) \
            and isinstance(t.key.value, A.Str):
        return t.key.value
    return None


def weakness_from_mode(mode: Optional[SType]) -> str:
    """Weakness tag from the static type of a metatable's __mode field.

    None means the field is absent (strong); a non-singleton or dyn mode
    is unknown and treated as fully weak, conservatively.
    """
    if mode is None:
        return "strong"
    mode = resolve(mode)
    if isinstance(mode, SingletonType) and isinstance(mode.value, A.Str):
        s = mode.value.s
        k, v = "k" in s, "v" in s
        return "wkv" if (k and v) else "wk" if k else "wv" if v else "strong"
    return "wkv"


class _Inferencer:
    def __init__(self, points: Points):
        self.points = points
        self.constraints: List[Constraint] = []
        self.decls: Dict[int, Dict[str, SType]] = {}
        self.functions: Dict[int, FuncType] = {}
        self.global_type = TableType(
            {A.Str(n): BuiltinFnType(n) for n in
             ("print", "error", "pcall", "setmetatable", "getmetatable",
              "tostring", "collectgarbage")},
            "strong",
        )
        self.return_stack: List[List[InfType]] = []

    # -- constraint helpers -------------------------------------------------

    def want_subtype(self, a: InfType, b: InfType, pos) -> None:
        self.constraints.append(Constraint("subtype", (a, b), pos))

    def want_equal(self, a: InfType, b: InfType, pos) -> None:
        self.constraints.append(Constraint("equal", (a, b), pos))

    # -- statements ---------------------------------------------------------

    def stat(self, t: A.Stat, env: Dict[str, InfType]) -> None:
        if isinstance(t, A.Empty) or isinstance(t, A.Break):
            return
        if isinstance(t, A.Seq):
            self.stat(t.first, env)
            self.stat(t.rest, env)
            return
        if isinstance(t, A.Local):
            if len(t.names) != 1 or len(t.exprs) > 1:
                raise OutOfScopeConstruct(
                    "multi-variable local declarations are not analyzed", t.pos
                )
            name = t.names[0]
            ty: InfType = (
                self.expr(t.exprs[0], env) if t.exprs else singleton_of(A.NIL)
            )
            self.decls.setdefault(self.points.of(t), {})[name] = ty  # type: ignore[assignment]
            env[name] = ty
            self.stat(t.body, env)
            return
        if isinstance(t, A.Assign):
            if len(t.targets) != 1 or len(t.exprs) != 1:
                raise OutOfScopeConstruct(
                    "multi-target assignments are not analyzed", t.pos
                )
            target, rhs = t.targets[0], t.exprs[0]
            tv = self.expr(rhs, env)
            if isinstance(target, A.Name):
                old = env.get(target.ident)
                if old is None:
                    env[target.ident] = tv
                else:
                    a, b = resolve(old), resolve(tv)
                    if isinstance(a, TypeVar) or isinstance(b, TypeVar):
                        self.want_equal(a, b, t.pos)
                        env[target.ident] = a
                    else:
                        env[target.ident] = join(a, b)
                return
            if isinstance(target, A.Index):
                self.index_write(target, tv, env)
                return
            raise OutOfScopeConstruct("unsupported assignment target", t.pos)
        if isinstance(t, A.ExprStat):
            self.expr(t.expr, env)
            return
        if isinstance(t, A.If):
            self.expr(t.cond, env)
            e1, e2 = dict(env), dict(env)
            self.stat(t.then_body, e1)
            self.stat(t.else_body, e2)
            self._merge(env, e1, e2)
            return
        if isinstance(t, A.While):
            for _ in range(3):
                self.expr(t.cond, env)
                body_env = dict(env)
                self.stat(t.body, body_env)
                before = dict(env)
                self._merge(env, before, body_env)
                if all(
                    _stable(before.get(k), env.get(k)) for k in env
                ):
                    break
            return
        if isinstance(t, A.Return):
            if len(t.exprs) > 1:
                raise OutOfScopeConstruct(
                    "multi-value returns are not analyzed", t.pos
                )
            ty = self.expr(t.exprs[0], env) if t.exprs else singleton_of(A.NIL)
            if self.return_stack:
                self.return_stack[-1].append(ty)
            return
        raise OutOfScopeConstruct(
            f"statement not supported by the analyzer: {type(t).__name__}",
            getattr(t, "pos", None),
        )

    def _merge(self, env, e1, e2) -> None:
        for k in list(env):
            a, b = resolve(e1.get(k, env[k])), resolve(e2.get(k, env[k]))
            if isinstance(a, TypeVar) or isinstance(b, TypeVar):
                env[k] = a
            else:
                env[k] = a if a is b else join(a, b)

    # -- expressions ----------------------------------------------------------

    def expr(self, t: A.Expr, env: Dict[str, InfType]) -> InfType:
        if isinstance(t, A.Const):
            return singleton_of(t.value)
        if isinstance(t, A.Name):
            if t.ident not in env:
                raise InferenceFailure(f"unbound variable {t.ident!r}", t.pos)
            return env[t.ident]
        if isinstance(t, A.Index):
            return self.index_read(t, env)
        if isinstance(t, A.Call):
            return self.call(t, env)
        if isinstance(t, A.Function):
            return self.function(t, env)
        if isinstance(t, A.TableCtor):
            return self.table(t, env)
        if isinstance(t, A.BinOp):
            lt, rt = self.expr(t.lhs, env), self.expr(t.rhs, env)
            if t.op in ("==", "~="):
                return BOOL_T
            if t.op in ("<", "<=", ">", ">="):
                return BOOL_T
            self.want_subtype(lt, NUM_T, t.pos)
            self.want_subtype(rt, NUM_T, t.pos)
            return NUM_T
        if isinstance(t, (A.And, A.Or)):
            lt, rt = self.expr(t.lhs, env), self.expr(t.rhs, env)
            a, b = resolve(lt), resolve(rt)
            if isinstance(a, TypeVar) or isinstance(b, TypeVar):
                return DYN
            return join(a, b)
        if isinstance(t, A.Not):
            self.expr(t.operand, env)
            return BOOL_T
        if isinstance(t, A.Neg):
            self.want_subtype(self.expr(t.operand, env), NUM_T, t.pos)
            return NUM_T
        raise OutOfScopeConstruct(
            f"expression not supported by the analyzer: {type(t).__name__}",
            getattr(t, "pos", None),
        )

    def index_read(self, t: A.Index, env: Dict[str, InfType]) -> InfType:
        g = _global_name(t)
        if g is not None:
            return self.global_type.fields.get(g, DYN)
        tobj = resolve(self.expr(t.obj, env))
        tkey = resolve(self.expr(t.key, env))
        if isinstance(tobj, DynType):
            return DYN
        if isinstance(tobj, TypeVar):
            fresh = TypeVar(f"field@{self.points.of(t)}")
            self.constraints.append(
                Constraint("hasfield", (tobj, _key_value(tkey, t), fresh), t.pos)
            )
            return fresh
        if isinstance(tobj, TableType):
            key = _key_value(tkey, t)
            if key in tobj.fields:
                return tobj.fields[key]
            # reading an absent field of a known table: dyn, and the
            # checker reports the failed field match
            return DYN
        raise InferenceFailure(
            f"cannot index a value of type {tobj}", t.pos
        )

    def index_write(self, t: A.Index, value: InfType, env) -> None:
        g = _global_name(t)
        if g is not None:
            self.global_type.fields[g] = resolve(value)  # type: ignore[assignment]
            return
        tobj = resolve(self.expr(t.obj, env))
        tkey = resolve(self.expr(t.key, env))
        if isinstance(tobj, DynType):
            return
        if isinstance(tobj, TableType):
            tobj.fields[_key_value(tkey, t)] = value  # type: ignore[assignment]
            return
        if isinstance(tobj, TypeVar):
            self.constraints.append(
                Constraint("hasfield", (tobj, _key_value(tkey, t), value), t.pos)
            )
            return
        raise InferenceFailure(f"cannot index a value of type {tobj}", t.pos)

    def call(self, t: A.Call, env: Dict[str, InfType]) -> InfType:
        fn = resolve(self.expr(t.fn, env))
        args = [self.expr(a, env) for a in t.args]
        if isinstance(fn, BuiltinFnType):
            if fn.name == "setmetatable":
                return self._setmetatable(t, args, env)
            return _BUILTIN_RESULT.get(fn.name, DYN)
        if isinstance(fn, FuncType):
            if len(args) != len(fn.domain):
                raise InferenceFailure(
                    f"call with {len(args)} argument(s) where the function"
                    f" takes {len(fn.domain)}", t.pos
                )
            for a, d in zip(args, fn.domain):
                self.want_subtype(a, d, t.pos)
            return fn.result
        if isinstance(fn, (DynType, TypeVar)):
            return DYN
        raise InferenceFailure(f"cannot call a value of type {fn}", t.pos)

    def _setmetatable(self, t: A.Call, args: List[InfType], env) -> InfType:
        if not args:
            raise InferenceFailure("setmetatable needs a table argument", t.pos)
        target = resolve(args[0])
        meta = resolve(args[1]) if len(args) > 1 else None
        if isinstance(meta, TableType):
            w = weakness_from_mode(meta.fields.get(A.Str("__mode")))
        elif meta is None or isinstance(
            meta, SingletonType
        ) and isinstance(meta.value, A.Nil):
            w = "strong"
        else:
            w = "wkv"  # unknown metatable: conservatively fully weak
        if isinstance(target, TableType) and isinstance(t.args[0], A.Name):
            env[t.args[0].ident] = target.retag(w)
        return args[0]

    def function(self, t: A.Function, env: Dict[str, InfType]) -> InfType:
        params = tuple(TypeVar(f"param:{p}") for p in t.params)
        result = TypeVar("result")
        fn = FuncType(params, result, frozenset({self.points.of(t)}))  # type: ignore[arg-type]
        self.functions[self.points.of(t)] = fn
        inner = dict(env)
        for p, tv in zip(t.params, params):
            inner[p] = tv
        self.return_stack.append([])
        self.stat(t.body, inner)
        returns = self.return_stack.pop()
        if not returns:
            result.resolved = NIL_T
        elif len(returns) == 1:
            self.want_equal(result, returns[0], t.pos)
        else:
            concrete = [resolve(r) for r in returns]
            if any(isinstance(r, TypeVar) for r in concrete):
                result.resolved = DYN
            else:
                out = concrete[0]
                for r in concrete[1:]:
                    out = join(out, r)
                result.resolved = out
        return fn

    def table(self, t: A.TableCtor, env: Dict[str, InfType]) -> InfType:
        fields: Dict[A.Value, InfType] = {}
        for k, v in t.fields:
            assert k is not None  # desugared
            if not isinstance(k, A.Const) or isinstance(k.value, (A.Tid, A.Cid)):
                raise OutOfScopeConstruct(
                    "only literal table keys are analyzed", t.pos
                )
            fields[k.value] = self.expr(v, env)
        return TableType(fields, "strong", {self.points.of(t)})  # type: ignore[arg-type]


def _key_value(tkey: InfType, node: A.Index) -> A.Value:
    tkey = resolve(tkey)
    if isinstance(tkey, SingletonType) and not isinstance(tkey.value, A.Nil):
        return tkey.value
    raise OutOfScopeConstruct(
        "table access with a non-literal key is not analyzed", node.pos
    )


def _stable(a: Optional[InfType], b: Optional[InfType]) -> bool:
    if a is None or b is None:
        return a is b
    a, b = resolve(a), resolve(b)
    if isinstance(a, TypeVar) or isinstance(b, TypeVar):
        return a is b
    return equal_types(a, b)


# ---------------------------------------------------------------------------
# Phases 2 and 3
# ---------------------------------------------------------------------------


def _close_constraints(constraints: List[Constraint]) -> None:
    """Unify equalities and merge field requirements; expose inconsistency."""
    queue = list(constraints)
    while queue:
        c = queue.pop(0)
        if c.kind == "equal":
            a, b = (resolve(x) for x in c.parts)
            if isinstance(a, TypeVar) and a is not b:
                a.resolved = b
            elif isinstance(b, TypeVar):
                b.resolved = a
            elif not equal_types(a, b):
                if not (subtype(a, b) or subtype(b, a)):
                    raise InferenceFailure(
                        f"no solution: {a} and {b} cannot be unified", c.pos
                    )
        elif c.kind == "hasfield":
            t, key, res = c.parts
            t = resolve(t)
            if isinstance(t, TypeVar):
                fresh = TableType({key: res})
                t.resolved = fresh
            elif isinstance(t, TableType):
                if key in t.fields:
                    queue.append(Constraint("equal", (t.fields[key], res), c.pos))
                else:
                    t.fields[key] = res
            elif isinstance(t, DynType):
                r = resolve(res)
                if isinstance(r, TypeVar):
                    r.resolved = DYN
            else:
                raise InferenceFailure(
                    f"no solution: {t} cannot have field "
                    f"[{A.print_value(key)}]", c.pos
                )
        else:  # subtype: collect bounds now, verify later
            a, b = (resolve(x) for x in c.parts)
            if isinstance(a, TypeVar):
                a.uppers.append(b)
            elif isinstance(b, TypeVar):
                b.lowers.append(a)


def _solve_vars(constraints: List[Constraint]) -> None:
    seen_vars: List[TypeVar] = []

    def collect(t: InfType, acc: List[TypeVar], visited: set) -> None:
        t_res = resolve(t)
        if isinstance(t_res, TypeVar):
            if t_res not in acc:
                acc.append(t_res)
            return
        if isinstance(t_res, TableType):
            if id(t_res) in visited:
                return
            visited.add(id(t_res))
            for v in t_res.fields.values():
                collect(v, acc, visited)
        elif isinstance(t_res, FuncType):
            for d in t_res.domain:
                collect(d, acc, visited)
            collect(t_res.result, acc, visited)

    visited: set = set()
    for c in constraints:
        for part in c.parts:
            if isinstance(part, (TypeVar, TableType, FuncType, DynType,
                                 PrimType, SingletonType, BuiltinFnType)):
                collect(part, seen_vars, visited)

    for var in seen_vars:
        if var.resolved is not None:
            continue
        uppers = [resolve(u) for u in var.uppers]
        lowers = [resolve(l) for l in var.lowers]
        uppers = [u for u in uppers if not isinstance(u, TypeVar)]
        lowers = [l for l in lowers if not isinstance(l, TypeVar)]
        if uppers:
            # usage picks the type; refinement prefers the primitive bound
            var.resolved = uppers[0]
        elif lowers:
            out = lowers[0]
            for l in lowers[1:]:
                out = join(out, l)
            var.resolved = out
        else:
            var.resolved = DYN


def _verify(constraints: List[Constraint]) -> None:
    for c in constraints:
        if c.kind != "subtype":
            continue
        a, b = (deep_resolve(x) for x in c.parts)
        if not subtype(a, b):
            raise InferenceFailure(f"no solution: {a} is not a subtype of {b}",
                                   c.pos)


def deep_resolve(t: InfType, _visited: Optional[set] = None) -> SType:
    """Replace solved variables inside structured types, in place."""
    t = resolve(t)
    if isinstance(t, TypeVar):
        return DYN
    visited = _visited if _visited is not None else set()
    if isinstance(t, TableType):
        if id(t) in visited:
            return t
        visited.add(id(t))
        for k in list(t.fields):
            t.fields[k] = deep_resolve(t.fields[k], visited)
        return t
    if isinstance(t, FuncType):
        key = id(t)
        if key in visited:
            return t
        visited.add(key)
        dom = tuple(deep_resolve(d, visited) for d in t.domain)
        res = deep_resolve(t.result, visited)
        return FuncType(dom, res, t.labels)
    return t


def infer(term: A.Stat, points: Optional[Points] = None) -> TypedProgram:
    """Annotate a desugared, alpha-renamed program with types.

    Raises :class:`InferenceFailure` when the constraints have no
    solution and :class:`OutOfScopeConstruct` on excluded forms.
    """
    if points is None:
        points = number_points(term)
    inf = _Inferencer(points)
    inf.stat(term, {})
    _close_constraints(inf.constraints)
    _solve_vars(inf.constraints)
    _verify(inf.constraints)

    decls = {
        p: {n: deep_resolve(t) for n, t in d.items()}
        for p, d in inf.decls.items()
    }
    functions = {}
    for p, fn in inf.functions.items():
        resolved = deep_resolve(fn)
        assert isinstance(resolved, FuncType)
        functions[p] = resolved
    deep_resolve(inf.global_type)
    return TypedProgram(term, points, decls, functions, inf.global_type,
                        inf.constraints)


def prepare(term: A.Stat) -> Tuple[A.Stat, Points]:
    """Alpha-rename and number a desugared program for analysis."""
    renamed = alpha_rename(term)
    return renamed, number_points(renamed)
