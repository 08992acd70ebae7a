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

The generation walk is the analyzer's only walk of the program.  Where a
checking rule can still fire once the constraints are solved, it records a
:class:`Site`, and the checker judges the sites against the solution.
Table and function types carry allocation-site labels; the checker's
reachability question is answered in terms of those labels.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple, Union

from . import ast as A
from .dataflow import OutOfScopeConstruct, Points, number_points
from .desugar import desugar_renamed
from .heap import parse_mode
from .statictypes import (
    BOOL_T,
    DYN,
    BuiltinFnType,
    DynType,
    FuncType,
    NIL_T,
    NUM_T,
    STR_T,
    SingletonType,
    TableType,
    WEAK_VALUES,
    equal_types,
    join,
    singleton_of,
    subtype,
)

if TYPE_CHECKING:
    from .statictypes import SType


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


if TYPE_CHECKING:
    InfType = Union[SType, TypeVar]


@A.record
class Constraint:
    kind: str  # "subtype" | "equal" | "hasfield"
    parts: tuple
    pos: Optional[A.Pos] = None


def resolve(t: InfType) -> InfType:
    while isinstance(t, TypeVar) and t.resolved is not None:
        t = t.resolved
    return t


class Site(NamedTuple):
    """A place where a checking rule may fire once the types are solved.

    ``kind`` names the rule, and ``parts`` are its arguments after
    ``node``, still unresolved:

    - ``assign``: a name reassignment, with the old and the new type;
    - ``read``: a read of a table type or a type variable, with that
      type, the literal key, a copy of the environment (empty for a table
      whose values are strong) and the number of field writes before it;
    - ``call``: a call whose callee was a type variable, with the callee
      and the argument types;
    - ``setmetatable``: a ``setmetatable`` call, with the metatable type
      (None when it is absent).
    """

    kind: str
    node: A.Term
    parts: tuple


_ABSENT = object()


class FieldLog:
    """The walk's writes to field maps, numbered in walk order, so that a
    map changed in place can be seen as it was before a write."""

    def __init__(self) -> None:
        self.count = 0
        # id of a map -> (the map, [(number, key, value before)])
        self.writes: Dict[int, Tuple[dict, List[tuple]]] = {}

    def write(self, fields: dict, key: A.Value, value: InfType) -> None:
        done = self.writes.setdefault(id(fields), (fields, []))[1]
        done.append((self.count, key, fields.get(key, _ABSENT)))
        self.count += 1
        fields[key] = value

    def before(self, fields: dict, when: int) -> dict:
        """``fields`` as it was before write number ``when``."""
        out = fields
        for n, key, old in reversed(self.writes.get(id(fields), ({}, []))[1]):
            if n < when:
                break
            out = dict(out) if out is fields else out
            if old is _ABSENT:
                del out[key]
            else:
                out[key] = old
        return out


@A.record
class TypedProgram:
    points: Points
    sites: List[Site]  # in walk order
    log: FieldLog
    # as the walk left them; deep_resolve gives a solved type
    decls: Dict[int, Dict[str, InfType]]
    functions: Dict[int, FuncType]


A.compile_records(Constraint, TypedProgram)


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


def metatable_weakness(meta: Optional[InfType]) -> Tuple[str, str]:
    """The weakness ``setmetatable`` gives a table, from the metatable's
    type (None when there is no metatable argument), and what about it is
    unknown ("" when nothing is).  Unknown weakness is full weakness,
    conservatively.
    """
    meta = resolve(meta)  # type: ignore[arg-type]
    if meta is None or (isinstance(meta, SingletonType)
                        and isinstance(meta.value, A.Nil)):
        return "strong", ""
    if not isinstance(meta, TableType):
        return "wkv", "metatable type is unknown"
    mode = meta.fields.get(A.Str("__mode"))
    if mode is None:
        return "strong", ""
    mode = resolve(mode)
    if not isinstance(mode, SingletonType):
        return "wkv", "__mode is not a literal string"
    if not isinstance(mode.value, A.Str):
        return "wkv", ""
    return parse_mode(mode.value.s), ""


_LOOP_ROUNDS = 8
_OPERATORS = frozenset({A.BinOp, A.And, A.Or, A.Not, A.Neg})


class _Inferencer:
    def __init__(self, points: Points):
        self.points = points
        self.constraints: List[Constraint] = []
        self.decls: Dict[int, Dict[str, InfType]] = {}
        self.functions: Dict[int, FuncType] = {}
        self.global_type = TableType(
            {A.Str(n): BuiltinFnType(n) for n in
             ("print", "error", "pcall", "setmetatable", "getmetatable",
              "tostring", "collectgarbage")},
            "strong",
        )
        self.return_stack: List[List[InfType]] = []
        self.sites: List[Site] = []
        self.log = FieldLog()

    # -- constraint helpers -------------------------------------------------

    def want_subtype(self, a: InfType, b: InfType, pos) -> None:
        self.constraints.append(Constraint("subtype", (a, b), pos))

    def want_equal(self, a: InfType, b: InfType, pos) -> None:
        self.constraints.append(Constraint("equal", (a, b), pos))

    # -- statements ---------------------------------------------------------

    def stat(self, t: A.Stat, env: Dict[str, InfType]) -> None:
        while isinstance(t, (A.Seq, A.Local)):  # the nesting of a block
            if isinstance(t, A.Seq):
                self.stat(t.first, env)
                t = t.rest
                continue
            if len(t.names) != 1 or len(t.exprs) > 1:
                raise OutOfScopeConstruct(
                    "multi-variable local declarations are not analyzed", t.pos
                )
            name = t.names[0]
            ty: InfType = (
                self.expr(t.exprs[0], env) if t.exprs else singleton_of(A.NIL)
            )
            self.decls.setdefault(self.points.of(t), {})[name] = ty
            env[name] = ty
            t = t.body
        if isinstance(t, (A.Empty, A.Break)):
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
                    self.sites.append(Site("assign", t, (old, tv)))
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
            # join's depth cutoff to dyn is the widening that makes the
            # environment stable; a loop that is still moving after
            # _LOOP_ROUNDS walks of its body has no verdict
            for _ in range(_LOOP_ROUNDS):
                self.expr(t.cond, env)
                body_env = dict(env)
                self.stat(t.body, body_env)
                before = dict(env)
                self._merge(env, before, body_env)
                if all(_stable(before[k], env[k]) for k in env):
                    return
            raise InferenceFailure(
                f"loop types not stable after {_LOOP_ROUNDS} rounds", t.pos
            )
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
        """The type of ``t``.  A chain of operators (``BinOp``, ``And``,
        ``Or``, ``Not``, ``Neg``) is walked in post-order on an explicit
        stack, so a deep chain needs no Python recursion: the operands are
        typed left to right, then the operator adds its constraints."""
        if type(t) not in _OPERATORS:
            return self.operand(t, env)
        types: List[InfType] = []
        stack = [(t, False)]
        while stack:
            n, typed = stack.pop()
            if type(n) not in _OPERATORS:
                types.append(self.operand(n, env))
            elif typed:
                types.append(self.operator(n, types))
            else:
                stack.append((n, True))
                stack.extend((k, False) for k in reversed(A.children(n)))
        return types[0]

    def operator(self, t: A.Expr, types: List[InfType]) -> InfType:
        """Pop the types of ``t``'s operands off ``types``; ``t``'s type."""
        if isinstance(t, A.Not):
            types.pop()
            return BOOL_T
        if isinstance(t, A.Neg):
            self.want_subtype(types.pop(), NUM_T, t.pos)
            return NUM_T
        rt, lt = types.pop(), types.pop()
        if isinstance(t, A.BinOp):
            if t.op in ("==", "~=", "<", "<=", ">", ">="):
                return BOOL_T
            self.want_subtype(lt, NUM_T, t.pos)
            self.want_subtype(rt, NUM_T, t.pos)
            return NUM_T
        a, b = resolve(lt), resolve(rt)  # ``and`` / ``or``
        if isinstance(a, TypeVar) or isinstance(b, TypeVar):
            return DYN
        return join(a, b)

    def operand(self, t: A.Expr, env: Dict[str, InfType]) -> InfType:
        """The type of an expression that is not an operator."""
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
        if not isinstance(tobj, (TypeVar, TableType)):
            raise InferenceFailure(f"cannot index a value of type {tobj}", t.pos)
        key = _key_value(tkey, t)
        weak = not isinstance(tobj, TableType) or tobj.weakness in WEAK_VALUES
        self.sites.append(Site("read", t, (
            tobj, key, dict(env) if weak else {}, self.log.count)))
        if isinstance(tobj, TableType):
            # an absent field reads as dyn, and the checker reports it
            return tobj.fields.get(key, DYN)
        fresh = TypeVar(f"field@{self.points.of(t)}")
        self.constraints.append(Constraint("hasfield", (tobj, key, fresh), t.pos))
        return fresh

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
            self.log.write(tobj.fields, _key_value(tkey, t), value)
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
        if isinstance(fn, TypeVar):
            self.sites.append(Site("call", t, (fn, tuple(args))))
            return DYN
        if isinstance(fn, DynType):
            return DYN
        raise InferenceFailure(f"cannot call a value of type {fn}", t.pos)

    def _setmetatable(self, t: A.Call, args: List[InfType], env) -> InfType:
        if not args:
            raise InferenceFailure("setmetatable needs a table argument", t.pos)
        target = resolve(args[0])
        meta = args[1] if len(args) > 1 else None
        self.sites.append(Site("setmetatable", t, (meta,)))
        if isinstance(target, TableType) and isinstance(t.args[0], A.Name):
            env[t.args[0].ident] = target.retag(metatable_weakness(meta)[0])
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


def _stable(a: InfType, b: InfType) -> bool:
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


def _collect_vars(t: InfType, acc: List[TypeVar], visited: set) -> None:
    """Append to ``acc`` each type variable in ``t`` that it lacks."""
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
            _collect_vars(v, acc, visited)
    elif isinstance(t_res, FuncType):
        for d in t_res.domain:
            _collect_vars(d, acc, visited)
        _collect_vars(t_res.result, acc, visited)


def _solve_vars(constraints: List[Constraint]) -> None:
    seen_vars: List[TypeVar] = []
    visited: set = set()
    for c in constraints:
        for part in c.parts:  # a hasfield key is a value and adds nothing
            _collect_vars(part, seen_vars, visited)

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


def deep_resolve(t: InfType, memo: Optional[Dict[int, tuple]] = None) -> SType:
    """Replace solved variables inside structured types, in place.

    ``memo`` maps the id of every structured type resolved so far to the
    type and its resolution (the type is kept so that its id stays its
    own); sharing one across calls resolves shared structure once.
    """
    t = resolve(t)
    if isinstance(t, TypeVar):
        return DYN
    if not isinstance(t, (TableType, FuncType)):
        return t
    if memo is None:
        memo = {}
    done = memo.get(id(t))
    if done is not None:
        return done[1]
    memo[id(t)] = (t, t)  # a cycle back to ``t`` stops here
    if isinstance(t, TableType):
        for k in list(t.fields):
            t.fields[k] = deep_resolve(t.fields[k], memo)
        return t
    out = FuncType(tuple(deep_resolve(d, memo) for d in t.domain),
                   deep_resolve(t.result, memo), t.labels)
    memo[id(t)] = (t, out)
    return out


def infer(term: A.Stat, points: Optional[Points] = None) -> TypedProgram:
    """Annotate a program as ``prepare`` gives it with types.

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
    return TypedProgram(points, inf.sites, inf.log, inf.decls, inf.functions)


def prepare(term: A.Stat) -> Tuple[A.Stat, Points]:
    """A parsed or desugared program in core form with every bound name
    unique (``desugar_renamed``), and its points, for analysis."""
    renamed = desugar_renamed(term)
    return renamed, number_points(renamed)
