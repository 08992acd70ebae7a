"""Lower parser output to the core grammar the interpreter consumes.

Three rewrites happen here, in one ``ast.rewrite`` pass whose environment
maps each name in scope to its output name:

* blocks fold into nested ``Seq``/``Local`` statements, giving each local
  declaration an explicit scope (the rest of its block);
* positional table-constructor fields become explicitly keyed ones
  (``{a, b}`` -> ``{[1]=a, [2]=b}``);
* names not bound by a local or parameter become reads/writes of the
  global-environment table (``x`` -> ``$globals["x"]``).

``desugar_renamed``, the analyzer's form, also gives each binder a fresh
name.  Both are total on parser output and idempotent: a term already in
their form comes back as the same object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from .ast import (
    Block, Const, Empty, Globals, Index, Local, Name, Num, Seq, Str, TableCtor,
    rewrite,
)

if TYPE_CHECKING:
    from .ast import Stat, Term


def desugar(t: Term) -> Term:
    """Rewrite a parsed term into core form.  Idempotent."""
    return rewrite(t, {}, _visit, _bind)


def desugar_renamed(t: Term) -> Term:
    """``desugar``, with every bound name made unique (``x``, ``x#2``, ...)
    in pre-order: a function's parameters on entry and a local's names
    once its expressions are done."""
    counts: Dict[str, int] = {}

    def bind(names: Tuple[str, ...], scope: Dict[str, str]):
        inner = dict(scope)
        for n in names:
            k = counts.get(n, 0)
            counts[n] = k + 1
            inner[n] = n if k == 0 else f"{n}#{k + 1}"
        fresh = tuple(inner[n] for n in names)
        return (names if fresh == names else fresh), inner

    return rewrite(t, {}, _visit, bind)


def _fold(b: Block) -> Stat:
    """Fold a statement list right-to-left: a Lua-style ``local`` takes the
    rest of the block as its body, any other statement is sequenced before
    it.  Scopes are settled afterwards, when the rewrite binds the names."""
    acc = None
    for s in reversed(b.stats):
        if acc is None:
            acc = s
        elif isinstance(s, Local) and isinstance(s.body, Empty):
            acc = Local(s.names, s.exprs, acc, pos=s.pos)
        else:
            acc = Seq(s, acc, pos=s.pos)
    return Empty() if acc is None else acc


def _visit(n: Term, scope: Dict[str, str]):
    while isinstance(n, Block):
        n = _fold(n)
    if isinstance(n, Name):
        name = scope.get(n.ident)
        if name is None:
            return Index(Globals(pos=n.pos), Const(Str(n.ident), pos=n.pos),
                         pos=n.pos), False
        return (n if name == n.ident else Name(name, pos=n.pos)), False
    if isinstance(n, TableCtor) and any(k is None for k, _ in n.fields):
        fields = []
        index = 0
        for k, v in n.fields:
            if k is None:
                index += 1
                k = Const(Num(float(index)), pos=v.pos)
            fields.append((k, v))
        n = TableCtor(tuple(fields), pos=n.pos)
    return n, True


def _bind(names: Tuple[str, ...], scope: Dict[str, str]):
    inner = dict(scope)
    inner.update(zip(names, names))
    return names, inner
