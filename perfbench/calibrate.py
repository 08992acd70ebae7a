"""A fixed pure-Python loop that measures how fast the machine runs right now.

The benchmark machine is a few vCPUs of a shared host.  Its speed drifts by
up to 2x within seconds, and a slow or fast spell can last minutes.  So the
benchmark runs this loop right after the calls it times, for half as long as
they took, and reports their time scaled to reference speed:

    seconds at reference speed = measured seconds * REF_S / seconds per run

``REF_S`` is about what one run of the loop takes on a 2.1 GHz Xeon vCPU
under Python 3.11.7 while that machine runs fast.  The loop does the kinds
of work luagc does: recursive evaluation over tuples, dict reads and writes,
small object trees built and walked, string formatting, and unions of sets
of pairs.  It does not use luagc, so no change to luagc can change what it
measures.
"""

from __future__ import annotations

from time import perf_counter
from typing import Tuple

REF_S = 0.040


class _Node:
    __slots__ = ("tag", "kids", "val")

    def __init__(self, tag, kids, val):
        self.tag = tag
        self.kids = kids
        self.val = val


def _evaluate(n: int) -> int:
    env = {}

    def ev(e):
        if e[0] == "n":
            return e[1]
        if e[0] == "v":
            return env.get(e[1], 0)
        return ev(e[1]) + ev(e[2])

    expr = ("+", ("v", "a"), ("+", ("n", 1), ("v", "b")))
    acc = 0
    for i in range(n):
        env["a"] = i
        env["b"] = acc & 255
        acc = ev(expr)
    return acc


def _trees(n: int) -> int:
    def build(depth, i):
        if depth == 0:
            return _Node("leaf", (), i)
        return _Node("pair", (build(depth - 1, i), build(depth - 1, i + depth)), None)

    def walk(node, env):
        if node.tag == "leaf":
            env[node.val & 31] = env.get(node.val & 31, 0) + 1
            return node.val
        return sum(walk(k, env) for k in node.kids)

    acc = 0
    env = {}
    for i in range(n):
        acc += walk(build(6, i), env)
        acc += len(f"{acc}:{i}")
    return acc


def _sets(rounds: int) -> int:
    """Unions and filtered copies of sets of pairs, as a dataflow fixpoint
    makes them."""
    base = [frozenset((i % 40, j) for j in range(k, k + 300))
            for k, i in enumerate(range(0, 3000, 50))]
    acc = set()
    for r in range(rounds):
        for s in base:
            acc = {(v, d) for (v, d) in acc | s if v != r}
    return len(acc)


def calibrate(min_seconds: float) -> Tuple[int, float]:
    """Run the fixed loop until ``min_seconds`` have passed, not at all if
    that is 0; returns how many times it ran and the seconds that took."""
    runs = 0
    t0 = perf_counter()
    seconds = 0.0
    while seconds < min_seconds:
        _evaluate(20_000)
        _trees(110)
        _sets(2)
        runs += 1
        seconds = perf_counter() - t0
    return runs, seconds
