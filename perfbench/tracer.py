"""Span tracing around the calls into each luagc module.

The tracer wraps public functions of the ``luagc`` modules where they are
imported.  The modules import each other's functions by name (``from .interp
import decompose``), so a function is replaced in every loaded ``luagc``
module that holds it, not only where it is defined: ``luagc.interp.decompose``
and ``luagc.executor.decompose`` each get a wrapper of their own.  A target
that no longer exists is reported absent, and so are the metrics built on it.

Each call records a span: name, start, end, parent span and op id.  Spans
are kept in flat arrays while the traced pass runs and written out when it
ends.  A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set

# (span name, defining module, function) for every wrapped function.
TARGETS = [
    ("parser.parse", "parser", "parse"),
    ("desugar.desugar", "desugar", "desugar"),
    ("interp.load", "interp", "load_term"),
    ("interp.step", "interp", "step"),
    ("interp.decompose", "interp", "decompose"),
    ("interp.plug", "interp", "plug"),
    ("gc.cycle", "gc", "run_cycle"),
    ("gc.reach", "gc", "reach_set"),
    ("gc.reach", "gc", "reach_set_from"),
    ("gc.reach", "gc", "strong_reach_set"),
    ("gc.enumerate", "gc", "enumerate_gc_steps"),
    ("heap.weakness", "heap", "weakness"),
    ("executor.canonicalize", "executor", "_canonicalize"),
    ("executor.fin_in_flight", "executor", "finalizer_in_flight"),
    ("executor.splice", "executor", "splice_finalizer"),
    ("executor.observations", "executor", "observations"),
    ("inference.prepare", "inference", "prepare"),
    ("inference.infer", "inference", "infer"),
    ("statictypes.join", "statictypes", "join"),
    ("dataflow.build_cfg", "dataflow", "build_cfg"),
    ("checker.typecheck", "checker", "typecheck"),
    ("checker.check_term", "checker", "check_term"),
]

SNAPSHOT = "heap.snapshot_json"  # needed for the distinct-state share
OP_SPAN = "bench.op"
SETUP_SPAN = "bench.load"
BOOKKEEPING_SPAN = "trace.bookkeeping"


class Tracer:
    def __init__(self, snapshot_json: Optional[Callable[[object], str]]):
        self.snapshot_json = snapshot_json
        self.names: List[str] = []
        self.name_ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self.distinct: Dict[int, Set[str]] = defaultdict(set)
        self.present: Set[str] = set()
        self._restore: List[tuple] = []

    # -- spans --------------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, t0: float, t1: float) -> None:
        self.stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def call(self, nid: int, fn, args, kwargs):
        idx = self.open(nid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx, t0, perf_counter())

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every luagc module attribute that holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "luagc" or n.startswith("luagc."))]
        absent = set()
        for span, module, func in TARGETS:
            home = sys.modules.get(f"luagc.{module}")
            orig = getattr(home, func, None) if home is not None else None
            if orig is None:
                absent.add(span)
                continue
            self.present.add(span)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        site = mod.__name__.rpartition(".")[2]
                        wrapper = self._wrap(span, site, orig)
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        # a span family with one missing member is only partly measured
        self.present -= absent
        if self.snapshot_json is not None:
            self.present.add(SNAPSHOT)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _wrap(self, span: str, site: str, fn):
        nid = self.intern(span)
        hook = self._hook(span, site)
        call = self.call

        if hook is None:
            def wrapper(*args, **kwargs):
                return call(nid, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = call(nid, fn, args, kwargs)
                hook(args, kwargs, result)
                return result

        return wrapper

    # -- counts taken at the boundaries -------------------------------------

    def _hook(self, span: str, site: str):
        counts = self.counts
        if span == "parser.parse":
            def hook(args, kwargs, result):
                counts["parser.lines"] += args[0].count("\n") + 1
            return hook
        if span == "gc.cycle":
            applied = site == "executor"  # cycles inside enumerate are candidates

            def hook(args, kwargs, outcome):
                c = args[0]
                counts["gc.cycle.changed"] += bool(outcome.changed)
                counts["gc.cycle.heap_locs"] += (
                    len(c.sigma.bindings) + len(c.theta.tables) + len(c.theta.closures))
                if applied:
                    self._count_outcome(outcome)
            return hook
        if span == "gc.enumerate" and site == "executor":
            bid = self.intern(BOOKKEEPING_SPAN)

            def hook(args, kwargs, outcomes):
                counts["executor.explore.nodes"] += 1
                for o in outcomes:
                    self._count_outcome(o)
                if self.snapshot_json is None:
                    return
                idx = self.open(bid)
                t0 = perf_counter()
                self.distinct[self.op_id].add(self.snapshot_json(args[0]))
                self.close(idx, t0, perf_counter())
            return hook
        if span == "executor.observations":
            def hook(args, kwargs, obs):
                counts["executor.explore.truncated"] += bool(obs.truncated)
            return hook
        if span == "checker.check_term":
            def hook(args, kwargs, report):
                counts["checker.diagnostics"] += len(report.diagnostics)
                counts["checker.unknown"] += report.verdict == "UNKNOWN"
            return hook
        return None

    def _count_outcome(self, outcome) -> None:
        self.counts["gc.discarded_locs"] += len(outcome.discarded)
        self.counts["gc.cleared_weak_fields"] += len(outcome.cleared_weak_fields)
        self.counts["gc.finalizers_selected"] += outcome.pending_finalizer is not None

    # -- results ------------------------------------------------------------

    def span_stats(self) -> Dict[str, List[float]]:
        """Per span name: [calls, inclusive seconds, self seconds].

        Inclusive time counts only spans not directly nested in a span of
        the same name, so recursion is not counted twice.
        """
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent, name = self.parent, self.name
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = [[0, 0.0, 0.0] for _ in self.names]
        for i in range(n):
            st = stats[name[i]]
            st[0] += 1
            st[2] += dur[i] - child[i]
            p = parent[i]
            if p < 0 or name[p] != name[i]:
                st[1] += dur[i]
        return {self.names[k]: v for k, v in enumerate(stats)}

    def write(self, path: Path) -> None:
        """Spans as five arrays in native byte order after a one-line JSON
        header that names them and the byte order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.name),
            "arrays": [["start", "d"], ["end", "d"], ["name", "i"],
                       ["parent", "i"], ["op", "i"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for arr in (self.start, self.end, self.name, self.parent, self.op):
                arr.tofile(f)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class _Measures:
    """What the metric formulas read: span stats, counts and pass walls."""

    def __init__(self, tracer: Tracer, traced_wall: float, untraced_wall: float):
        self.stats = tracer.span_stats()
        self.counts = tracer.counts
        self.traced_wall = traced_wall
        self.untraced_wall = untraced_wall
        self.distinct = sum(len(s) for s in tracer.distinct.values())
        self.gc_self = sum(v[2] for k, v in self.stats.items() if k.startswith("gc."))

    def calls(self, s: str) -> int:
        return self.stats.get(s, [0, 0.0, 0.0])[0]

    def incl(self, s: str) -> float:
        return self.stats.get(s, [0, 0.0, 0.0])[1]

    def self_s(self, s: str) -> float:
        return self.stats.get(s, [0, 0.0, 0.0])[2]


# (metric, unit, spans it needs, formula).  A metric whose spans are absent
# is left out of the report rather than given as zero.
LAYER_METRICS = [
    ("parser.parse.s", "s", ["parser.parse"], lambda m: m.incl("parser.parse")),
    ("parser.lines_per_s", "1/s", ["parser.parse"],
     lambda m: _ratio(m.counts["parser.lines"], m.incl("parser.parse"))),
    ("desugar.s", "s", ["desugar.desugar"], lambda m: m.incl("desugar.desugar")),
    ("interp.load.s", "s", ["interp.load"], lambda m: m.incl("interp.load")),
    ("interp.step.calls", "count", ["interp.step"], lambda m: m.calls("interp.step")),
    ("interp.step.self_s", "s", ["interp.step"], lambda m: m.self_s("interp.step")),
    ("interp.step.us_per_call", "us", ["interp.step"],
     lambda m: 1e6 * _ratio(m.incl("interp.step"), m.calls("interp.step"))),
    ("interp.decompose.calls_per_step", "ratio", ["interp.decompose", "interp.step"],
     lambda m: _ratio(m.calls("interp.decompose"), m.calls("interp.step"))),
    ("interp.decompose.self_s", "s", ["interp.decompose"],
     lambda m: m.self_s("interp.decompose")),
    ("interp.plug.self_s", "s", ["interp.plug"], lambda m: m.self_s("interp.plug")),
    ("gc.cycle.calls", "count", ["gc.cycle"], lambda m: m.calls("gc.cycle")),
    ("gc.cycle.self_s", "s", ["gc.cycle"], lambda m: m.self_s("gc.cycle")),
    ("gc.cycle.effective_share", "ratio", ["gc.cycle"],
     lambda m: _ratio(m.counts["gc.cycle.changed"], m.calls("gc.cycle"))),
    ("gc.cycle.us_per_heap_loc", "us", ["gc.cycle"],
     lambda m: 1e6 * _ratio(m.incl("gc.cycle"), m.counts["gc.cycle.heap_locs"])),
    ("gc.reach.s", "s", ["gc.reach"], lambda m: m.incl("gc.reach")),
    ("gc.enumerate.calls", "count", ["gc.enumerate"], lambda m: m.calls("gc.enumerate")),
    ("gc.enumerate.s", "s", ["gc.enumerate"], lambda m: m.incl("gc.enumerate")),
    ("gc.discarded_locs", "count", ["gc.cycle", "gc.enumerate"],
     lambda m: m.counts["gc.discarded_locs"]),
    ("gc.cleared_weak_fields", "count", ["gc.cycle", "gc.enumerate"],
     lambda m: m.counts["gc.cleared_weak_fields"]),
    ("gc.finalizers_selected", "count", ["gc.cycle", "gc.enumerate"],
     lambda m: m.counts["gc.finalizers_selected"]),
    ("gc.self_share", "ratio", ["gc.cycle", "gc.reach", "gc.enumerate"],
     lambda m: _ratio(m.gc_self, m.traced_wall)),
    ("heap.weakness.calls", "count", ["heap.weakness"], lambda m: m.calls("heap.weakness")),
    ("heap.weakness.calls_per_cycle", "ratio", ["heap.weakness", "gc.cycle"],
     lambda m: _ratio(m.calls("heap.weakness"), m.calls("gc.cycle"))),
    ("executor.canonicalize.s", "s", ["executor.canonicalize"],
     lambda m: m.incl("executor.canonicalize")),
    ("executor.canonicalize.calls", "count", ["executor.canonicalize"],
     lambda m: m.calls("executor.canonicalize")),
    ("executor.fin_in_flight.s", "s", ["executor.fin_in_flight"],
     lambda m: m.incl("executor.fin_in_flight")),
    ("executor.splice.s", "s", ["executor.splice"], lambda m: m.incl("executor.splice")),
    ("executor.explore.nodes", "count", ["gc.enumerate"],
     lambda m: m.counts["executor.explore.nodes"]),
    ("executor.explore.distinct_share", "ratio", ["gc.enumerate", SNAPSHOT],
     lambda m: _ratio(m.distinct, m.counts["executor.explore.nodes"])),
    ("executor.explore.truncated", "count", ["executor.observations"],
     lambda m: m.counts["executor.explore.truncated"]),
    ("inference.prepare.s", "s", ["inference.prepare"], lambda m: m.incl("inference.prepare")),
    ("inference.infer.s", "s", ["inference.infer"], lambda m: m.incl("inference.infer")),
    ("statictypes.join.calls", "count", ["statictypes.join"],
     lambda m: m.calls("statictypes.join")),
    ("dataflow.build_cfg.s", "s", ["dataflow.build_cfg"],
     lambda m: m.incl("dataflow.build_cfg")),
    ("dataflow.build_cfg.share", "ratio", ["dataflow.build_cfg"],
     lambda m: _ratio(m.incl("dataflow.build_cfg"), m.traced_wall)),
    ("checker.typecheck.s", "s", ["checker.typecheck"], lambda m: m.incl("checker.typecheck")),
    ("checker.diagnostics", "count", ["checker.check_term"],
     lambda m: m.counts["checker.diagnostics"]),
    ("checker.unknown", "count", ["checker.check_term"],
     lambda m: m.counts["checker.unknown"]),
    ("trace.wall_s", "s", [], lambda m: m.traced_wall),
    ("trace.overhead_s", "s", [], lambda m: m.traced_wall - m.untraced_wall),
]


def layer_metrics(tracer: Tracer, traced_wall: float,
                  untraced_wall: float) -> Dict[str, dict]:
    """Every per-layer metric whose spans exist, as {name: {value, unit}}."""
    m = _Measures(tracer, traced_wall, untraced_wall)
    return {
        name: {"value": formula(m), "unit": unit}
        for name, unit, needs, formula in LAYER_METRICS
        if all(s in tracer.present for s in needs)
    }
