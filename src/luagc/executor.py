"""Interleave program steps with garbage-collection steps under a schedule.

A :class:`Schedule` decides, before each program step, whether a GC cycle
fires, which unreachable subset it drops, and which collection mode is in
force (plain, finalizers, finalizers + weak tables).  A pending finalizer
call is spliced into the program term at the current evaluation point: in
statement position by sequencing, in expression position by wrapping the
hole in a one-argument thunk applied to the call.  Because the call then
lives in the term, resurrection, output and error propagation all follow
from the ordinary step relation; an error escaping a finalizer unwinds to
the program's own nearest protected frame.

``collectgarbage()`` requests a drain: maximal cycles run to a fixed
point, with at most one spliced finalizer in flight at a time so the
priority (reverse-chronological) order is observed.  When the program
reaches a final configuration its result is recorded first; leftover
finalizers then run in protected mode, visible in the trace only.

:class:`Machine` is the one driver of the step relation: it holds the
focused state, the step count, the output, the trace and the pending
drain, and its ``advance`` is the only loop that steps a program.
``run`` drives one machine to the end; the exhaustive explorer builds one
per node for the plain step and its drain; ``check_postponement`` steps
one with explicit cycles.

Both drivers reach a cycle one way, ``gc.enumerate_gc_steps``, which
skips it by the rule of ``gc``'s module docstring, and apply its outcome
one way, ``_gc_successor``.  The explorer's nodes are focused states too,
so no node decomposes its term from the root, none recounts its
occurrences and none is plugged: its visited-set key is its split
(``_state_key``).  The plain successor is the machine's state after its
step and drain: it takes over the node's frame list, occurrence counts,
lost roots and quiescence memo.  A GC successor beside it is a branch of the
node (``Focused.branch``) with its own copy of the split and the counts,
since the plain step consumes the node's; a selected finalizer is spliced
at that copy.

The explorer collects invisible garbage in place: at a node whose maximal
cycle only discards (``GcOutcome.garbage_only``), the collected state is
the node's one successor.  It is a GC successor of the node, so its
observations are among the node's.  Such a cycle discards
only plainly unreachable locations, since one reached through a weak edge
would leave a cleared field on a kept table, so the program never reads
them again and ids stay fresh.  The one place a cycle reads garbage is
``not_fin_val``: a garbage weak table can block a finalizer, which then
runs one cycle later with the same observations.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import field, fields, is_dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple, Union

from . import ast as A
from .ast import (
    Call,
    Cid,
    Const,
    ExprStat,
    FinStat,
    FinWrap,
    Function,
    Location,
    Return,
    Seq,
    Tid,
    _value_json,
    to_source,
    value_locations,
    walk,
)
from .gc import (
    GcOutcome, enumerate_gc_steps, reach_set, remember, subset_steps,
)
from .heap import (
    Configuration, HeapError, ObjectStore, ValueStore, restrict, successors,
)
from .interp import (
    Finished, Focused, Frame, Redex, StuckTerm, context_hash, decompose,
    holed, plug, same_context, step,
)

if TYPE_CHECKING:
    from .ast import Term, Value

BOTTOM_FUEL = "⊥(fuel)"
BOTTOM_BUDGET = "⊥(budget)"


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@A.record(frozen=True)
class Schedule:
    """A GC firing policy.

    ``never`` runs the program under the plain step relation only — even
    ``collectgarbage()`` is inert and no end-of-program finalization
    happens.  The other policies decide per step whether a cycle fires;
    ``collectgarbage()`` always forces a drain under them.
    """

    policy: str = "never"  # never | eager | periodic | random | scripted
    mode: str = "simple"  # simple | fin | fin_weak
    period: int = 3
    seed: int = 0
    probability: float = 0.25
    script: Tuple[int, ...] = ()
    selector: str = "maximal"  # maximal | random-subset

    def wants_gc(self, step_index: int, rng: random.Random) -> bool:
        if self.policy == "never":
            return False
        if self.policy == "eager":
            return True
        if self.policy == "periodic":
            return self.period > 0 and step_index % self.period == 0
        if self.policy == "random":
            return rng.random() < self.probability
        if self.policy == "scripted":
            return step_index in self.script
        raise ValueError(f"unknown policy {self.policy!r}")

    def describe(self) -> str:
        base = self.policy
        if self.policy == "periodic":
            base += f"({self.period})"
        elif self.policy == "random":
            base += f"({self.seed},{self.probability})"
        elif self.policy == "scripted":
            base += "(" + ",".join(map(str, self.script)) + ")"
        return f"{base}/{self.mode}/{self.selector}"


# ---------------------------------------------------------------------------
# Canonical results
# ---------------------------------------------------------------------------


@A.record(frozen=True)
class ProgramResult:
    kind: str  # "return" | "error" | "empty" | "bottom" | "stuck"
    key: str  # canonical form; equal keys = equal observations

    def __str__(self) -> str:
        return self.key


class NotFinal(Exception):
    pass


# The name prefix ``_canonicalize`` gives each kind of location.
_PREFIX = {"ref": "r", "tid": "t", "cid": "c"}


def _canonicalize(
    roots: List[Value], sigma: ValueStore, theta: ObjectStore
) -> Tuple[list, dict]:
    """Depth-first renaming of the residual heap from the result values.

    Iterative pre-order: children are pushed in reverse and a location is
    named when first popped, so deep heaps need no Python recursion.
    """
    names: Dict[Location, str] = {}
    counters = {"ref": 0, "tid": 0, "cid": 0}
    order: List[Location] = []
    stack = [n for v in roots for n in value_locations(v)]
    stack.reverse()
    while stack:
        loc = stack.pop()
        if loc in names:
            continue
        kind = loc[0]
        names[loc] = f"{_PREFIX[kind]}{counters[kind]}"
        counters[kind] += 1
        order.append(loc)
        stack.extend(reversed(successors(loc, sigma, theta)))

    def cval(v: Value):
        if isinstance(v, Tid):
            return {"t": "loc", "v": names[("tid", v.n)]}
        if isinstance(v, Cid):
            return {"t": "loc", "v": names[("cid", v.n)]}
        return _value_json(v)

    stores: dict = {"sigma": [], "tables": [], "closures": []}
    for loc in order:
        kind, i = loc
        if kind == "ref":
            stores["sigma"].append([names[loc], cval(sigma.bindings[i])])
        elif kind == "tid":
            obj = theta.table(i)
            stores["tables"].append(
                [
                    names[loc],
                    [[cval(k), cval(v)] for k, v in obj.fields],
                    None if obj.meta is None else names[("tid", obj.meta)],
                    obj.pos if isinstance(obj.pos, int) else repr(obj.pos),
                ]
            )
        else:
            clo = theta.closure(i)
            stores["closures"].append(
                [names[loc], list(clo.params), to_source(_rename_term(clo.body, names))]
            )
    return [cval(v) for v in roots], stores


def _rename_term(t: Term, names: Dict[Location, str]) -> Term:
    def visit(n: Term, _):
        if isinstance(n, A.Ref):
            return A.Name("$" + names[("ref", n.r)]), False
        if isinstance(n, A.Const) and isinstance(n.value, (Tid, Cid)):
            kind = "tid" if isinstance(n.value, Tid) else "cid"
            return A.Name("$" + names[(kind, n.value.n)]), False
        return n, True

    return A.rewrite(t, None, visit)


def result(config: Configuration) -> ProgramResult:
    """Canonical result of a final configuration: the terminal term plus
    the reachable residue of the stores, ids renamed deterministically."""
    d = decompose(config.term)
    if not isinstance(d, Finished):
        raise NotFinal(f"configuration is not final: {to_source(config.term)}")
    return result_of_finished(d, config)


def result_of_finished(d: Finished,
                       config: Union[Configuration, Focused]) -> ProgramResult:
    """The canonical result of ``d`` over the stores of ``config``."""
    if d.kind == "empty":
        return ProgramResult("empty", "empty")
    if d.kind == "return":
        roots = list(d.values)
        label = "return"
    else:
        roots = [d.error_value]
        label = "error"
    values, stores = _canonicalize(roots, config.sigma, config.theta)
    key = json.dumps({"k": label, "v": values, "s": stores}, sort_keys=True)
    # a program's result repeats across the runs of it that a caller keeps
    # (schedule sweeps, repeated runs), and an interned key lets their
    # records share one string, as the trace's location names do
    return ProgramResult(label, sys.intern(key))


# ---------------------------------------------------------------------------
# Finalizer splicing
# ---------------------------------------------------------------------------


def finalizer_in_flight(term: Term) -> bool:
    """Does the term hold a finalizer marker?  A whole-term walk, kept as
    the reference for ``Focused.finalizer_in_flight``."""
    return any(isinstance(n, (FinStat, FinWrap)) for n in walk(term))


def splice_finalizer(term: Term, cid: int, tid: int) -> Term:
    """Insert the pending finalizer call at the current evaluation point;
    in a final term, ahead of the whole term."""
    frames, spliced = _splice(decompose(term), cid, tid)
    return plug(frames, spliced)


def _splice(d: Union[Redex, Finished], cid: int,
            tid: int) -> Tuple[List[Frame], Term]:
    """The context and the term that fills its hole once the finalizer
    call is spliced in at the split ``d``."""
    call = Call(Const(Cid(cid)), (Const(Tid(tid)),))
    if isinstance(d, Finished):
        return [], Seq(FinStat(ExprStat(call)), plug(d.frames, d.term))
    if A.is_stat(d.term):
        return d.frames, Seq(FinStat(ExprStat(call)), d.term)
    thunk = Function(("$",), Return((d.term,)))
    return d.frames, Call(thunk, (FinWrap(call),))


def _gc_successor(state: Focused, outcome: GcOutcome, mode: str,
                  branch: bool) -> Focused:
    """The successor of ``state`` by the GC step ``outcome``: the kept
    stores with the outcome's memo, the selected finalizer spliced at the
    split.  With ``branch`` it is a ``Focused.branch``, a copy that leaves
    ``state`` to its plain step; otherwise it takes over the frame list
    and the counts."""
    if branch:
        nxt = state.branch(outcome.kept_sigma, outcome.kept_theta)
    else:
        nxt = state.with_stores(outcome.kept_sigma, outcome.kept_theta)
    remember(nxt, outcome, mode)
    if outcome.pending_finalizer is None:
        return nxt
    frames, spliced = _splice(nxt.at, *outcome.pending_finalizer)
    return nxt.refocused(nxt.sigma, nxt.theta, frames, spliced)


def _trace_gc(trace: List[tuple], step_index: int, outcome: GcOutcome) -> None:
    if outcome.discarded:
        # ids repeat across runs of one program, and interned names let the
        # records a caller keeps share them
        trace.append((step_index, "collect",
                      tuple(sys.intern(f"{k}{i}") for k, i in outcome.discarded)))
    for tid, k, v in outcome.cleared_weak_fields:
        trace.append((step_index, "clear_weak_field", tid, repr(k), repr(v)))
    if outcome.marked_forbidden is not None and outcome.pending_finalizer is None:
        trace.append((step_index, "finalize_skip", outcome.marked_forbidden))
    if outcome.pending_finalizer is not None:
        cid, tid = outcome.pending_finalizer
        trace.append((step_index, "finalize", tid, cid))


# The keys of each kind of trace event after "step" and "kind", in the
# order its tuple holds their values.
_EVENT_KEYS = {
    "l_step": ("rule", "redex"),
    "collect": ("discarded",),
    "clear_weak_field": ("table", "key", "value"),
    "finalize_skip": ("table",),
    "finalize": ("table", "closure"),
    "finalizer_error": ("table", "error"),
}


def _event(e: tuple) -> dict:
    """A trace event as its dict: ``step``, ``kind``, then its values."""
    d = {"step": e[0], "kind": e[1]}
    d.update(zip(_EVENT_KEYS[e[1]], e[2:]))
    if e[1] == "collect":
        d["discarded"] = list(d["discarded"])
    return d


# ---------------------------------------------------------------------------
# The stepping driver
# ---------------------------------------------------------------------------


@A.record
class RunRecord:
    """A run's result, printed lines, trace and step count.  The trace is
    kept as ``events``, one tuple per event: the step, the kind and the
    values of the kind's keys (``_EVENT_KEYS``).  ``trace`` gives them as
    dicts, built on first read."""

    result: ProgramResult
    output: List[str] = field(default_factory=list)
    events: List[tuple] = field(default_factory=list)
    steps: int = 0

    @cached_property
    def trace(self) -> List[dict]:
        return [_event(e) for e in self.events]


class Machine:
    """The one stepping driver: program steps interleaved with GC cycles.

    The machine state is kept focused between steps (``state``: the stores
    plus the context/redex split of the term), so a program step refocuses
    from the hole instead of decomposing from the root.  A GC cycle takes
    its root set and whether a finalizer is in flight from the focused
    state (``Focused.roots``, ``Focused.finalizer_in_flight``), so neither
    plugs nor walks the term: both read the term's occurrence counts,
    which each step moves by its redex, its contractum and the frames it
    cut, so the per-step bookkeeping of ``eager`` grows with neither the
    depth nor the width of the context.  A cycle that only changes the
    stores keeps the focus and the counts; a finalizer splice moves them
    by the term it puts in the hole.  The term is plugged only to splice
    a finalizer ahead of a final term, and when a caller reads ``config``.
    A cycle is skipped when the state's quiescence memo proves it would
    find nothing (the skip rule of ``gc``'s module docstring).

    ``steps`` counts program steps from where the machine was started and
    ``fuel`` bounds it; ``drain_pending`` is set when ``collectgarbage()``
    runs with GC on.  ``run``, the explorer and ``check_postponement`` all
    step through :meth:`step`, and :meth:`advance` is the only loop.
    """

    def __init__(self, state: Focused, schedule: Schedule, fuel: int,
                 steps: int = 0, trace_steps: bool = False):
        self.state = state
        self.schedule = schedule
        self.fuel = fuel
        self.steps = steps
        self.trace_steps = trace_steps
        self.gc_on = schedule.policy != "never"
        self.drain_pending = False
        self.output: List[str] = []
        self.trace: List[tuple] = []  # events, as ``RunRecord.events``
        # only the random policy and the random-subset selector draw from it
        self.rng = (random.Random(schedule.seed)
                    if schedule.policy == "random"
                    or schedule.selector != "maximal" else None)

    @property
    def config(self) -> Configuration:
        return self.state.config

    def _selector(self):
        if self.schedule.selector == "maximal":
            return None
        rng = self.rng

        def pick(garbage: List[Location]) -> Iterable[Location]:
            return [l for l in garbage if rng.random() < 0.5]

        return pick

    def step(self) -> None:
        """One program step, traced, recording any drain request."""
        index = self.steps
        res = step(self.state)
        assert not isinstance(res, Finished)
        self.output.extend(res.output)
        self.steps += 1
        self.state = res.state
        if self.trace_steps:
            self.trace.append((index, "l_step", res.rule,
                               to_source(res.redex, 120)))
        if res.gc_request and self.gc_on:
            self.drain_pending = True

    def collect(self, selector) -> Optional[GcOutcome]:
        """One cycle, splicing any selected finalizer; None if it was
        skipped or changed nothing."""
        state, mode = self.state, self.schedule.mode
        outcomes = enumerate_gc_steps(state, mode,
                                      not state.finalizer_in_flight, selector)
        if not outcomes:
            return None
        outcome = outcomes[0]
        _trace_gc(self.trace, self.steps, outcome)
        self.state = _gc_successor(state, outcome, mode, branch=False)
        return outcome

    def advance(self, until_settled: bool = False) -> bool:
        """Step until the program finishes or, with ``until_settled``, until
        a pending drain settles.  Before each step a pending drain runs a
        maximal cycle (unless a finalizer is in flight) and the schedule
        may fire one.  False if the fuel ran out first."""
        while True:
            if isinstance(self.state.at, Finished):
                return True
            if self.drain_pending and not self.state.finalizer_in_flight:
                if self.collect(None) is not None:
                    continue
                self.drain_pending = False
                if until_settled:
                    return True
            if self.gc_on and self.schedule.wants_gc(self.steps, self.rng):
                self.collect(self._selector())
            if self.steps >= self.fuel:
                return False
            self.step()

    def end_drain(self) -> None:
        """After the result is recorded: finalize leftovers, protected.

        Each selected finalizer runs ahead of the final term with GC off
        and its steps untraced; an error it raises is traced, and the
        final term is put back with the stores it left.
        """
        final = self.state
        self.gc_on = self.trace_steps = self.drain_pending = False
        while (outcome := self.collect(None)) is not None:
            if outcome.pending_finalizer is None:
                continue
            if not self.advance():
                return
            if self.state.at.kind == "error":
                self.trace.append((self.steps, "finalizer_error",
                                   outcome.pending_finalizer[1],
                                   repr(self.state.at.error_value)))
            # the finalizer's steps moved the occurrences ``final`` had
            self.state = Focused(self.state.sigma, self.state.theta, final.at)


def run(
    config: Configuration,
    schedule: Schedule,
    fuel: int = 10_000,
    trace_steps: bool = False,
) -> RunRecord:
    """Execute a configuration under a schedule.  Reproducible: the same
    (program, schedule, fuel) triple yields the same record."""
    m = Machine(Focused.of(config), schedule, fuel, trace_steps=trace_steps)
    if not m.advance():
        return RunRecord(BOTTOM_FUEL_RESULT, m.output, m.trace, m.steps)
    res = result_of_finished(m.state.at, m.state)
    if m.gc_on and schedule.mode != "simple":
        m.end_drain()
    return RunRecord(res, m.output, m.trace, m.steps)


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------


@A.record(frozen=True)
class ScheduleSampler:
    schedules: Tuple[Schedule, ...]


@A.record(frozen=True)
class ExhaustiveExplorer:
    mode: str = "simple"
    step_bound: int = 200
    granularity: str = "maximal"  # maximal | subsets
    # distinct (configuration, step count) pairs expanded before the
    # exploration stops with ⊥(budget); revisits are free
    node_budget: int = 20_000


@A.record
class ObservationSet:
    results: Dict[str, ProgramResult] = field(default_factory=dict)
    truncated: bool = False
    nodes: int = 0  # configurations expanded (exhaustive exploration)
    revisits: int = 0  # pops skipped as already expanded
    collected: int = 0  # garbage-only cycles taken in place of a branch

    def add(self, r: ProgramResult) -> None:
        self.results[r.key] = r

    @property
    def keys(self) -> Set[str]:
        return set(self.results)

    def __len__(self) -> int:
        return len(self.results)


class _StateKey:
    """An explorer node's key: its step count, its context, the term in
    the hole and its two stores, hashed once.

    Keys are equal when the step counts are, the contexts plug every term
    into equal terms (``same_context``), the terms are equal and so are
    the stores' ordered keys (``ValueStore.key``).  The context is a
    snapshot of the node's frame list, which later steps change at its
    top; its frames' memoized hashes make hashing it cost the frames
    pushed since its parent's key, and comparing two contexts stops at the
    first frame they share."""

    __slots__ = ("steps", "frames", "term", "sigma", "theta", "_hash")

    def __init__(self, steps: int, frames: Tuple[Frame, ...], term: Term,
                 sigma: ValueStore, theta: ObjectStore):
        self.steps, self.frames, self.term = steps, frames, term
        self.sigma, self.theta = sigma, theta
        self._hash = hash((steps, context_hash(frames), term,
                           sigma.key_hash, theta.key_hash))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if type(other) is not _StateKey:
            return NotImplemented
        return (self._hash == other._hash and self.steps == other.steps
                and (self.sigma is other.sigma
                     or self.sigma.key == other.sigma.key)
                and (self.theta is other.theta
                     or self.theta.key == other.theta.key)
                and self.term == other.term
                and same_context(self.frames, other.frames))


def _state_key(c: Union[Focused, Configuration], steps: int) -> _StateKey:
    """The key of an explorer node: a focused state, keyed by its split,
    or the root configuration before it is focused, keyed by its whole
    term with no frames.  The root meets no focused node: the others at
    step count 0 are collections of it, each of which changed a store.

    Equal keys mean equal configurations except that ``Num`` equality
    ignores the sign of zero; ``_same_zero_signs`` settles that.  Store
    contents enter in insertion order, so two equal stores built in a
    different order only miss a merge.  No term is plugged: a split is
    canonical (the one ``decompose`` finds), so equal splits are equal
    terms and equal terms equal splits.
    """
    if type(c) is Focused:
        at = c.at
        return _StateKey(steps, tuple(at.frames), at.term, c.sigma, c.theta)
    return _StateKey(steps, (), c.term, c.sigma, c.theta)


def _same_zero_signs(a: _StateKey, b: _StateKey) -> bool:
    """Given equal state keys, are the configurations identical?

    Key equality leaves only the sign of float zeros open, so this walks
    the compared parts of both in step, the holed nodes of their frames,
    their terms and their stores' keys, and checks the sign of each float
    pair.  Objects shared between the two are skipped by identity: the
    frames below the first shared one, subterms and stored objects.
    """
    stack: List[tuple] = [(a.term, b.term), (a.sigma.key, b.sigma.key),
                          (a.theta.key, b.theta.key)]
    for fa, fb in zip(reversed(a.frames), reversed(b.frames)):
        if fa is fb:
            break
        stack.append((holed(fa), holed(fb)))
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if isinstance(x, float):
            if math.copysign(1.0, x) != math.copysign(1.0, y):
                return False
        elif isinstance(x, tuple):
            stack.extend(zip(x, y))
        elif is_dataclass(x):
            stack.extend((getattr(x, n), getattr(y, n)) for n in _compared(type(x)))
    return True


@lru_cache(maxsize=None)
def _compared(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.compare)


def observations(
    config: Configuration,
    explorer: Union[ScheduleSampler, ExhaustiveExplorer],
    fuel: int = 10_000,
) -> ObservationSet:
    """Observation set over the explored execution space.

    Exhaustive exploration runs the maximal cycle at every node.  If it
    only discards garbage (``GcOutcome.garbage_only``: something
    discarded, no weak field of a kept table cleared, no finalizer
    selected or skipped), the collected configuration is the one successor
    and ``collected`` counts it; otherwise the successors are the plain
    step and every candidate GC step.  The reduction loses no observation:
    the collected configuration is a GC successor of the node; the
    discarded locations are plainly unreachable, so the program never
    reads them again; and a finalizer that a garbage weak table blocks
    (``not_fin_val``) runs one cycle later with the same observations.
    The search is sound only with respect to the explored space
    (``step_bound`` program steps per trace, ``node_budget`` distinct
    expansions overall; exceeding the budget records a distinct truncation
    marker).

    Nodes are focused states, and a node skips its cycle by the skip
    rule of ``gc``'s module docstring.  The plain successor is the drain
    machine's state after the step: it keeps the node's frame list,
    occurrence counts, lost roots and memo.  The garbage-only successor
    takes them over in its place.  A GC successor beside the plain step is
    a branch with its own copy of the split and counts, nothing lost yet,
    and its outcome's memo.

    The search explores states, not paths: a visited set holds every
    (configuration, program step count) pair already expanded, and a
    popped node equal to one of them is skipped as a revisit.  Interleavings
    that differ only in when a collection ran meet again at the same step
    count, since a GC step does not advance it.  Keeping the count in the
    key makes the pruning exact: a node's successors, and so its
    ``⊥(fuel)`` markers, depend only on the pair.

    A node's key holds its split, not its term (``_state_key``), and the
    visited set holds keys: nothing is plugged per pop.  A key hashes
    only the frames pushed since its parent's was taken and the stores a
    step wrote; a revisit compares its frames down to the first one it
    shares with the node it meets.
    """
    obs = ObservationSet()
    if isinstance(explorer, ScheduleSampler):
        for sched in explorer.schedules:
            obs.add(run(config, sched, fuel).result)
        return obs

    # one schedule for every node's drain: GC on, no scheduled cycles
    drain = Schedule("scripted", explorer.mode)
    visited: Dict[_StateKey, List[_StateKey]] = {}
    # focused states; the root is focused when it is expanded
    stack: List[Tuple[Union[Focused, Configuration], int]] = [(config, 0)]
    while stack:
        s, steps = stack.pop()
        key = _state_key(s, steps)
        seen = visited.setdefault(key, [])
        if any(_same_zero_signs(v, key) for v in seen):
            obs.revisits += 1
            continue
        if obs.nodes >= explorer.node_budget:
            obs.add(BOTTOM_BUDGET_RESULT)
            obs.truncated = True
            break
        obs.nodes += 1
        seen.append(key)
        try:
            state = s if type(s) is Focused else Focused.of(s)
        except (HeapError, StuckTerm):
            obs.add(STUCK_RESULT)
            continue
        if isinstance(state.at, Finished):
            obs.add(result_of_finished(state.at, state))
            continue
        if steps >= explorer.step_bound:
            obs.add(BOTTOM_FUEL_RESULT)
            continue
        allow = not state.finalizer_in_flight
        try:
            # the maximal cycle, if it changes anything
            outcomes = enumerate_gc_steps(state, explorer.mode,
                                          allow_finalizer=allow)
            if outcomes and outcomes[0].garbage_only:
                obs.collected += 1
                stack.append((_gc_successor(state, outcomes[0], explorer.mode,
                                            branch=False), steps))
                continue
            if outcomes and explorer.granularity != "maximal":
                outcomes = subset_steps(state, outcomes[0], explorer.mode,
                                        allow_finalizer=allow)
        except (HeapError, StuckTerm):
            outcomes = []
        for o in outcomes:
            stack.append((_gc_successor(state, o, explorer.mode, branch=True),
                          steps))
        # the plain step takes over the node's frame list, counts and memo
        m = Machine(state, drain, explorer.step_bound, steps)
        try:
            m.step()
        except (HeapError, StuckTerm):
            obs.add(STUCK_RESULT)
            continue
        if m.drain_pending:
            # the drain's steps are charged to the same step bound
            if not m.advance(until_settled=True):
                obs.add(BOTTOM_FUEL_RESULT)
                continue
            if isinstance(m.state.at, Finished):
                obs.add(result_of_finished(m.state.at, m.state))
                continue
        stack.append((m.state, m.steps))
    return obs


# ---------------------------------------------------------------------------
# Reach-equivalence and postponement
# ---------------------------------------------------------------------------


def reach_equivalent(c1: Configuration, c2: Configuration) -> bool:
    """Same term, same reachable domains, equal bindings on them."""
    if c1.term != c2.term:
        return False
    r1 = reach_set(c1.term, c1.sigma, c1.theta)
    r2 = reach_set(c2.term, c2.sigma, c2.theta)
    if r1 != r2:
        return False
    for kind, i in r1:
        if kind == "ref":
            if c1.sigma.bindings[i] != c2.sigma.bindings[i]:
                return False
        elif kind == "tid":
            if c1.theta.table(i) != c2.theta.table(i):
                return False
        else:
            if c1.theta.closure(i) != c2.theta.closure(i):
                return False
    return True


@A.record
class PostponementReport:
    pairs_checked: int = 0
    failures: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


A.compile_records(Schedule, ProgramResult, RunRecord, ScheduleSampler,
                  ExhaustiveExplorer, ObservationSet, PostponementReport)

# the results without a final state, made once ``ProgramResult`` has its
# constructor
BOTTOM_FUEL_RESULT = ProgramResult("bottom", BOTTOM_FUEL)
BOTTOM_BUDGET_RESULT = ProgramResult("bottom", BOTTOM_BUDGET)
STUCK_RESULT = ProgramResult("stuck", "stuck")


def check_postponement(
    config: Configuration,
    trials: int = 5,
    seed: int = 0,
    fuel: int = 2_000,
    max_pairs: Optional[int] = None,
) -> PostponementReport:
    """Sample (GC step, program step) adjacent pairs and verify that
    swapping them yields reach-equivalent endpoints.

    Only meaningful for plain collection (no finalizers / weak tables).
    """
    report = PostponementReport()
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        m = Machine(Focused.of(config), Schedule("never"), fuel)
        while m.steps < fuel and not isinstance(m.state.at, Finished):
            if max_pairs is not None and report.pairs_checked >= max_pairs:
                return report
            if rng.random() < 0.4:
                pre = m.config
                outcome = m.collect(None)
                if outcome is not None:
                    m.step()
                    report.pairs_checked += 1
                    if not _swapped_matches(pre, outcome, m.config):
                        report.failures.append(
                            {"trial": trial, "step": m.steps - 1,
                             "pre": to_source(pre.term, 160)}
                        )
                    continue
            m.step()
    return report


def _swapped_matches(
    pre: Configuration, outcome: GcOutcome, post: Configuration
) -> bool:
    """Take the program step first, then discard the same bindings."""
    res = step(pre)
    if isinstance(res, Finished):
        return False
    c4 = res.config
    discard = set(outcome.discarded)
    # the discarded set must still be unreachable after the program step
    reached = reach_set(c4.term, c4.sigma, c4.theta)
    if discard & reached:
        return False
    return reach_equivalent(post, restrict(c4, discard))


# ---------------------------------------------------------------------------
# Bounded garbage check
# ---------------------------------------------------------------------------


def is_garbage(
    config: Configuration,
    loc: Location,
    explorer: Optional[ExhaustiveExplorer] = None,
    fuel: int = 5_000,
) -> bool:
    """Bounded check: do observations agree with and without the binding?

    Unreachable implies garbage; the converse (semantic garbage) is only
    certified up to the explorer budget.
    """
    explorer = explorer or ExhaustiveExplorer(step_bound=300, node_budget=5_000)
    a = observations(config, explorer, fuel)
    b = observations(restrict(config, {loc}), explorer, fuel)
    return a.keys == b.keys
