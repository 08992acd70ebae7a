"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 1-2 pin the finalizer protocol to golden behavior; 3-4 run the
schedule-equivalence and step-swapping properties over the deterministic
corpus; 5 pits the recursive reachability definitions against the graph
oracles; 6-7 pin weak-table behavior (ephemeron clearing, the bounded
nondeterminism witness); 8-9 gate the analyzer; 10 audits every trace the
earlier criteria produced for at-most-once finalization.
"""

import random
import re
import time

from luagc.ast import Num
from luagc.checker import check_program
from luagc.executor import (
    ExhaustiveExplorer,
    Schedule,
    check_postponement,
    observations,
    run,
)
from luagc.gc import reach, reach_cte, reach_set, run_cycle, strong_reach_set
from luagc.heap import Configuration, validate
from luagc.interp import load_program

from conftest import corpus_text, deterministic_programs, safe_programs
from heapgen import all_locs, build_heap, exhaustive_heaps, random_heap

#: traces produced while checking criteria 1-7, audited by criterion 10
TRACES = []


def record(label, rec):
    TRACES.append((label, rec.trace))
    return rec


def verdict(n, ok, text):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n} failed: {text}"


_ID = re.compile(r"table: #(\d+)")


def finalized_identities(output):
    """Table identities printed by the 'bye' lines, in order."""
    return [
        int(_ID.search(line).group(1))
        for line in output
        if line.startswith("bye")
    ]


SCHED = Schedule("scripted", "fin")  # GC on collectgarbage() only


def test_criterion_1_finalizer_ordering():
    started = time.time()
    rec = record(
        "order", run(load_program(corpus_text("finalizers/finalizer_order.lua")),
                     SCHED, fuel=5_000)
    )
    first_print = rec.output[0].split("\t")
    a_id, b_id = (int(_ID.search(x).group(1)) for x in first_print)
    byes = finalized_identities(rec.output)

    swapped = record(
        "order-swapped",
        run(load_program(corpus_text("finalizers/finalizer_order_swapped.lua")),
            SCHED, fuel=5_000),
    )
    s_print = swapped.output[0].split("\t")
    sa, sb = (int(_ID.search(x).group(1)) for x in s_print)
    s_byes = finalized_identities(swapped.output)

    elapsed = time.time() - started
    ok = (
        byes == [b_id, a_id]  # reverse chronological: b marked last
        and s_byes == [sa, sb]  # swapped set order swaps the output
        and elapsed < 1.0
    )
    verdict(1, ok,
            f"finalizers ran reverse-chronologically ({byes} vs print order"
            f" [{a_id}, {b_id}]); swapped variant {s_byes}; {elapsed:.2f}s")


def test_criterion_2_finalizer_marking():
    rec = record(
        "marking",
        run(load_program(corpus_text("finalizers/finalizer_marking.lua")),
            SCHED, fuel=5_000),
    )
    golden = rec.output == ["goodbye"]
    skips = [e for e in rec.trace if e["kind"] == "finalize_skip"]
    skipped_tid = skips[0]["table"] if skips else None
    collected_after_skip = any(
        e["kind"] == "collect" and f"tid{skipped_tid}" in e["discarded"]
        for e in rec.trace
    )
    no_error = rec.result.kind == "empty"
    ok = golden and len(skips) == 1 and collected_after_skip and no_error
    verdict(2, ok,
            f"output {rec.output} (want ['goodbye']); non-function __gc"
            f" skipped once and the object was collected")


def test_criterion_3_correctness_and_determinism():
    started = time.time()
    programs = deterministic_programs()
    assert len(programs) >= 20
    schedules = [
        Schedule("never", "simple"),
        Schedule("eager", "simple"),
        Schedule("periodic", "simple", period=3),
    ] + [
        Schedule("random", "simple", seed=s, probability=0.3)
        for s in range(20)
    ]
    mismatches = []
    for path in programs:
        text = path.read_text()
        keys = set()
        for sched in schedules:
            rec = record(f"det:{path.stem}:{sched.describe()}",
                         run(load_program(text), sched, fuel=10_000))
            keys.add(rec.result.key)
        if len(keys) != 1:
            mismatches.append((path.name, len(keys)))
    elapsed = time.time() - started
    ok = not mismatches and elapsed < 30.0
    verdict(3, ok,
            f"{len(programs)} programs x {len(schedules)} schedules, "
            f"{len(mismatches)} mismatches, {elapsed:.1f}s")


def test_criterion_4_postponement():
    pairs = 0
    failures = []
    target = 1_000
    trial_round = 0
    while pairs < target and trial_round < 40:
        for path in deterministic_programs():
            config = load_program(path.read_text())
            report = check_postponement(
                config, trials=2, seed=trial_round * 101 + 7, fuel=4_000,
                max_pairs=target - pairs,
            )
            pairs += report.pairs_checked
            failures.extend(report.failures)
            if pairs >= target:
                break
        trial_round += 1
    ok = pairs >= target and not failures
    verdict(4, ok, f"{pairs} swapped pairs, {len(failures)} counterexamples")


def test_criterion_5_reachability_oracle_equivalence():
    disagreements = 0
    exhaustive_count = 0
    for config in exhaustive_heaps():
        plain = reach_set(config.term, config.sigma, config.theta)
        for loc in all_locs(config):
            if reach(loc, config.term, config.sigma, config.theta) != \
                    (loc in plain):
                disagreements += 1
        exhaustive_count += 1

    rng = random.Random(515151)
    for _ in range(1_000):
        config = random_heap(rng, max_locs=12)
        plain = reach_set(config.term, config.sigma, config.theta)
        for loc in all_locs(config):
            if reach(loc, config.term, config.sigma, config.theta) != \
                    (loc in plain):
                disagreements += 1

    rng = random.Random(626262)
    strong_checked = 0
    for _ in range(1_000):
        config = random_heap(rng, max_locs=12, weak=True)
        strong = strong_reach_set(config.term, config.sigma, config.theta)
        for loc in all_locs(config):
            a = reach_cte(loc, config.term, config.sigma, config.theta,
                          config.term)
            if a != (loc in strong):
                disagreements += 1
        strong_checked += 1
    ok = disagreements == 0 and exhaustive_count >= 3_000
    verdict(5, ok,
            f"{exhaustive_count} exhaustive + 2000 random heaps, "
            f"{disagreements} disagreements")


def test_criterion_6_ephemeron_collection():
    # sole field's value references its own key, no external key reference
    isolated = build_heap(
        {},
        {1: {"fields": [(("tid", 2), ("tid", 3))], "mode": "k"},
         2: {},
         3: {"fields": [(Num(1), ("tid", 2))]}},
        {}, [("tid", 1)],
    )
    o1 = run_cycle(isolated, "fin_weak")
    cleared = (
        len(o1.cleared_weak_fields) == 1
        and not o1.kept_theta.table(1).fields
        and ("tid", 2) in o1.discarded
        and ("tid", 3) in o1.discarded
    )
    validate(Configuration(o1.kept_sigma, o1.kept_theta, isolated.term))

    held = build_heap(
        {1: ("tid", 2)},
        {1: {"fields": [(("tid", 2), ("tid", 3))], "mode": "k"},
         2: {},
         3: {"fields": [(Num(1), ("tid", 2))]}},
        {}, [("tid", 1), ("ref", 1)],
    )
    o2 = run_cycle(held, "fin_weak")
    survived = not o2.cleared_weak_fields and bool(o2.kept_theta.table(1).fields)
    ok = cleared and survived
    verdict(6, ok,
            f"isolated pair cleared in one maximal cycle: {cleared};"
            f" externally held key survives: {survived}")


def test_criterion_7_nondeterminism_witness():
    config = load_program(corpus_text("weak/nondet_weak_loop_bounded.lua"))
    obs = observations(
        config, ExhaustiveExplorer("fin_weak", 400, "maximal", 60_000),
        fuel=2_000,
    )
    # exhaustive exploration is deterministic; keep one scheduled run's
    # trace for the finalize audit
    record("witness",
           run(load_program(corpus_text("weak/nondet_weak_loop_bounded.lua")),
               Schedule("random", "fin_weak", seed=3, probability=0.4),
               fuel=2_000))
    ok = len(obs) >= 2 and not obs.truncated
    verdict(7, ok, f"bounded weak loop: {len(obs)} distinct observations")


def test_criterion_8_analyzer_verdicts():
    problems = []

    r1 = check_program(corpus_text("weak/nondet_weak_loop.lua"))
    if r1.verdict != "UNSAFE":
        problems.append(f"weak loop: {r1.verdict}")

    r8 = check_program(corpus_text("weak/weak_cache.lua"))
    flagged = [(d.line, d.access) for d in r8.unsafe]
    if r8.verdict != "UNSAFE" or flagged != [(9, "cache1[2]"), (10, "cache1[3]")]:
        problems.append(f"cache: {flagged}")
    if any(d.line == 8 for d in r8.unsafe):
        problems.append("cache line 8 wrongly flagged")

    r9 = check_program(corpus_text("weak/field_tracking.lua"))
    f9 = [(d.line, d.access) for d in r9.unsafe]
    if r9.verdict != "UNSAFE" or f9 != [(6, 't1["method"]')]:
        problems.append(f"field tracking: {f9}")

    safe = safe_programs()
    assert len(safe) >= 10
    for path in safe:
        r = check_program(path.read_text(), str(path))
        if r.verdict != "SAFE":
            problems.append(f"{path.name}: {r.verdict}")

    ok = not problems
    verdict(8, ok, f"verdicts and positions exact; problems: {problems}")


def test_criterion_9_safe_implies_deterministic():
    violations = []
    for path in safe_programs():
        text = path.read_text()
        if check_program(text, str(path)).verdict != "SAFE":
            continue
        obs = observations(
            load_program(text),
            ExhaustiveExplorer("fin_weak", 300, "maximal", 40_000),
            fuel=2_000,
        )
        if obs.truncated:
            continue  # outside the explorer's bounds
        if len(obs) != 1:
            violations.append((path.name, len(obs)))
    ok = not violations
    verdict(9, ok, f"SAFE corpus exhaustively explored; violations: {violations}")


def test_criterion_10_finalizer_at_most_once():
    assert TRACES, "criteria 1-7 must run first"
    repeats = []
    finalize_events = 0
    for label, trace in TRACES:
        seen = [e["table"] for e in trace if e["kind"] == "finalize"]
        finalize_events += len(seen)
        if len(seen) != len(set(seen)):
            repeats.append(label)
    ok = not repeats and finalize_events > 0
    verdict(10, ok,
            f"{len(TRACES)} traces, {finalize_events} finalize events,"
            f" repeated finalization in: {repeats}")
