#!/usr/bin/env python3
"""luagc benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload run-never --seed 1 --seconds 25 --trace 0

Runs from a checkout holding ``src/luagc`` and ``corpus/``; it drives luagc
only through its public library API, in this one process, with no threads.
Each timed pass runs the workload's fixed op list once; passes repeat while
the next is expected to end less than half a pass after ``--seconds``.
Times are reported at reference speed (see ``calibrate.py``).
Every output is checked against a reference from ``workloads.py``; an
unexpected wrong output or exception makes the exit code 1.  Known-defect
inputs run once, untimed, after the passes, and are printed with how they
fail.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time, then one traced pass, and reports the per-layer
metrics; its spans are written to ``.perfbench/``.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from calibrate import REF_S, calibrate  # noqa: E402
import workloads as W  # noqa: E402

SETUP_REPEATS = 11
CAL_SHARE = 0.5  # calibration time after an op, as a share of its time
OUT_DIR = ROOT / ".perfbench"

# name -> unit; every one is reported on every workload with --trace 0
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ok_share": "ratio",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


def import_luagc():
    """A fresh import of luagc from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "luagc" / "__init__.py").is_file():
        raise SetupError(f"no luagc sources under {src}")
    if not (ROOT / "corpus").is_dir():
        raise SetupError(f"no corpus under {ROOT}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "luagc" or n.startswith("luagc.")]:
        del sys.modules[name]
    luagc = importlib.import_module("luagc")
    if Path(luagc.__file__).resolve().parent != (src / "luagc").resolve():
        raise SetupError(f"imported luagc from {luagc.__file__}, not from {src}")
    return luagc


def setup(workload: str, seed: int):
    """Import luagc, generate the seeded inputs, parse and load them.

    Returns the set-up time, the calibration loop's seconds per run
    measured right after it, and what was set up.
    """
    t0 = perf_counter()
    luagc = import_luagc()
    ops, defects = W.build(workload, seed, ROOT)
    load(luagc, ops)
    seconds = perf_counter() - t0
    runs, cal = calibrate(CAL_SHARE * seconds)
    return seconds, cal / runs, luagc, ops, defects


def load(luagc, ops) -> None:
    """Parse analyzer inputs; parse, desugar and load programs to run."""
    for op in ops:
        if op.kind == "check":
            luagc.parse(op.source, op.name)
        else:
            op.config = luagc.load_program(op.source, op.name)


def execute(luagc, op):
    if op.kind == "check":
        return luagc.check_program(op.source, op.name)
    config = op.config if op.config is not None else luagc.load_program(op.source, op.name)
    if op.kind == "run":
        policy, mode, selector, *seed = op.schedule
        schedule = luagc.Schedule(policy, mode, seed=seed[0] if seed else 0, selector=selector)
        return luagc.run(config, schedule, fuel=W.RUN_FUEL)
    mode, granularity = op.explorer
    explorer = luagc.ExhaustiveExplorer(mode, W.STEP_BOUND, granularity, W.NODE_BUDGET)
    return luagc.observations(config, explorer)


def decided(op, out) -> bool:
    """Reached a verdict: no ⊥ marker, no truncation, no UNKNOWN."""
    if out is None:
        return False
    if op.kind == "run":
        return out.result.kind != "bottom"
    if op.kind == "explore":
        return not out.truncated
    return out.verdict != "UNKNOWN"


def verify(op, out, err):
    """None when the op's output matches its reference, else what went wrong."""
    if err is not None:
        return f"raised {describe_exception(err)}"
    return op.check(out)


def describe_exception(err: BaseException) -> str:
    """Exception class and the luagc function it came from: the one that
    recurs most in the traceback (outermost on a tie), else the innermost."""
    src = str(ROOT / "src" / "luagc")
    frames = Counter(
        f"{Path(f.filename).stem}.{f.name}"
        for f in traceback.extract_tb(err.__traceback__) if f.filename.startswith(src)
    )
    if not frames:
        return type(err).__name__
    where, n = frames.most_common(1)[0]
    if n == 1:
        where = list(frames)[-1]
    return f"{type(err).__name__} in {where}"


def timed_pass(luagc, ops, tracer=None, cal_share=CAL_SHARE):
    """Run every op once; returns (out, exception, seconds, calibration
    runs, calibration seconds) per op.

    Only the luagc call is timed.  The calibration loop runs right after
    it until it has taken ``cal_share`` of the time of the ops so far; a
    short op may leave it to a later one.  Each op catches its own
    exception, so one failing op does not stop the pass.
    """
    outcomes = []
    owed = 0.0
    op_nid = tracer.intern(tracing.OP_SPAN) if tracer else None
    for i, op in enumerate(ops):
        if tracer:
            tracer.op_id = i
            idx = tracer.open(op_nid)
        err = out = None
        t0 = perf_counter()
        try:
            out = execute(luagc, op)
        except Exception as e:  # recorded with its class and luagc origin
            err = e
        t1 = perf_counter()
        if tracer:
            tracer.close(idx, t0, t1)
        owed += cal_share * (t1 - t0)
        runs, cal = calibrate(owed)
        owed -= cal
        outcomes.append((out, err, t1 - t0, runs, cal))
    return outcomes


def pass_seconds(outcomes) -> float:
    return sum(o[2] for o in outcomes)


def at_reference_speed(seconds: float, cal_seconds: float) -> float:
    """``seconds`` scaled by how much slower than reference speed the
    calibration loop ran beside it, taking ``cal_seconds`` per run."""
    return seconds * REF_S / cal_seconds


def reference_pass_seconds(passes) -> float:
    """Mean pass time over ``passes`` at reference speed, scaled by the
    calibration loop's seconds per run over all of them.

    The calibration loop runs for a fixed share of each op's time, so its
    runs sample the machine's speed evenly over the passes and their
    total tracks the drift that slowed the ops.
    """
    outcomes = [o for outcomes in passes for o in outcomes]
    cal_seconds = sum(o[4] for o in outcomes) / sum(o[3] for o in outcomes)
    return at_reference_speed(pass_seconds(outcomes) / len(passes), cal_seconds)


class Tally:
    """Per-op outcomes over every pass."""

    def __init__(self, ops):
        self.ops = ops
        self.problems = {}  # op name -> first problem seen
        self.decided = {}
        self.attempted = 0
        self.failed = 0
        self.steps = 0  # program steps of one pass (run workloads)

    def add(self, outcomes) -> None:
        steps = 0
        for op, (out, err, *_) in zip(self.ops, outcomes):
            self.attempted += 1
            problem = verify(op, out, err)
            if problem:
                self.failed += 1
                self.problems.setdefault(op.name, problem)
            self.decided.setdefault(op.name, decided(op, out))
            if op.kind == "run" and out is not None:
                steps += out.steps
        self.steps = steps


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        setups, ref_setups = [], []
        for _ in range(SETUP_REPEATS):
            seconds, cal, luagc, ops, defects = setup(args.workload, args.seed)
            setups.append(seconds)
            ref_setups.append(at_reference_speed(seconds, cal))
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    # Passes run while the next one is expected to end less than half a
    # pass after the budget, so the pass count is the nearest fit.
    budget = args.seconds / 2 if args.trace else args.seconds
    tally = Tally(ops)
    passes = []
    started = perf_counter()
    while True:
        begun = perf_counter()
        outcomes = timed_pass(luagc, ops)
        passes.append(outcomes)
        tally.add(outcomes)
        now = perf_counter()
        if now - started + (now - begun) / 2 > budget:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = reference_pass_seconds(passes)
    walls = [pass_seconds(p) for p in passes]
    refs = [reference_pass_seconds([p]) for p in passes]
    q1, measured_wall_s, q3 = quartiles(walls)
    r1, r2, r3 = quartiles(refs)

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops, "
          f"{len(passes)} passes, python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    for op in ops:
        print(f"  op {op.name}: {'ok' if op.name not in tally.problems else tally.problems[op.name]}"
              f"{'' if tally.decided[op.name] else ' (undecided)'}")

    if args.trace:
        tracer = tracing.Tracer(getattr(sys.modules.get("luagc.heap"), "snapshot_json", None))
        tracer.install()
        try:
            idx = tracer.open(tracer.intern(tracing.SETUP_SPAN))
            t0 = perf_counter()
            load(luagc, ops)
            tracer.close(idx, t0, perf_counter())
            outcomes = timed_pass(luagc, ops, tracer, cal_share=0)
        finally:
            tracer.uninstall()
        tally.add(outcomes)
        metrics = tracing.layer_metrics(tracer, pass_seconds(outcomes), measured_wall_s)
        tracer.write(OUT_DIR / f"spans-{args.workload}.bin")
        absent = [name for name, *_ in tracing.LAYER_METRICS if name not in metrics]
        if absent:
            print(f"absent (target function gone): {', '.join(absent)}")
    else:
        # known defects: once each, untimed, outside attempted/failed
        rows = []
        for op, (out, err, seconds, *_) in zip(defects, timed_pass(luagc, defects, cal_share=0)):
            rows.append((verify(op, out, err), decided(op, out)))
            print(f"  known defect {op.name}: {rows[-1][0] or 'fixed'} ({seconds:.3f} s)")
        total = len(ops) + len(rows)
        ok = sum(op.name not in tally.problems for op in ops) + sum(p is None for p, _ in rows)
        n_decided = sum(tally.decided.values()) + sum(d for _, d in rows)
        values = {
            "setup_s": statistics.median(ref_setups),
            "wall_s": wall_s,
            "ok_share": ok / total,
            "decided_share": n_decided / total,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        wrong = sum(1 for p in tally.problems.values() if not p.startswith("raised"))
        wrong += sum(1 for p, _ in rows if p and not p.startswith("raised"))
        print(f"  wall_s {wall_s:.4f} s at reference speed; quartiles over {len(walls)} passes: "
              f"{r1:.4f} / {r2:.4f} / {r3:.4f} s at reference speed, "
              f"{q1:.4f} / {measured_wall_s:.4f} / {q3:.4f} s measured")
        print(f"  setup_s {statistics.median(setups):.4f} s measured (median of {len(setups)})")
        print(f"  wrong_ops {wrong} count; failed_share {(total - ok) / total:.4f} ratio "
              f"(known defects included)")
        if tally.steps:
            print(f"  steps_per_s {tally.steps / wall_s:.1f} 1/s at reference speed, "
                  f"{tally.steps / measured_wall_s:.1f} 1/s measured ({tally.steps} steps per pass)")

    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    correct = not tally.problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
