#!/usr/bin/env python3
"""Re-measure the per-step baseline rows of ROADMAP.md with this harness.

    python3 perfbench/roadmap_table.py [--repeats 3]

Each row runs one generated program (the same generators as the workloads,
seed 0) under the stated schedule and prints the median µs per program step
next to the ROADMAP figure and their ratio.  Takes a few minutes.
"""

from __future__ import annotations

import argparse
import statistics
from time import perf_counter

import run as bench
import workloads as W

# (row, generator, size, schedule (policy, mode), ROADMAP µs/step)
ROWS = [
    ("flat loop n=200", W.flat_loop_program, 200, ("never", "simple"), 55.0),
    ("flat loop n=200", W.flat_loop_program, 200, ("eager", "fin_weak"), 309.0),
    ("live heap n=50", W.live_heap_loop_program, 50, ("never", "simple"), 33.0),
    ("live heap n=50", W.live_heap_loop_program, 50, ("eager", "fin_weak"), 330.0),
    ("live heap n=400", W.live_heap_loop_program, 400, ("never", "simple"), 38.0),
    ("live heap n=400", W.live_heap_loop_program, 400, ("eager", "fin_weak"), 1300.0),
    ("recursion d=50", W.recursion_program, 50, ("never", "simple"), 590.0),
    ("recursion d=100", W.recursion_program, 100, ("never", "simple"), 1130.0),
    ("recursion d=200", W.recursion_program, 200, ("never", "simple"), 2510.0),
    ("recursion d=200", W.recursion_program, 200, ("eager", "fin_weak"), 15600.0),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    luagc = bench.import_luagc()
    print(f"{'row':<18}{'schedule':<16}{'steps':>7}{'us/step':>10}{'ROADMAP':>10}{'ratio':>7}")
    for row, gen, size, (policy, mode), roadmap in ROWS:
        src, want = gen(W.Gen(0, "roadmap"), size)
        config = luagc.load_program(src)
        per_step = []
        for _ in range(args.repeats):
            t0 = perf_counter()
            rec = luagc.run(config, luagc.Schedule(policy, mode), fuel=W.RUN_FUEL)
            per_step.append((perf_counter() - t0) / rec.steps * 1e6)
            assert W.decode_key(rec.result.key)[1] == [want], rec.result.key
        us = statistics.median(per_step)
        print(f"{row:<18}{policy + '/' + mode:<16}{rec.steps:>7}{us:>10.0f}"
              f"{roadmap:>10.0f}{us / roadmap:>7.2f}", flush=True)


if __name__ == "__main__":
    main()
