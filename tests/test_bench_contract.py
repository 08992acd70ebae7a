"""The benchmark's contract with the package.

``perfbench/tracer.py`` wraps luagc functions by module and name, and a
traced run reports every per-layer metric ``BENCHMARK.json`` lists.  A
renamed or deleted target makes the traced run miss its metrics, so these
tests fail before the benchmark does.
"""

import importlib
import json
import subprocess
import sys

import pytest

from conftest import ROOT, perfbench_module

_TRACER = perfbench_module("tracer")


@pytest.mark.parametrize(
    "module, func",
    [(m, f) for _, m, f in _TRACER.TARGETS]
    + [tuple(_TRACER.SNAPSHOT.split("."))],
    ids=lambda x: x,
)
def test_tracer_target_is_a_module_level_function(module, func):
    mod = importlib.import_module(f"luagc.{module}")
    fn = getattr(mod, func, None)
    assert callable(fn), f"luagc.{module}.{func} is gone"
    assert fn.__module__ == f"luagc.{module}"


def test_traced_run_reports_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check",
         "--seed", "1", "--seconds", "0.3", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert not [line for line in lines if line.startswith("absent")]
    result = json.loads(lines[-1])
    assert result["correct"] is True
    missing = [m["name"] for m in bench["per_layer"]
               if m["name"] not in result["metrics"]]
    assert missing == []
