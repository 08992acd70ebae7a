"""Smoke tests of the scripts under ``scripts/``: each runs as its own
process, exits 0 and prints its report."""

import json
import shutil
import subprocess
import sys

from conftest import CORPUS, ROOT


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=300,
    )


def test_schedule_sweep():
    proc = run_script("schedule_sweep.py",
                      str(CORPUS / "deterministic" / "arith.lua"),
                      "--seeds", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # never, eager, two periodic and two random schedules, then the set
    assert sum("->" in line for line in lines) == 6
    assert "observation set size: 1" in lines
    assert lines[-1].lstrip().startswith("6 schedule(s): ")


def test_run_properties(tmp_path):
    shutil.copy(CORPUS / "deterministic" / "arith.lua", tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps([
        {"path": "arith.lua", "class": "deterministic",
         "expected": {"deterministic": True}},
    ]))
    proc = run_script("run_properties.py", str(tmp_path), "--seeds", "0")
    assert proc.returncode == 0, proc.stderr
    reports, text = [], proc.stdout.strip()
    decoder = json.JSONDecoder()
    while text:
        report, end = decoder.raw_decode(text)
        reports.append(report)
        text = text[end:].lstrip()
    assert [r["property"] for r in reports] == [
        "correctness", "determinism", "postponement", "finalizer-once"]
    assert all(r["failures"] == [] and r["programs"] >= 1 for r in reports)
