"""Command-line entry points.

Subcommands: ``run`` (execute a program under a GC schedule), ``trace``
(one line per reduction step), ``observe`` (observation set over an
explorer, JSON), ``properties`` (corpus-level property experiments),
``check`` (the static analyzer), ``dump-ast`` (deterministic AST dump).

Program-level output goes to stdout; telemetry goes to stderr or JSON.
Seeds default to the LUAGC_SEED environment variable (else 0; a value
that is not an integer is an input error), so every command is
reproducible from its flags alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from .ast import to_json
from .checker import check_program
from .desugar import desugar
from .executor import (
    ExhaustiveExplorer,
    Schedule,
    ScheduleSampler,
    check_postponement,
    observations,
    run,
)
from .interp import load_program
from .parser import LuaSyntaxError, parse


def _default_seed() -> int:
    return int(os.environ.get("LUAGC_SEED", "0"))


def _tokens(spec: str, arg: str, most: int) -> List[str]:
    """The comma-separated arguments of ``spec``, at most ``most``."""
    parts = [p for p in arg.split(",") if p]
    if len(parts) > most:
        raise ValueError(f"{spec!r}: at most {most} arguments")
    return parts


def parse_gc_spec(spec: str, mode: str, seed: Optional[int] = None) -> Schedule:
    """Parse ``never | eager | periodic=K | random=SEED,P | scripted=I,J,...``."""
    seed = _default_seed() if seed is None else seed
    name, _, arg = spec.partition("=")
    if name == "never":
        return Schedule("never", mode)
    if name == "eager":
        return Schedule("eager", mode, seed=seed)
    if name == "periodic":
        period = int(arg) if arg else 3
        if period < 1:
            raise ValueError(f"{spec!r}: the period must be at least 1")
        return Schedule("periodic", mode, period=period, seed=seed)
    if name == "random":
        parts = _tokens(spec, arg, 2)
        seed = int(parts[0]) if parts else seed
        prob = float(parts[1]) if len(parts) > 1 else 0.25
        if not 0 <= prob <= 1:
            raise ValueError(f"{spec!r}: the probability must be in [0, 1]")
        return Schedule("random", mode, seed=seed, probability=prob)
    if name == "scripted":
        script = tuple(int(x) for x in arg.split(",") if x) if arg else ()
        return Schedule("scripted", mode, script=script, seed=seed)
    if name == "manual":
        # GC only on explicit collectgarbage() calls
        return Schedule("scripted", mode, script=(), seed=seed)
    raise ValueError(f"unknown gc policy {spec!r}")


def _mode(flag: str) -> str:
    modes = {"simple": "simple", "fin": "fin", "fin-weak": "fin_weak"}
    if flag not in modes:
        raise ValueError(f"unknown gc mode {flag!r}")
    return modes[flag]


def _error(e) -> int:
    """Report a bad input on stderr; the exit code of a CLI error."""
    print(f"error: {e}", file=sys.stderr)
    return 2


def _load(path: str):
    text = Path(path).read_text()
    return load_program(text, origin=path)


def cmd_run(args) -> int:
    try:
        config = _load(args.file)
        sched = parse_gc_spec(args.gc, _mode(args.mode), args.seed)
    except (LuaSyntaxError, OSError, ValueError) as e:
        return _error(e)
    rec = run(config, sched, fuel=args.fuel)
    for line in rec.output:
        print(line)
    print(f"result: {rec.result.kind}"
          + (f" {rec.result.key}" if rec.result.kind != "empty" else ""))
    return 0


def cmd_trace(args) -> int:
    try:
        config = _load(args.file)
        sched = parse_gc_spec(args.gc, _mode(args.mode), args.seed)
    except (LuaSyntaxError, OSError, ValueError) as e:
        return _error(e)
    rec = run(config, sched, fuel=args.fuel, trace_steps=True)
    for event in rec.trace:
        print(json.dumps(event, sort_keys=True))
    print(f"result: {rec.result.kind}", file=sys.stderr)
    return 0


def _parse_explorer(spec: str, mode: str, seed: int):
    name, _, arg = spec.partition("=")
    if name == "exhaustive":
        parts = _tokens(spec, arg, 2)
        step_bound = int(parts[0]) if parts else 200
        granularity = parts[1] if len(parts) > 1 else "maximal"
        if step_bound < 0 or granularity not in ("maximal", "subsets"):
            raise ValueError(f"{spec!r}: expected exhaustive=STEPS"
                             "[,maximal|subsets] with STEPS at least 0")
        return ExhaustiveExplorer(mode, step_bound, granularity)
    if name == "sample":
        parts = _tokens(spec, arg, 2)
        n = int(parts[0]) if parts else 10
        if n < 0:
            raise ValueError(f"{spec!r}: the sample count must be at least 0")
        base = int(parts[1]) if len(parts) > 1 else seed
        schedules = [Schedule("never", mode), Schedule("eager", mode)]
        schedules += [
            Schedule("random", mode, seed=base + i, probability=0.3)
            for i in range(n)
        ]
        return ScheduleSampler(tuple(schedules))
    raise ValueError(f"unknown explorer {spec!r}")


# The name of each JSON type a manifest entry may be asked to have
_JSON_TYPES = {str: "string", int: "integer", dict: "object"}


def _entry(spec: dict, name: str, kind, where: str, default=None):
    """``spec[name]``, or ``default`` when ``spec`` has no ``name``.  It
    must be a ``kind``, one of ``_JSON_TYPES``, or a list of them when
    ``kind`` is ``[type]``."""
    if name not in spec:
        return default
    x = spec[name]
    if type(kind) is list:
        ok = type(x) is list and all(type(y) is kind[0] for y in x)
        what = f"a list of JSON {_JSON_TYPES[kind[0]]}s"
    else:
        ok = type(x) is kind
        what = f"a JSON {_JSON_TYPES[kind]}"
    if not ok:
        raise ValueError(f"{where}: {name!r} must be {what}")
    return x


def _observe_inputs(args):
    """The program path, explorer description, explorer and fuel that an
    ``observe`` command names, by flags or by a manifest."""
    if not args.manifest:
        if args.file is None:
            raise ValueError("observe needs a program file or --manifest")
        seed = args.seed if args.seed is not None else _default_seed()
        explorer = _parse_explorer(args.explorer, _mode(args.mode), seed)
        return args.file, args.explorer, explorer, args.fuel
    where = args.manifest
    spec = json.loads(Path(where).read_text())
    if not isinstance(spec, dict) or "program" not in spec:
        raise ValueError(f"{where}: a manifest is a JSON object "
                         "with a \"program\" entry")
    program = _entry(spec, "program", str, where)
    mode = _mode(_entry(spec, "mode", str, where, "fin-weak"))
    seed = _entry(spec, "seed", int, where)
    if seed is None:
        seed = _default_seed()
    explorer_spec = _entry(spec, "explorer", str, where, "exhaustive")
    schedules = _entry(spec, "schedules", [str], where)  # gc policy specs
    if schedules is None:
        explorer = _parse_explorer(explorer_spec, mode, seed)
    else:
        base = [parse_gc_spec(s, mode, seed) for s in schedules]
        base += [Schedule("random", mode, seed=s, probability=0.3)
                 for s in _entry(spec, "seeds", [int], where, [])]
        explorer = ScheduleSampler(tuple(base))
        explorer_spec = "schedules:" + ",".join(schedules)
    return program, explorer_spec, explorer, _entry(spec, "fuel", int, where,
                                                    10_000)


def cmd_observe(args) -> int:
    try:
        path, explorer_spec, explorer, fuel = _observe_inputs(args)
        config = load_program(Path(path).read_text(), origin=path)
    except (LuaSyntaxError, OSError, ValueError) as e:
        return _error(e)
    obs = observations(config, explorer, fuel=fuel)
    report = {
        "program": path,
        "explorer": explorer_spec,
        "size": len(obs),
        "truncated": obs.truncated,
        "nodes": obs.nodes,
        "revisits": obs.revisits,
        "collected": obs.collected,
        "observations": sorted(obs.keys),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_check(args) -> int:
    reports = []
    worst = 0
    for path in args.files:
        try:
            text = Path(path).read_text()
        except OSError as e:
            return _error(e)
        try:
            report = check_program(text, origin=path)
        except LuaSyntaxError as e:
            print(f"{path}: syntax error: {e}", file=sys.stderr)
            worst = max(worst, 2)
            continue
        reports.append(report)
        if report.verdict == "UNSAFE":
            worst = max(worst, 1)
        elif report.verdict == "UNKNOWN":
            worst = max(worst, 2)
    if args.format == "json":
        print(json.dumps([r.to_json() for r in reports], indent=2,
                         sort_keys=True))
    else:
        for r in reports:
            print(f"{r.origin}: {r.verdict}"
                  + (f" ({r.reason})" if r.reason else ""))
            for d in r.diagnostics:
                line = f"  {d.line}:{d.col} [{d.severity}] {d.message}"
                print(line)
                if args.explain and d.witness:
                    print(f"    definitions in scope: {', '.join(d.witness)}")
    return worst


def cmd_dump_ast(args) -> int:
    try:
        text = Path(args.file).read_text()
        tree = parse(text, origin=args.file)
    except (LuaSyntaxError, OSError) as e:
        return _error(e)
    if args.desugar:
        tree = desugar(tree)
    _write_json(to_json(tree), sys.stdout.write)
    sys.stdout.write("\n")
    return 0


def _write_json(obj, write) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True)`` in pieces.

    An explicit stack, so a deeply nested AST dump needs no Python
    recursion; and written as it is made, since indentation makes the
    text of a deep tree quadratic in its depth.  A stack entry is a value
    with its depth, or literal text with depth None.
    """
    out: List[str] = []
    stack: list = [(obj, 0)]
    while stack:
        if len(out) >= 256:
            write("".join(out))
            out.clear()
        x, depth = stack.pop()
        if depth is None:
            out.append(x)
            continue
        if isinstance(x, dict):
            items = [(json.dumps(k) + ": ", v) for k, v in sorted(x.items())]
            brackets = "{}"
        elif isinstance(x, (list, tuple)):
            items = [("", v) for v in x]
            brackets = "[]"
        else:
            out.append(json.dumps(x))
            continue
        if not items:
            out.append(brackets)
            continue
        pad = "\n" + "  " * (depth + 1)
        seq: list = [(brackets[0], None)]
        for i, (key, v) in enumerate(items):
            seq.append(("," * (i > 0) + pad + key, None))
            seq.append((v, depth + 1))
        seq.append(("\n" + "  " * depth + brackets[1], None))
        stack.extend(reversed(seq))
    write("".join(out))


# ---------------------------------------------------------------------------
# Property experiments over a corpus
# ---------------------------------------------------------------------------


def _load_manifest(corpus_dir: Path) -> List[dict]:
    manifest = corpus_dir / "manifest.json"
    entries = json.loads(manifest.read_text())
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and "path" in e for e in entries):
        raise ValueError(f"{manifest}: a manifest is a JSON list of objects "
                         "with a \"path\" entry")
    for e in entries:
        _entry(e, "class", str, manifest)
        _entry(e, "expected", dict, manifest)
        e["path"] = str(corpus_dir / _entry(e, "path", str, manifest))
    return entries


def _schedules_for(mode: str, seeds: List[int]) -> List[Schedule]:
    out = [
        Schedule("eager", mode),
        Schedule("periodic", mode, period=3),
    ]
    out += [Schedule("random", mode, seed=s, probability=0.3) for s in seeds]
    return out


def cmd_properties(args) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [0, 1, 2]
        entries = _load_manifest(Path(args.corpus))
        programs = {e["path"]: _load(e["path"]) for e in entries}
    except (LuaSyntaxError, OSError, ValueError) as e:
        return _error(e)
    failures: List[dict] = []
    checked = 0
    det = [e for e in entries if e.get("class") == "deterministic"]
    if not entries:
        print("warning: empty corpus, nothing to verify", file=sys.stderr)

    expected_fail: List[dict] = []
    if args.property == "correctness" or args.property == "determinism":
        for e in det:
            config = programs[e["path"]]
            base = run(config, Schedule("never", "simple"), fuel=args.fuel)
            keys = {base.result.key}
            for sched in _schedules_for("simple", seeds):
                keys.add(run(config, sched, fuel=args.fuel).result.key)
            checked += 1
            if len(keys) != 1:
                failures.append({"path": e["path"], "observations": len(keys)})
        if args.property == "determinism":
            # nondeterministic-by-design programs: reported, never counted
            for e in entries:
                if e.get("expected", {}).get("deterministic") is not False:
                    continue
                mode = "fin_weak" if e.get("class") in ("weak", "both") else "fin"
                config = programs[e["path"]]
                keys = {
                    run(config, sched, fuel=args.fuel).result.key
                    for sched in [Schedule("never", mode)]
                    + _schedules_for(mode, seeds)
                }
                expected_fail.append(
                    {"path": e["path"], "observations": len(keys),
                     "expected": "nondeterministic"}
                )
    elif args.property == "postponement":
        total_pairs = 0
        for e in det:
            config = programs[e["path"]]
            report = check_postponement(config, trials=len(seeds) or 3,
                                        seed=seeds[0] if seeds else 0,
                                        fuel=args.fuel)
            total_pairs += report.pairs_checked
            checked += 1
            if not report.ok:
                failures.append({"path": e["path"],
                                 "counterexamples": report.failures})
        print(f"pairs checked: {total_pairs}", file=sys.stderr)
    elif args.property == "finalizer-once":
        for e in entries:
            config = programs[e["path"]]
            mode = "fin_weak" if e.get("class") in ("weak", "both") else "fin"
            for sched in _schedules_for(mode, seeds) + [
                Schedule("scripted", mode)
            ]:
                rec = run(config, sched, fuel=args.fuel)
                finalized = [
                    ev["table"] for ev in rec.trace if ev["kind"] == "finalize"
                ]
                checked += 1
                if len(finalized) != len(set(finalized)):
                    failures.append(
                        {"path": e["path"], "schedule": sched.describe(),
                         "finalized": finalized}
                    )

    report = {
        "property": args.property,
        "programs": checked,
        "failures": failures,
    }
    if expected_fail:
        report["expected_fail"] = expected_fail
    print(json.dumps(report, indent=2, sort_keys=True))
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="luagc",
        description="Executable model of Lua garbage collection with "
                    "finalizers, weak tables, and a weak-access analyzer.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--gc", default="manual",
                        help="never | eager | periodic=K | random=SEED,P"
                             " | scripted=I,J | manual")
        sp.add_argument("--mode", default="fin-weak",
                        choices=["simple", "fin", "fin-weak"])
        sp.add_argument("--fuel", type=int, default=10_000)
        sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("run", help="run a program under a GC schedule")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("trace", help="print one event per step")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser("observe", help="observation set (JSON)")
    sp.add_argument("file", nargs="?")
    sp.add_argument("--explorer", default="exhaustive",
                    help="exhaustive[=STEPS[,maximal|subsets]] "
                    "| sample=N[,SEED]")
    sp.add_argument("--manifest", help="experiment manifest (JSON)")
    common(sp)
    sp.set_defaults(fn=cmd_observe)

    sp = sub.add_parser("properties", help="corpus property experiments")
    sp.add_argument("corpus")
    sp.add_argument("--property", required=True,
                    choices=["correctness", "postponement", "determinism",
                             "finalizer-once"])
    sp.add_argument("--seeds", default="")
    sp.add_argument("--fuel", type=int, default=10_000)
    sp.set_defaults(fn=cmd_properties)

    sp = sub.add_parser("check", help="static weak-table-safety analysis")
    sp.add_argument("files", nargs="+")
    sp.add_argument("--format", default="text", choices=["text", "json"])
    sp.add_argument("--explain", action="store_true")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("dump-ast", help="deterministic AST dump (JSON)")
    sp.add_argument("file")
    sp.add_argument("--desugar", action="store_true")
    sp.set_defaults(fn=cmd_dump_ast)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
