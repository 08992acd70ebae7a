import json

import pytest

from luagc.ast import to_json
from luagc.cli import main, parse_gc_spec
from luagc.desugar import desugar
from luagc.parser import parse

from conftest import CORPUS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGcSpecParsing:
    def test_periodic(self):
        s = parse_gc_spec("periodic=5", "simple")
        assert s.policy == "periodic" and s.period == 5

    def test_random_with_seed_and_probability(self):
        s = parse_gc_spec("random=42,0.5", "fin")
        assert s.seed == 42 and s.probability == 0.5

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_gc_spec("sometimes", "simple")


class TestRunCommand:
    def test_deterministic_program_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", str(CORPUS / "deterministic" / "while_sum.lua"),
            "--gc", "never", "--mode", "simple",
        )
        assert code == 0
        assert out.splitlines()[-1].startswith("result: return")

    def test_finalizer_order_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", str(CORPUS / "finalizers" / "finalizer_order.lua"),
            "--gc", "eager", "--mode", "fin",
        )
        assert code == 0
        lines = out.splitlines()
        byes = [l for l in lines if l.startswith("bye")]
        assert len(byes) == 2

    def test_divergence_reports_bottom(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", str(CORPUS / "weak" / "nondet_weak_loop.lua"),
            "--gc", "never", "--fuel", "1000",
        )
        assert code == 0
        assert "⊥(fuel)" in out

    def test_weak_loop_eager_returns_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", str(CORPUS / "weak" / "nondet_weak_loop.lua"),
            "--gc", "eager", "--mode", "fin-weak", "--fuel", "1000",
        )
        assert code == 0
        assert '"v": 1.0' in out

    def test_parse_failure_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.lua"
        bad.write_text("local = ")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2 and "error" in err


class TestObserveCommand:
    def test_singleton_for_deterministic(self, capsys):
        code, out, _ = run_cli(
            capsys, "observe", str(CORPUS / "deterministic" / "arith.lua"),
            "--explorer", "sample=5", "--mode", "simple",
        )
        assert code == 0
        report = json.loads(out)
        assert report["size"] == 1

    def test_bounded_weak_loop_at_least_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "observe",
            str(CORPUS / "weak" / "nondet_weak_loop_bounded.lua"),
            "--explorer", "exhaustive=400", "--fuel", "2000",
        )
        assert code == 0
        assert json.loads(out)["size"] >= 2

    def test_explorer_counters_reported(self, capsys):
        argv = ["observe", str(CORPUS / "weak" / "nondet_weak_loop_bounded.lua"),
                "--explorer", "exhaustive=400"]
        reports = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            reports.append(json.loads(out))
        first, again = reports
        assert first["revisits"] > 0 and first["nodes"] > 0
        assert first["collected"] > 0
        counters = ("nodes", "revisits", "collected")
        assert ([first[k] for k in counters]
                == [again[k] for k in counters])

    def test_empty_program(self, tmp_path, capsys):
        f = tmp_path / "empty.lua"
        f.write_text(";")
        code, out, _ = run_cli(capsys, "observe", str(f),
                               "--explorer", "exhaustive=10")
        assert json.loads(out)["observations"] == ["empty"]

    def test_manifest_input(self, tmp_path, capsys):
        manifest = tmp_path / "exp.json"
        manifest.write_text(json.dumps({
            "program": str(CORPUS / "deterministic" / "arith.lua"),
            "explorer": "exhaustive=100",
            "mode": "simple",
            "fuel": 1000,
        }))
        code, out, _ = run_cli(capsys, "observe", "--manifest", str(manifest))
        assert code == 0 and json.loads(out)["size"] == 1


class TestCheckCommand:
    def test_unsafe_program_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", str(CORPUS / "weak" / "nondet_weak_loop.lua"),
        )
        assert code == 1
        assert "UNSAFE" in out

    def test_weak_cache_two_diagnostics(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", str(CORPUS / "weak" / "weak_cache.lua"),
            "--format", "json",
        )
        assert code == 1
        (report,) = json.loads(out)
        unsafe = [d for d in report["diagnostics"]
                  if d["severity"] == "unsafe"]
        assert [d["line"] for d in unsafe] == [9, 10]

    def test_safe_program_exit_0(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", str(CORPUS / "safe" / "plain_arith.lua"),
        )
        assert code == 0 and "SAFE" in out

    def test_unknown_exit_2(self, tmp_path, capsys):
        f = tmp_path / "oos.lua"
        f.write_text("local a, b = 1, 2 print(a)")
        code, out, _ = run_cli(capsys, "check", str(f))
        assert code == 2 and "UNKNOWN" in out

    def test_explain_prints_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", str(CORPUS / "weak" / "weak_cache.lua"),
            "--explain",
        )
        assert "definitions in scope" in out


class TestPropertiesCommand:
    def test_determinism_over_corpus(self, capsys):
        code, out, _ = run_cli(
            capsys, "properties", str(CORPUS),
            "--property", "determinism", "--seeds", "0,1",
            "--fuel", "5000",
        )
        assert code == 0
        report = json.loads(out)
        assert report["failures"] == []
        assert report["programs"] >= 20

    def test_finalizer_once(self, capsys):
        code, out, _ = run_cli(
            capsys, "properties", str(CORPUS),
            "--property", "finalizer-once", "--seeds", "0",
            "--fuel", "5000",
        )
        assert code == 0
        assert json.loads(out)["failures"] == []


class TestDumpAst:
    def test_deterministic_dump(self, capsys):
        path = str(CORPUS / "deterministic" / "arith.lua")
        _, out1, _ = run_cli(capsys, "dump-ast", path)
        _, out2, _ = run_cli(capsys, "dump-ast", path)
        assert out1 == out2
        tree = json.loads(out1)
        assert tree["kind"] == "block"

    def test_desugared_dump(self, capsys):
        path = str(CORPUS / "deterministic" / "arith.lua")
        _, out, _ = run_cli(capsys, "dump-ast", path, "--desugar")
        assert json.loads(out)["kind"] == "local"

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*/*.lua")),
                             ids=lambda p: f"{p.parent.name}/{p.stem}")
    def test_dump_is_indented_json(self, path, capsys):
        # the dump writes its JSON text on an explicit stack; it must be
        # exactly what json.dumps writes
        _, out, _ = run_cli(capsys, "dump-ast", str(path), "--desugar")
        tree = to_json(desugar(parse(path.read_text())))
        assert out == json.dumps(tree, indent=2, sort_keys=True) + "\n"


class TestTraceCommand:
    def test_trace_events_are_json_lines(self, capsys):
        code, out, err = run_cli(
            capsys, "trace",
            str(CORPUS / "finalizers" / "finalizer_marking.lua"),
            "--gc", "manual", "--mode", "fin",
        )
        assert code == 0
        events = [json.loads(line) for line in out.splitlines()]
        kinds = {e["kind"] for e in events}
        assert "l_step" in kinds and "finalize" in kinds
        steps = [e for e in events if e["kind"] == "l_step"]
        assert all("rule" in e and "redex" in e for e in steps)
        assert "result" in err


class TestEmptyCorpus:
    def test_vacuous_pass_with_warning(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text("[]")
        code, out, err = run_cli(
            capsys, "properties", str(tmp_path),
            "--property", "correctness",
        )
        assert code == 0
        assert "empty corpus" in err
        assert json.loads(out)["programs"] == 0


def assert_one_error_line(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


ARITH = str(CORPUS / "deterministic" / "arith.lua")


def argv_id(argv):
    return " ".join(a.replace(str(CORPUS), "corpus") for a in argv)


@pytest.mark.parametrize("argv", [
    ["run", ARITH, "--gc", "bogus"],
    ["run", ARITH, "--gc", "periodic=x"],
    ["observe", ARITH, "--explorer", "bogus"],
    ["observe", ARITH, "--explorer", "exhaustive=x"],
    ["observe", ARITH, "--explorer", "exhaustive=-5"],
    ["observe", ARITH, "--explorer", "exhaustive=400,1"],
    ["observe", ARITH, "--explorer", "exhaustive=400,subsets,1"],
    ["observe", ARITH, "--explorer", "sample=-1"],
    ["observe", ARITH, "--explorer", "sample=3,1,2"],
    ["run", ARITH, "--gc", "periodic=0"],
    ["run", ARITH, "--gc", "periodic=-2"],
    ["run", ARITH, "--gc", "random=1,2"],
    ["run", ARITH, "--gc", "random=1,-1"],
    ["run", ARITH, "--gc", "random=1,nan"],
    ["run", ARITH, "--gc", "random=1,0.5,3"],
    ["properties", str(CORPUS), "--property", "correctness", "--seeds", "a"],
    ["observe", "--manifest", str(CORPUS / "no-such-manifest.json")],
    ["observe"],
], ids=argv_id)
def test_malformed_input_is_one_error_line(argv, capsys):
    assert_one_error_line(*run_cli(capsys, *argv))


@pytest.mark.parametrize("argv", [
    ["run", ARITH, "--gc", "random"],
    ["observe", ARITH, "--explorer", "sample=2"],
], ids=argv_id)
def test_malformed_seed_variable_is_one_error_line(argv, monkeypatch, capsys):
    monkeypatch.setenv("LUAGC_SEED", "abc")
    assert_one_error_line(*run_cli(capsys, *argv))


@pytest.mark.parametrize("spec, keys", [
    ("exhaustive=0", {"⊥(fuel)"}),
    ("exhaustive=0,subsets", {"⊥(fuel)"}),
    ("exhaustive=400,maximal", None),
    ("sample=0", None),
])
def test_zero_bounds_are_accepted(spec, keys, capsys):
    """A step bound of 0 explores the start alone, and a sample of 0
    random schedules keeps ``never`` and ``eager``."""
    code, out, err = run_cli(capsys, "observe", ARITH, "--explorer", spec)
    assert code == 0 and err == ""
    report = json.loads(out)
    if keys is not None:
        assert set(report["observations"]) == keys
    else:
        assert report["size"] == 1


@pytest.mark.parametrize("manifest", [
    '[{"path": "bad.lua", "class": "deterministic"}]',
    '[{"class": "deterministic"}]',
    '{"path": "bad.lua"}',
    '[{"path": 5}]',
    '[{"path": "ok.lua", "expected": []}]',
], ids=["syntax-error", "no-path", "not-a-list", "path-not-a-string",
        "expected-not-an-object"])
def test_malformed_corpus_is_one_error_line(manifest, tmp_path, capsys):
    (tmp_path / "bad.lua").write_text("local = ")
    (tmp_path / "ok.lua").write_text("return 1")
    (tmp_path / "manifest.json").write_text(manifest)
    assert_one_error_line(*run_cli(
        capsys, "properties", str(tmp_path), "--property", "determinism"))


@pytest.mark.parametrize("fields", [
    {"program": 5},
    {"explorer": 5},
    {"schedules": [5]},
    {"schedules": ["never"], "seeds": ["a"]},
    {"fuel": "x"},
    {"explorer": "sample=2", "seed": "x"},
    {"mode": []},
], ids=json.dumps)
def test_malformed_manifest_is_one_error_line(fields, tmp_path, capsys):
    manifest = tmp_path / "exp.json"
    manifest.write_text(json.dumps({"program": ARITH, **fields}))
    assert_one_error_line(*run_cli(capsys, "observe", "--manifest",
                                   str(manifest)))
