"""Tests for the ``python -m repro`` command-line interface."""

import importlib
import sys

import pytest

from repro.__main__ import main
from repro.pipeline.compiler import Compiler

from tests.helpers import REPO, first_benchmarks

PROGRAM = """
fn foo(x: int) -> int {
  var p: int;
  if (x > 0) { p = x; } else { p = 0; }
  return 2 + p;
}
fn main(n: int) -> int {
  var acc: int = 0;
  var i: int = 0;
  while (i < n) { acc = acc + foo(i - 3); i = i + 1; }
  return acc;
}
"""

TRAPPING = """
fn main(n: int) -> int { return 10 / n; }
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.mini"
    path.write_text(PROGRAM)
    return path


class TestRun:
    def test_run_prints_result(self, source_file, capsys):
        code = main(["run", str(source_file), "--args", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "result" in out and "176" in out
        assert "simulated cycles" in out

    def test_run_all_configs(self, source_file, capsys):
        for config in ("baseline", "dbds", "dupalot", "backtracking", "path-dbds"):
            code = main(["run", str(source_file), "--args", "20", "--config", config])
            assert code == 0
            assert "176" in capsys.readouterr().out

    def test_trap_reported(self, tmp_path, capsys):
        path = tmp_path / "trap.mini"
        path.write_text(TRAPPING)
        code = main(["run", str(path), "--args", "0"])
        assert code == 1
        assert "trap" in capsys.readouterr().err

    def test_custom_entry(self, source_file, capsys):
        code = main(["run", str(source_file), "--entry", "foo", "--args", "5"])
        assert code == 0
        assert "7" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, engine", [([], "megaunit"), (["--engine", "reference"], "reference")]
    )
    def test_run_engine_defaults_to_megaunit(self, source_file, tmp_path, flags, engine):
        import json

        out = tmp_path / "metrics.json"
        argv = ["run", str(source_file), "--args", "20", "--metrics-out", str(out)]
        assert main(argv + flags) == 0
        runs = json.loads(out.read_text())["counters"]["repro_vm_runs_total"]
        assert runs == {f"engine={engine}": 1}
        if not flags:
            # ``bench`` measures on the same default: recursion's five
            # workloads under baseline, dbds and dupalot.
            argv = ["bench", "--suite", "recursion", "--metrics-out", str(out)]
            assert main(argv) == 0
            runs = json.loads(out.read_text())["counters"]["repro_vm_runs_total"]
            assert runs == {"engine=megaunit": 15}

    def test_warm_run_skips_parse_profile_compile_and_translate(
        self, tmp_path, monkeypatch, capsys
    ):
        argv = [
            "run", str(REPO / "examples" / "apps" / "nqueens.mini"), "--args", "6",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        calls = count_calls(
            monkeypatch,
            functions=[
                ("repro.frontend.irbuilder", "compile_source"),
                ("repro.interp.profile", "profile_program"),
                ("repro.vm.translate", "translate_program"),
            ],
            methods=[(Compiler, "compile_program")],
        )
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "compiled from   : cache" in warm.err
        assert warm.out.splitlines()[:2] == cold.splitlines()[:2]
        # The cache stores the program, not its bytecode: the warm run
        # translates once.
        assert calls == {
            "compile_source": 0, "profile_program": 0,
            "translate_program": 1, "compile_program": 0,
        }

    def _warm_counters(self, tmp_path, source, *flags):
        """The metric counters of a warm ``run`` with ``flags``, after a
        cold run that filled the cache."""
        import json

        out = tmp_path / "metrics.json"
        argv = [
            "run", str(source), "--args", "6",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert main([*argv, *flags, "--metrics-out", str(out)]) == 0
        return json.loads(out.read_text())["counters"]

    def test_warm_megaunit_run_hits_the_codegen_cache(self, tmp_path, capsys):
        # The warm run's fresh translation digests like the cold one's,
        # so megaunit finds the source the cold run generated.
        nqueens = REPO / "examples" / "apps" / "nqueens.mini"
        counters = self._warm_counters(tmp_path, nqueens, "--engine", "megaunit")
        assert counters["repro_codegen_cache_total"] == {
            "engine=megaunit,result=hit": 1,
        }


def count_calls(monkeypatch, functions=(), methods=()):
    """Count calls of each ``(module, name)`` function, wrapped at every
    binding across the loaded ``repro`` modules (callers import it by
    name), and of each ``(class, name)`` method; returns the live
    name -> count table."""
    counts = {}

    def counting(name, original):
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for module_name, name in functions:
        original = getattr(importlib.import_module(module_name), name)
        wrapper = counting(name, original)
        for loaded, module in list(sys.modules.items()):
            if module is None or not loaded.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    for cls, name in methods:
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    return counts


class TestCompile:
    def test_metrics_table(self, source_file, capsys):
        code = main(["compile", str(source_file), "--config", "dbds"])
        assert code == 0
        out = capsys.readouterr().out
        assert "foo" in out and "main" in out and "size" in out

    def test_dump_prints_ir(self, source_file, capsys):
        code = main(["compile", str(source_file), "--dump"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fn main" in out and "entry:" in out


class TestBench:
    def test_bench_suite_table(self, capsys, monkeypatch):
        # Shrink the suite for test speed.
        import repro.bench.workloads.suites as suites

        tiny = first_benchmarks(suites.MICRO, 1)
        monkeypatch.setitem(suites.ALL_SUITES, "micro", tiny)
        code = main(["bench", "--suite", "micro"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Geometric mean" in out


class TestObservabilityFlags:
    def test_compile_json(self, source_file, capsys):
        import json

        code = main(["compile", str(source_file), "--config", "dbds", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"] == "dbds"
        assert {u["function"] for u in report["units"]} == {"foo", "main"}
        assert report["totals"]["compile_time"] > 0

    def test_compile_trace_out_valid_jsonl(self, source_file, tmp_path, capsys):
        from repro.obs import read_jsonl, validate_trace_file

        out = tmp_path / "trace.jsonl"
        code = main(
            ["compile", str(source_file), "--config", "dbds", "--trace-out", str(out)]
        )
        assert code == 0
        assert validate_trace_file(out) > 0
        events = read_jsonl(out)
        phases = {
            e.attrs.get("phase") for e in events if e.name == "phase"
        }
        assert "dbds" in phases and "canonicalize" in phases
        decisions = [e for e in events if e.name == "dbds.decision"]
        assert decisions
        assert all("benefit" in e.attrs for e in decisions)

    def test_a_trapping_run_writes_its_trace_and_metrics(self, tmp_path, capsys):
        import json

        from repro.obs import MetricsSnapshot, read_jsonl

        path = tmp_path / "trap.mini"
        path.write_text(
            "fn main(n: int) -> int { var a: int[] = new int[2]; return a[n]; }"
        )
        trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.json"
        code = main([
            "run", str(path), "--args", "5",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ])
        assert code == 1
        assert "trap" in capsys.readouterr().err
        view = MetricsSnapshot.from_events(read_jsonl(trace))
        assert view.to_json() == json.loads(metrics.read_text())
        assert view.counter_value("repro_vm_runs_total", engine="megaunit") == 1

    def test_run_profile_compile(self, source_file, capsys):
        code = main(["run", str(source_file), "--args", "20", "--profile-compile"])
        assert code == 0
        captured = capsys.readouterr()
        assert "176" in captured.out and "compile profile" in captured.err

    def test_compile_json_with_profile_is_one_document(self, source_file, capsys):
        import json

        argv = ["compile", str(source_file), "--json", "--profile-compile"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["totals"]["compile_time"] > 0
        assert "phase_times" not in report["totals"]
        assert captured.err.startswith("compile profile")

    def test_bench_trace_out_is_the_verbs_trace(self, tmp_path, capsys, monkeypatch):
        import json

        import repro.bench.workloads.suites as suites
        from repro.bench.harness import cell_phase_times
        from repro.obs import read_jsonl, validate_trace_file

        tiny = first_benchmarks(suites.MICRO, 1)
        monkeypatch.setitem(suites.ALL_SUITES, "micro", tiny)
        trace, trajectory = tmp_path / "t.jsonl", tmp_path / "traj.json"
        code = main([
            "bench", "--suite", "micro", "--engine", "vm",
            "--trace-out", str(trace), "--profile-compile",
            "--engine-report", str(tmp_path / "engines.json"),
            "--append-trajectory", str(trajectory),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "Compile-time breakdown by phase" in captured.out
        assert "compile profile" in captured.err
        validate_trace_file(trace)
        events = read_jsonl(trace)
        assert [e.attrs["config"] for e in events if e.name == "bench.cell"] == [
            "baseline", "dbds", "dupalot",
        ]
        # The engine comparison recompiles under dbds after the suite:
        # its phase spans are in the trace, but not in the breakdown.
        end = max(i for i, e in enumerate(events) if e.name == "bench.cell")
        end += next(
            i for i, e in enumerate(events[end + 1:], 1) if e.depth == 0
        )
        assert any(e.name == "phase" for e in events[end:])
        breakdown = cell_phase_times(events)
        assert list(breakdown) == ["baseline", "dbds", "dupalot"]
        assert breakdown == cell_phase_times(events[:end])
        # The trajectory entry records the breakdown the table prints.
        (entry,) = json.loads(trajectory.read_text())["entries"]
        assert entry["phase_times"] == breakdown


class TestProfileAndMetrics:
    def test_profile_verb_prints_reconciled_tables(self, source_file, capsys):
        code = main(["profile", str(source_file), "--args", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "result          : 176" in out
        assert "opcode" in out and "function" in out and "block" in out
        assert "-> exact" in out

    @pytest.mark.parametrize("off_by_one", ["cycles", "steps"])
    def test_profile_reconciliation_mismatch_exits_1(
        self, source_file, capsys, monkeypatch, off_by_one
    ):
        import repro.pipeline.front as front

        measure = front.measure_performance

        def patched(*args, **kwargs):
            total, results = measure(*args, **kwargs)
            setattr(results[0], off_by_one, getattr(results[0], off_by_one) + 1)
            return total + (off_by_one == "cycles"), results

        monkeypatch.setattr(front, "measure_performance", patched)
        code = main(["profile", str(source_file), "--args", "20"])
        assert code == 1
        assert "-> MISMATCH" in capsys.readouterr().out

    def test_profile_trap_reported(self, tmp_path, capsys):
        path = tmp_path / "trap.mini"
        path.write_text(TRAPPING)
        code = main(["profile", str(path), "--args", "0"])
        assert code == 1
        assert "trap" in capsys.readouterr().err

    def test_profile_collapsed_and_json_outputs(self, source_file, tmp_path):
        import json

        folded = tmp_path / "stacks.folded"
        blob = tmp_path / "profile.json"
        code = main(
            [
                "profile", str(source_file), "--args", "20",
                "--collapsed", str(folded), "--json", str(blob),
            ]
        )
        assert code == 0
        lines = folded.read_text().splitlines()
        assert lines
        for line in lines:  # flamegraph.pl input: "a;b;c <int>"
            frames, weight = line.rsplit(" ", 1)
            assert frames and weight.isdigit()
        data = json.loads(blob.read_text())
        assert data["schema"] == 1
        assert data["total_cycles"] == sum(data["stacks"].values())

    def test_metrics_out_json(self, source_file, tmp_path):
        import json

        out = tmp_path / "metrics.json"
        code = main(
            ["run", str(source_file), "--args", "20", "--metrics-out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        assert data["counters"]["repro_compile_units_total"][""] == 2
        assert "repro_dbds_decisions_total" in data["counters"]


class TestTrajectoryCli:
    @pytest.fixture
    def tiny_suite(self, monkeypatch):

        import repro.bench.workloads.suites as suites

        tiny = first_benchmarks(suites.MICRO, 1)
        monkeypatch.setitem(suites.ALL_SUITES, "micro", tiny)

    def test_append_then_check_passes(self, tiny_suite, tmp_path, capsys):
        import json

        path = tmp_path / "traj.json"
        code = main(["bench", "--suite", "micro", "--append-trajectory", str(path)])
        assert code == 0
        data = json.loads(path.read_text())
        assert len(data["entries"]) == 1
        code = main(
            [
                "bench", "--suite", "micro",
                "--check-regression", str(path),
                "--append-trajectory", str(path),
            ]
        )
        assert code == 0
        assert "regression check: ok" in capsys.readouterr().err
        assert len(json.loads(path.read_text())["entries"]) == 2

    def test_regression_fails_and_skips_append(self, tiny_suite, tmp_path, capsys):
        import json

        path = tmp_path / "traj.json"
        assert main(["bench", "--suite", "micro", "--append-trajectory", str(path)]) == 0
        # Doctor the committed history: pretend the past was 2× faster.
        data = json.loads(path.read_text())
        for config in data["entries"][0]["configs"].values():
            config["median_cycles"] /= 2.0
        path.write_text(json.dumps(data))
        code = main(
            [
                "bench", "--suite", "micro",
                "--check-regression", str(path),
                "--append-trajectory", str(path),
            ]
        )
        assert code == 1
        assert "regression:" in capsys.readouterr().err
        # The failing run must not be committed to the history.
        assert len(json.loads(path.read_text())["entries"]) == 1

    def test_a_gate_that_compared_nothing_fails(
        self, tiny_suite, tmp_path, capsys
    ):
        """Every configuration's fingerprint changed since the last
        entry: nothing was compared, so nothing passed."""
        import json

        path = tmp_path / "traj.json"
        assert main(["bench", "--suite", "micro", "--append-trajectory", str(path)]) == 0
        data = json.loads(path.read_text())
        for config in data["entries"][0]["configs"].values():
            config["fingerprint"] = "0" * 64
        path.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(
            [
                "bench", "--suite", "micro",
                "--check-regression", str(path),
                "--append-trajectory", str(path),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "regression check: ok" not in err
        assert (
            "regression: compared nothing: every configuration's fingerprint "
            "changed since the entry of"
        ) in err
        assert len(json.loads(path.read_text())["entries"]) == 1

    def test_a_gate_without_a_comparable_entry_fails(
        self, tiny_suite, tmp_path, capsys
    ):
        import json

        path = tmp_path / "traj.json"
        assert main(["bench", "--suite", "micro", "--append-trajectory", str(path)]) == 0
        capsys.readouterr()
        code = main(
            ["bench", "--suite", "micro", "--seed", "1", "--check-regression", str(path)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert (
            f"regression: compared nothing: {path} holds no entry for suite "
            "micro, seed 1"
        ) in err
        assert len(json.loads(path.read_text())["entries"]) == 1

    def test_a_passing_gate_counts_what_it_compared(
        self, tiny_suite, tmp_path, capsys
    ):
        path = tmp_path / "traj.json"
        assert main(["bench", "--suite", "micro", "--append-trajectory", str(path)]) == 0
        capsys.readouterr()
        assert main(["bench", "--suite", "micro", "--check-regression", str(path)]) == 0
        assert (
            f"regression check: ok, 3 configuration(s) against {path}"
            in capsys.readouterr().err
        )


class TestArgparse:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_config_rejected(self, source_file):
        with pytest.raises(SystemExit):
            main(["run", str(source_file), "--config", "nonsense"])

    # ``compile`` never reads an entry, arguments or bytecode; the cache
    # of ``run``, ``check`` and ``bench`` is off unless --cache-dir; the
    # profiling VM's tables are the ``profile`` verb's; ``check`` runs
    # nothing it measures (its oracle runs every engine); ``explain``
    # profiles with ``--args`` like every JIT verb, and the ``trace``
    # verb is ``compile --profile-compile --trace-out`` plus
    # ``explain``.  ``check --fuzz N`` fuzzes generated programs and
    # mutants, each held to the oracle, whose reference run checks the
    # stamps, and ``check --verify-bytecode`` runs the verifier
    # ``--check-bc=rewrite`` ran on ``run``/``profile``; the regression
    # gate's threshold is a constant; ``--metrics-out`` is the one
    # metrics export.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compile", "{path}", "--entry", "nope"], "unrecognized arguments"),
            (
                ["compile", "{path}", "--args", "1", "2", "3"],
                "unrecognized arguments",
            ),
            (
                ["compile", "{path}", "--check-bc", "rewrite"],
                "unrecognized arguments",
            ),
            (["run", "{path}", "--no-cache"], "unrecognized arguments"),
            (["check", "{path}", "--no-cache"], "unrecognized arguments"),
            (["bench", "--no-cache"], "unrecognized arguments"),
            (["run", "{path}", "--profile-run"], "unrecognized arguments"),
            (["check", "{path}", "--engine", "vm"], "unrecognized arguments"),
            (["bench", "--profile-run"], "unrecognized arguments"),
            (
                ["explain", "{path}", "--profile-args", "4"],
                "unrecognized arguments",
            ),
            (["trace", "{path}"], "invalid choice: 'trace'"),
            (
                ["check", "{path}", "--fuzz-mutations", "2"],
                "unrecognized arguments",
            ),
            (
                ["check", "{path}", "--fuzz-engines", "2"],
                "unrecognized arguments",
            ),
            (["check", "{path}", "--dynamic-stamps"], "unrecognized arguments"),
            (
                ["check", "{path}", "--check-bc", "rewrite"],
                "unrecognized arguments",
            ),
            (
                ["run", "{path}", "--check-bc", "rewrite"],
                "unrecognized arguments",
            ),
            (
                ["profile", "{path}", "--check-bc", "rewrite"],
                "unrecognized arguments",
            ),
            (
                ["bench", "--regression-threshold", "0.1"],
                "unrecognized arguments",
            ),
            (["run", "{path}", "--metrics-prom", "m.prom"], "unrecognized arguments"),
            (
                ["check", "{path}", "--metrics-prom", "m.prom"],
                "unrecognized arguments",
            ),
            (
                ["batch", "{path}", "--metrics-prom", "m.prom"],
                "unrecognized arguments",
            ),
            (["bench", "--metrics-prom", "m.prom"], "unrecognized arguments"),
            (
                ["profile", "{path}", "--metrics-prom", "m.prom"],
                "unrecognized arguments",
            ),
        ],
        ids=[
            "compile --entry", "compile --args", "compile --check-bc",
            "run --no-cache", "check --no-cache", "bench --no-cache",
            "run --profile-run", "check --engine", "bench --profile-run",
            "explain --profile-args", "trace", "check --fuzz-mutations",
            "check --fuzz-engines", "check --dynamic-stamps",
            "check --check-bc", "run --check-bc", "profile --check-bc",
            "bench --regression-threshold", "run --metrics-prom",
            "check --metrics-prom", "batch --metrics-prom",
            "bench --metrics-prom", "profile --metrics-prom",
        ],
    )
    def test_removed_flags_rejected(self, source_file, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(path=source_file) for arg in argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestWorkloadCommand:
    def test_prints_source(self, capsys):
        code = main(["workload", "--suite", "micro", "--name", "akkaPP"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fn main" in out and "micro/akkaPP" in out

    def test_default_name(self, capsys):
        assert main(["workload", "--suite", "octane"]) == 0
        assert "octane/box2d" in capsys.readouterr().out

    def test_unknown_name_rejected(self, capsys):
        assert main(["workload", "--suite", "micro", "--name", "nope"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err
