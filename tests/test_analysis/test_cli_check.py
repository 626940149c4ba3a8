"""CLI tests for the ``repro check`` verb and the --check-ir flags."""

from __future__ import annotations

import json
import pathlib
from collections import Counter

from repro.__main__ import main
from repro.analysis.validate import FUZZ_ARGS
from repro.interp.interpreter import ExecutionResult
from repro.ir.nodes import Call
from repro.ir.ops import MAX_CALL_DEPTH
from repro.ir.stamps import IntStamp
from repro.obs import read_jsonl
from repro.vm.megaunit import MegaunitVirtualMachine

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"
NQUEENS = EXAMPLES / "apps" / "nqueens.mini"


def test_check_single_file_each_phase(capsys):
    assert main(["check", str(NQUEENS), "--args", "5"]) == 0
    out = capsys.readouterr().out
    assert "check: 1 file(s), mode each-phase: ok" in out


def test_check_directory_recurses(capsys):
    assert main(["check", str(EXAMPLES), "--args", "4"]) == 0
    out = capsys.readouterr().out
    assert "check: 3 file(s)" in out


def test_check_boundaries_keep_going(capsys):
    code = main(
        ["check", str(NQUEENS), "--check-ir=boundaries", "--keep-going",
         "--args", "4"]
    )
    assert code == 0


def test_check_with_lir_and_dynamic_stamps(capsys):
    # --diff-engines runs the oracle, whose reference run checks stamps.
    code = main(
        ["check", str(NQUEENS), "--lir", "--diff-engines", "--args", "4"]
    )
    assert code == 0
    assert "ok" in capsys.readouterr().out


def test_dynamic_stamps_reports_a_value_outside_its_stamp(monkeypatch, capsys):
    # Narrow the stamp of the first call left in main (place recurses,
    # so inlining keeps a call): the static sweep cannot refute a call's
    # stamp, the oracle's run on the reference interpreter can.  Only
    # the --config compile is narrowed; the baseline compiles apart.
    import repro.__main__ as cli

    jit = cli.jit
    call = None

    def narrowed(*args, **kwargs):
        nonlocal call
        artifact = jit(*args, **kwargs)
        main_graph = artifact.program.function("main")
        call = next(
            ins
            for block in main_graph.blocks
            for ins in block.instructions
            if isinstance(ins, Call)
        )
        call.stamp = IntStamp(-1, -1)
        return artifact

    monkeypatch.setattr(cli, "jit", narrowed)
    code = main(
        ["check", str(NQUEENS), "--diff-engines", "--args", "4",
         "--check-ir=off"]
    )
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines
    for line in lines:  # one per value the call produced
        assert line.startswith(f"{NQUEENS}: dynamic-stamp: {call!r} produced ")
        assert line.endswith(" outside its declared stamp i64[-1]")


def test_dynamic_stamps_run_as_deep_as_the_call_depth_limit(tmp_path, capsys):
    path = tmp_path / "deep.mini"
    path.write_text(
        "fn rec(n: int) -> int {\n"
        "  if (n <= 0) { return 0; }\n"
        "  return 1 + rec(n - 1);\n"
        "}\n"
    )
    # rec(n) nests n + 1 frames: the deepest run the limit allows, on
    # every engine of the oracle.
    code = main(
        ["check", str(path), "--entry", "rec", "--diff-engines",
         "--check-ir=off", "--args", str(MAX_CALL_DEPTH - 1)]
    )
    assert code == 0
    assert capsys.readouterr().err == ""


def test_diff_engines_compiles_each_configuration_once(tmp_path, capsys):
    # The oracle reuses the file's checked artifact: one dbds and one
    # baseline compile per function, both from one profiling run.
    trace = tmp_path / "t.jsonl"
    code = main(
        ["check", str(NQUEENS), "--diff-engines", "--args", "4",
         "--check-ir=off", "--trace-out", str(trace)]
    )
    assert code == 0, capsys.readouterr().err
    events = read_jsonl(trace)
    spans = Counter(
        (event.attrs["config"], event.attrs["function"])
        for event in events
        if event.kind == "span" and event.name == "compile"
    )
    functions = {function for _, function in spans}
    assert functions == {"conflicts", "main", "place"}
    assert spans == Counter(
        (config, function)
        for config in ("dbds", "baseline")
        for function in functions
    )
    assert sum(event.name == "interp.profile" for event in events) == 1


def test_check_fuzz(capsys):
    code = main(
        ["check", str(NQUEENS), "--args", "4", "--fuzz", "2", "--seed", "11"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fuzz: ok — 2 programs" in out


def test_fuzz_holds_generated_programs_to_every_engine(monkeypatch, capsys):
    # A fault planted in megaunit's metered runs: --fuzz runs every
    # fuzzed program on every engine, so each generated one reports it.
    run = MegaunitVirtualMachine.run

    def one_cycle_more(self, function, args):
        result = run(self, function, args)
        if not self.metered:
            return result
        return ExecutionResult(
            result.value, result.trap, result.steps, result.cycles + 1
        )

    monkeypatch.setattr(MegaunitVirtualMachine, "run", one_cycle_more)
    code = main(
        ["check", str(NQUEENS), "--args", "4", "--check-ir=off",
         "--fuzz", "4", "--seed", "0"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "fuzz: FAILED — 4 programs" in captured.out
    for seed in (0, 2):
        name = f"fuzz seed {seed} [generated]"
        reported = [
            line for line in captured.err.splitlines()
            if line.startswith(f"{name}: engine-diff: main(")
        ]
        assert len(reported) == len(FUZZ_ARGS), captured.err
        assert all(" but megaunit -> " in line for line in reported)


def test_verify_bytecode_checks_a_warm_translation(tmp_path, capsys):
    # The cache stores programs, not bytecode: a hit's translation is
    # made afresh, and verified as a cold one is.
    argv = [
        "check", str(NQUEENS), "--args", "4", "--check-ir=off",
        "--verify-bytecode", "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(argv) == 0
    out = tmp_path / "metrics.json"
    assert main([*argv, "--metrics-out", str(out)]) == 0
    counters = json.loads(out.read_text())["counters"]
    assert counters["repro_cache_lookups_total"] == {"result=hit": 1}
    assert counters["repro_bcverify_runs_total"] == {"result=ok": 1}


def test_verify_bytecode_reports_a_sabotaged_stream(monkeypatch, capsys):
    import repro.vm.translate as translate

    real = translate.BytecodeProgram

    def sabotage(functions, globals_init):
        fn = functions["main"]
        ins = fn.code[0]
        fn.code = (ins[:1] + (-1,) + ins[2:],) + fn.code[1:]
        return real(functions, globals_init)

    monkeypatch.setattr(translate, "BytecodeProgram", sabotage)
    argv = ["check", str(NQUEENS), "--args", "4", "--check-ir=off"]
    assert main([*argv, "--verify-bytecode"]) == 1
    captured = capsys.readouterr()
    assert "failure(s)" in captured.out
    # One bad stream, one failure: the codegen lint of the functions
    # generated from the same tables waits for a well-formed program.
    lines = [line for line in captured.err.splitlines() if "error[" in line]
    assert lines == [
        f"{NQUEENS}: error[bc-structure] main: pc 0: negative cycle cost -1"
    ]
    # Without the verifier nothing reads the stream.
    assert main(argv) == 0


def test_run_accepts_check_ir(capsys):
    code = main(
        ["run", str(NQUEENS), "--args", "5", "--check-ir=each-phase"]
    )
    assert code == 0
    assert "result" in capsys.readouterr().out


def test_compile_accepts_check_ir(capsys):
    code = main(
        ["compile", str(NQUEENS), "--check-ir=boundaries", "--keep-going"]
    )
    assert code == 0
