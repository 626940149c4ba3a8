"""CLI tests for the ``repro check`` verb and the --check-ir flags."""

from __future__ import annotations

import pathlib

from repro.__main__ import main
from repro.ir.nodes import Call
from repro.ir.ops import MAX_CALL_DEPTH
from repro.ir.stamps import IntStamp

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
    code = main(
        ["check", str(NQUEENS), "--lir", "--dynamic-stamps", "--args", "4"]
    )
    assert code == 0
    assert "ok" in capsys.readouterr().out


def test_dynamic_stamps_reports_a_value_outside_its_stamp(monkeypatch, capsys):
    # Narrow the stamp of the first call left in main (place recurses,
    # so inlining keeps a call): the static sweep cannot refute a call's
    # stamp, the run on the reference interpreter can.
    import repro.__main__ as cli

    jit = cli._jit
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

    monkeypatch.setattr(cli, "_jit", narrowed)
    code = main(
        ["check", str(NQUEENS), "--dynamic-stamps", "--args", "4",
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
    # rec(n) nests n + 1 frames: the deepest run the limit allows.
    code = main(
        ["check", str(path), "--entry", "rec", "--dynamic-stamps",
         "--check-ir=off", "--args", str(MAX_CALL_DEPTH - 1)]
    )
    assert code == 0
    assert capsys.readouterr().err == ""


def test_check_fuzz(capsys):
    code = main(
        ["check", str(NQUEENS), "--args", "4", "--fuzz", "2", "--seed", "11"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "translation validation: ok" in out


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
