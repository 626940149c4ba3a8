"""User errors at the CLI's front door: one located line, exit 2.

A source file that cannot be read or compiled, an unknown ``--entry``
or ``--function``, a wrong ``--args`` count and an output file that
cannot be written are the user's mistakes, not crashes: each prints
exactly one ``repro: error: ...`` line on stderr (a compile error
located as ``file:line:col``) and exits 2, on ``run`` and on every
other verb that reads a source or writes an output.  A program that
traps still exits 1; one that exhausts its step limit prints one line
naming the limit and exits 3.  Any other exception is a bug in
``repro``: one ``repro: internal error: ...`` line, the traceback, exit 4.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.__main__ import (
    EXIT_INTERNAL,
    EXIT_LIMIT,
    EXIT_USER_ERROR,
    int64,
    main,
)
from repro.bench import harness
from repro.bench.workloads.suites import MICRO
from repro.interp.interpreter import ExecutionResult
from repro.interp.profile import profile_program
from repro.ir.ops import MAX_ARRAY_LENGTH
from repro.pipeline import compiler

from tests.helpers import fresh_python

PROGRAM = """
fn twice(x: int) -> int { return 2 * x; }
fn main(n: int) -> int { return twice(n); }
"""

#: name -> (source text or None for a missing file, extra argv,
#: expected stderr after "repro: error: " with {path} for the file)
CASES = {
    "missing file": (
        None, ["--args", "3"],
        "cannot read {path}: No such file or directory",
    ),
    "unknown entry": (
        PROGRAM, ["--entry", "nope", "--args", "3"],
        "{path}: no function 'nope' to run (defined: twice, main)",
    ),
    "too many args": (
        PROGRAM, ["--args", "3", "4"],
        "{path}: main takes 1 argument(s), --args gave 2",
    ),
    "no args": (
        PROGRAM, ["--args"],
        "{path}: main takes 1 argument(s), --args gave 0",
    ),
    "entry arity": (
        PROGRAM, ["--entry", "twice", "--args"],
        "{path}: twice takes 1 argument(s), --args gave 0",
    ),
    "syntax error": (
        "fn main(n: int) -> int {\n  return n +;\n}\n", ["--args", "3"],
        "{path}:2:13: expected expression, found ';'",
    ),
    "bad character": (
        "fn main(n: int) -> int {\n  return n @ 2;\n}\n", ["--args", "3"],
        "{path}:2:12: unexpected character '@'",
    ),
    "undefined variable": (
        "fn main(n: int) -> int {\n  m = 1;\n  return n;\n}\n", ["--args", "3"],
        "{path}:2: undefined variable 'm'",
    ),
    # Literals are ASCII decimal digits and identifiers ASCII letters,
    # digits and "_" (docs/LANGUAGE.md): other Unicode digits and
    # letters are characters the language does not have.
    "superscript digit": (
        "fn main(n: int) -> int {\n  return \u00b2;\n}\n", ["--args", "3"],
        "{path}:2:10: unexpected character '\u00b2'",
    ),
    "non-ASCII identifier": (
        "fn main(n: int) -> int {\n  var \u00e9: int = 3;\n  return n;\n}\n",
        ["--args", "3"],
        "{path}:2:7: unexpected character '\u00e9'",
    ),
    "Arabic-Indic digits": (
        "fn main(n: int) -> int {\n  return \u0661\u0662;\n}\n", ["--args", "3"],
        "{path}:2:10: unexpected character '\u0661'",
    ),
}


@pytest.mark.parametrize("engine", ["megaunit", "reference"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_user_error_is_one_located_line(case, engine, tmp_path, capsys):
    text, extra, expected = CASES[case]
    path = tmp_path / "prog.mini"
    if text is not None:
        path.write_text(text)
    code = main(["run", str(path), *extra, "--engine", engine])
    captured = capsys.readouterr()
    assert code == EXIT_USER_ERROR == 2
    assert captured.out == ""
    assert captured.err == f"repro: error: {expected.format(path=path)}\n"


SYNTAX_ERROR = CASES["syntax error"]

#: (verb, case) -> (source text or None for a missing file, argv after
#: the path, expected stderr after "repro: error: ")
VERB_CASES = {
    **{
        (verb, "missing file"): (
            None, [], "cannot read {path}: No such file or directory",
        )
        for verb in ("compile", "explain", "check", "profile", "batch")
    },
    **{
        (verb, "syntax error"): (SYNTAX_ERROR[0], [], SYNTAX_ERROR[2])
        for verb in ("compile", "explain", "check", "profile")
    },
    ("explain", "unknown entry"): (
        PROGRAM, ["--entry", "nosuch", "--args", "4"],
        "{path}: no function 'nosuch' to run (defined: twice, main)",
    ),
    ("explain", "profile arity"): (
        PROGRAM, ["--args", "4", "5"],
        "{path}: main takes 1 argument(s), --args gave 2",
    ),
    ("explain", "unknown function"): (
        PROGRAM, ["--args", "4", "--function", "nosuch"],
        "{path}: no function 'nosuch' to explain (defined: twice, main)",
    ),
}


@pytest.mark.parametrize(
    "verb, case",
    sorted(VERB_CASES),
    ids=[f"{verb}-{case}" for verb, case in sorted(VERB_CASES)],
)
def test_other_verbs_report_one_located_line(verb, case, tmp_path, capsys):
    text, extra, expected = VERB_CASES[verb, case]
    path = tmp_path / "prog.mini"
    if text is not None:
        path.write_text(text)
    code = main([verb, str(path), *extra])
    captured = capsys.readouterr()
    assert code == EXIT_USER_ERROR
    assert captured.out == ""
    assert captured.err == f"repro: error: {expected.format(path=path)}\n"


#: name -> (argv with {dir} for an empty directory, expected stderr
#: after "repro: error: ")
NOTHING_FOUND_CASES = {
    "workload, unknown name": (
        ["workload", "--suite", "micro", "--name", "nope"],
        "unknown benchmark 'nope' in suite micro; choose from "
        + ", ".join(MICRO.benchmark_names),
    ),
    "batch, no sources": (["batch", "{dir}"], "no .mini sources found in {dir}"),
    "check, no sources": (["check", "{dir}"], "no .mini sources found in {dir}"),
}


@pytest.mark.parametrize("case", sorted(NOTHING_FOUND_CASES))
def test_naming_nothing_is_a_user_error(case, tmp_path, capsys):
    # A mistyped name or path must neither exit like a trap (1) nor
    # pass silently (check: "0 file(s) ... ok", exit 0).
    argv, expected = NOTHING_FOUND_CASES[case]
    code = main([arg.format(dir=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == EXIT_USER_ERROR
    assert captured.out == ""
    assert captured.err == f"repro: error: {expected.format(dir=tmp_path)}\n"


@pytest.mark.parametrize(
    "verb, flag, value",
    [
        ("run", "--args", "99999999999999999999999"),
        ("explain", "--args", str(-(2**63) - 1)),
    ],
)
def test_an_out_of_range_program_argument_is_a_usage_error(
    verb, flag, value, tmp_path, capsys
):
    # A MiniLang int is signed 64-bit: a wider argument must stop at the
    # front door instead of reaching an engine (an OverflowError, exit 4).
    path = tmp_path / "prog.mini"
    path.write_text(PROGRAM)
    with pytest.raises(SystemExit) as exc:
        main([verb, str(path), flag, value])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USER_ERROR
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"repro {verb}: error: argument {flag}: {value} is out of the "
        "signed 64-bit range"
    )
    assert "Traceback" not in captured.err
    # The range's own ends are accepted.
    assert int64(str(2**63 - 1)) == 2**63 - 1
    assert int64(str(-(2**63))) == -(2**63)


#: (verb, flag, out-of-range value) -> (argv after the verb with {path}
#: for a valid source, the bound the message names)
OUT_OF_RANGE_OPTIONS = {
    ("profile", "--top", "-1"): (["{path}", "--args", "1", "--top"], ">= 1"),
    ("batch", "-j/--jobs", "-2"): (["{path}", "--no-cache", "-j"], ">= 1"),
    ("check", "--fuzz", "-1"): (["{path}", "--args", "3", "--fuzz"], ">= 0"),
    **{
        ("check", "--time-budget", value): (
            ["{path}", "--args", "3", "--fuzz", "2", "--time-budget"], "> 0",
        )
        for value in ("-1", "nan")
    },
}


@pytest.mark.parametrize(
    "verb, flag, value",
    sorted(OUT_OF_RANGE_OPTIONS),
    ids=[" ".join(key) for key in sorted(OUT_OF_RANGE_OPTIONS)],
)
def test_an_out_of_range_option_is_a_usage_error(
    verb, flag, value, tmp_path, capsys
):
    # Not a silently different run: --top -1 dropped each table's last
    # row, -j -2 ran one job and --time-budget -1 passed having checked
    # nothing (nan never stopped).
    argv, bound = OUT_OF_RANGE_OPTIONS[verb, flag, value]
    path = tmp_path / "prog.mini"
    path.write_text(PROGRAM)
    with pytest.raises(SystemExit) as exc:
        main([verb, *[arg.format(path=path) for arg in argv], value])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USER_ERROR
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"repro {verb}: error: argument {flag}: {value} is out of range "
        f"(must be {bound})"
    )


def test_user_error_exit_status_from_a_fresh_process(tmp_path):
    proc = fresh_python(
        "-m", "repro", "run", str(tmp_path / "missing.mini"), check=False
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("repro: error: cannot read ")
    assert "Traceback" not in proc.stderr


def test_a_trap_still_exits_1(tmp_path, capsys):
    path = tmp_path / "trap.mini"
    path.write_text("fn main(n: int) -> int { return 10 / n; }\n")
    code = main(["run", str(path), "--args", "0"])
    assert code == 1
    assert capsys.readouterr().err == "trap: division by zero\n"


def test_an_out_of_bounds_trap_exits_1(tmp_path, capsys):
    path = tmp_path / "trap.mini"
    path.write_text(
        "fn main(n: int) -> int {\n"
        "  var a: int[] = new int[n];\n"
        "  return a[n];\n"
        "}\n"
    )
    code = main(["run", str(path), "--args", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("trap: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("engine", ["megaunit", "vm", "reference"])
def test_an_unallocatable_array_length_traps(engine, tmp_path, capsys):
    # Past MAX_ARRAY_LENGTH, new int[n] traps like a negative length on
    # every engine: no MemoryError traceback, exit 1 (not 4).
    path = tmp_path / "alloc.mini"
    path.write_text(
        "fn main(n: int) -> int {\n"
        "  var a: int[] = new int[n];\n"
        "  return len(a);\n"
        "}\n"
    )
    n = 2**63 - 1
    code = main(["run", str(path), "--args", str(n), "--engine", engine])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        f"trap: array length {n} exceeds the maximum {MAX_ARRAY_LENGTH}\n"
    )


def _failing_compile(self, program):
    raise RuntimeError("boom")


def _trapping_run(program, entry, arg_sets, **options):
    return 0.0, [ExecutionResult(trap="division by zero")]


#: name -> (object, attribute, replacement, argv with {path} for a
#: valid source, expected first stderr line after "repro: internal
#: error: ")
INTERNAL_CASES = {
    "run, compile raises": (
        compiler.Compiler, "compile_program", _failing_compile,
        ["run", "{path}", "--args", "3"], "RuntimeError: boom",
    ),
    "bench, a workload traps": (
        harness, "measure_performance", _trapping_run,
        ["bench", "--suite", "recursion"],
        "RuntimeError: recursion/ackers trapped under baseline: "
        "division by zero",
    ),
}


@pytest.mark.parametrize("case", sorted(INTERNAL_CASES))
def test_internal_error_exits_4_with_a_traceback(
    case, tmp_path, monkeypatch, capsys
):
    target, attr, replacement, argv, expected = INTERNAL_CASES[case]
    monkeypatch.setattr(target, attr, replacement)
    path = tmp_path / "ok.mini"
    path.write_text(PROGRAM)
    code = main([arg.format(path=path) for arg in argv])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL == 4
    lines = captured.err.splitlines()
    assert lines[0] == f"repro: internal error: {expected}"
    assert lines[1] == "Traceback (most recent call last):"
    assert lines[-1] == expected


@pytest.mark.parametrize("verb", ["run", "profile"])
def test_exhausted_step_limit_exits_3(verb, tmp_path, monkeypatch, capsys):
    path = tmp_path / "forever.mini"
    path.write_text(
        "fn main(n: int) -> int {\n"
        "  var i: int = n;\n"
        "  while (i >= 0) { i = i + 1; }\n"
        "  return i;\n"
        "}\n"
    )
    # The profiling run hits the limit first; a lower one keeps it quick.
    monkeypatch.setattr(
        compiler, "profile_program",
        functools.partial(profile_program, max_steps=20_000),
    )
    code = main([verb, str(path), "--args", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_LIMIT == 3
    assert captured.out == ""
    assert captured.err == (
        "repro: error: step limit: exceeded 20000 interpreter steps\n"
    )


#: (verb, output flag) -> argv after the verb, with {path} for a valid
#: source file and {out} for an output path in a missing directory;
#: every verb runs to completion, then fails to write its output
OUTPUT_CASES = {
    ("run", "--trace-out"): ["{path}", "--args", "3", "--trace-out", "{out}"],
    ("run", "--metrics-out"): ["{path}", "--args", "3", "--metrics-out", "{out}"],
    ("compile", "--trace-out"): ["{path}", "--trace-out", "{out}"],
    ("check", "--metrics-out"): ["{path}", "--args", "3", "--metrics-out", "{out}"],
    ("batch", "--trace-out"): [
        "{path}", "-j", "1", "--no-cache", "--args", "3", "--trace-out", "{out}",
    ],
    ("batch", "--metrics-out"): [
        "{path}", "-j", "1", "--no-cache", "--args", "3", "--metrics-out", "{out}",
    ],
    ("bench", "--trace-out"): ["--suite", "recursion", "--trace-out", "{out}"],
    ("bench", "--engine-report"): [
        "--suite", "recursion", "--engine-report", "{out}",
    ],
    ("profile", "--collapsed"): ["{path}", "--args", "3", "--collapsed", "{out}"],
    ("profile", "--json"): ["{path}", "--args", "3", "--json", "{out}"],
    ("check", "--bc-report"): ["{path}", "--args", "3", "--bc-report", "{out}"],
}


@pytest.mark.parametrize(
    "verb, flag",
    sorted(OUTPUT_CASES),
    ids=[f"{verb}{flag}" for verb, flag in sorted(OUTPUT_CASES)],
)
def test_unwritable_output_is_a_user_error(verb, flag, tmp_path, capsys):
    path = tmp_path / "prog.mini"
    path.write_text(PROGRAM)
    out = tmp_path / "missing" / "out.txt"
    argv = [arg.format(path=path, out=out) for arg in OUTPUT_CASES[verb, flag]]
    code = main([verb, *argv])
    captured = capsys.readouterr()
    assert code == EXIT_USER_ERROR
    assert captured.err.splitlines()[-1] == (
        f"repro: error: cannot write {out}: No such file or directory"
    )
    assert "Traceback" not in captured.err


def test_missing_regression_baseline_is_refused_before_the_suite_runs(
    tmp_path, capsys
):
    # Not "regression check: ok" against an empty history.
    path = tmp_path / "missing.json"
    code = main(["bench", "--suite", "recursion", "--check-regression", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_USER_ERROR
    assert captured.out == ""
    assert captured.err == (
        f"repro: error: cannot read {path}: No such file or directory\n"
    )
    assert not path.exists()


def test_unsupported_trajectory_is_refused_before_the_suite_runs(
    tmp_path, capsys
):
    path = tmp_path / "trajectory.json"
    path.write_text(json.dumps({"schema": 99, "entries": []}))
    code = main(["bench", "--suite", "recursion", "--check-regression", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_USER_ERROR
    # Nothing printed: the suite never ran.
    assert captured.out == ""
    assert captured.err == (
        f"repro: error: {path}: unsupported trajectory schema 99 (expected 1)\n"
    )
