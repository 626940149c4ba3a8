"""User errors at the CLI's front door: one located line, exit 2.

A source file that cannot be read or compiled, an unknown ``--entry``
or ``--function`` and a wrong ``--args`` count are the user's mistakes,
not crashes: each prints exactly one ``repro: error: ...`` line on
stderr (a compile error located as ``file:line:col``) and exits 2, on
``run`` and on every other verb that reads a source.  A program that
traps still exits 1.
"""

from __future__ import annotations

import pytest

from repro.__main__ import EXIT_USER_ERROR, main

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
        for verb in ("compile", "trace", "explain", "check")
    },
    **{
        (verb, "syntax error"): (SYNTAX_ERROR[0], [], SYNTAX_ERROR[2])
        for verb in ("compile", "trace", "explain", "check")
    },
    ("explain", "unknown entry"): (
        PROGRAM, ["--entry", "nosuch", "--profile-args", "4"],
        "{path}: no function 'nosuch' to run (defined: twice, main)",
    ),
    ("explain", "profile arity"): (
        PROGRAM, ["--profile-args", "4", "5"],
        "{path}: main takes 1 argument(s), --profile-args gave 2",
    ),
    ("explain", "unknown function"): (
        PROGRAM, ["--function", "nosuch"],
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
