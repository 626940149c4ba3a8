"""User errors at ``repro run``'s front door: one located line, exit 2.

A source file that cannot be read or compiled, an unknown ``--entry``
and a wrong ``--args`` count are the user's mistakes, not crashes: each
prints exactly one ``repro: error: ...`` line on stderr (a compile error
located as ``file:line:col``) and exits 2.  A program that traps still
exits 1.
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
