"""Golden-file snapshots of ``repro explain`` DBDS decision reports.

The explain report is the human contract of the trade-off tier: every
decision the compile made, with its round and mode, benefit x
probability, cost, fired optimizations and verdict.  These snapshots pin
it for three real programs so that a cost-model or simulation change
shows up as a reviewable diff, not a silent drift.  Regenerate on
purpose with::

    PYTHONPATH=src python -m pytest tests/test_dbds/test_explain_goldens.py \
        --update-goldens
"""

from __future__ import annotations

import pathlib

import pytest

from repro.__main__ import main

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "goldens"

#: (example file, entry args) — args kept small so the profiling run
#: stays fast while still marking branch probabilities
CASES = [
    ("examples/apps/matrix.mini", "4"),
    ("examples/apps/nqueens.mini", "5"),
    ("examples/apps/wordfreq.mini", "4"),
]


def golden_path(source: str) -> pathlib.Path:
    return GOLDEN_DIR / f"explain_{pathlib.Path(source).stem}.txt"


@pytest.mark.parametrize("source,args", CASES)
def test_explain_matches_golden(source, args, update_goldens, capsys):
    rc = main(["explain", source, "--args", args])
    assert rc == 0
    actual = capsys.readouterr().out
    assert "DBDS decisions for" in actual

    path = golden_path(source)
    if update_goldens:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(actual)
        return
    assert path.exists(), (
        f"golden file {path} missing — run with --update-goldens to create it"
    )
    expected = path.read_text()
    assert actual == expected, (
        f"explain output for {source} drifted from {path}; if the change "
        f"is intentional, regenerate with --update-goldens"
    )
