"""DBDS candidate and decision events of a full pipeline compile.

``repro explain`` renders exactly these events (tests/test_dbds/
test_explain.py pins it to the trace of ``repro run``).
"""

import pathlib

import pytest

from repro.frontend.irbuilder import compile_source
from repro.obs import Tracer
from repro.pipeline.compiler import Compiler
from repro.pipeline.config import DBDS

APPS = sorted(
    (pathlib.Path(__file__).parent / ".." / ".." / "examples" / "apps").resolve().glob("*.mini")
)

DECISION_FIELDS = ("benefit", "cost", "probability", "accepted", "reason")


@pytest.mark.parametrize("path", APPS, ids=lambda p: p.stem)
def test_full_pipeline_trace_has_phases_and_decisions(path):
    """Acceptance shape: phase spans for every pipeline phase and DBDS
    decision events with the trade-off fields."""
    program = compile_source(path.read_text())
    tracer = Tracer()
    report = Compiler(DBDS, tracer=tracer).compile_program(program)
    phases = {e.attrs.get("phase") for e in tracer.spans("phase")}
    assert {
        "inlining",
        "canonicalize",
        "global-value-numbering",
        "loop-invariant-code-motion",
        "conditional-elimination",
        "read-elimination",
        "partial-escape-analysis",
        "dbds",
    } <= phases
    decisions = tracer.named("dbds.decision")
    assert decisions
    for event in decisions:
        for field in DECISION_FIELDS:
            assert field in event.attrs
    # one event per simulated pair and per decision, as the units count
    candidates = tracer.named("dbds.candidate")
    assert len(candidates) == sum(u.candidates for u in report.units)
    accepted = [e for e in decisions if e.attrs["accepted"]]
    assert len(accepted) == report.total_duplications
