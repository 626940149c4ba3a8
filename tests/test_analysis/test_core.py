"""Framework tests: registry, selection, fail modes, trace events."""

from __future__ import annotations

import pytest

from repro.analysis import (
    CORE_CHECKERS,
    Severity,
    all_checkers,
    checker,
    get_checker,
    run_checkers,
    run_program_checkers,
)
from repro.analysis.core import _REGISTRY
from repro.frontend.irbuilder import compile_source
from repro.obs.tracer import Tracer, use_tracer

from tests.helpers import build_diamond


def test_registry_holds_all_expected_checkers():
    names = [c.name for c in all_checkers()]
    assert names == [
        "block-structure",
        "edge-consistency",
        "phi-inputs",
        "phi-ordering",
        "ssa-dominance",
        "use-lists",
        "stamp-soundness",
        "loop-structure",
        "block-frequency",
        "lir-structure",
        "lir-liveness",
        "lir-allocation",
        "bc-structure",
        "bc-defuse",
        "bc-codegen-lint",
    ]


def test_scope_filtering():
    assert all(c.scope == "ir" for c in all_checkers("ir"))
    assert [c.name for c in all_checkers("lir")] == [
        "lir-structure",
        "lir-liveness",
        "lir-allocation",
    ]
    assert [c.name for c in all_checkers("bc")] == [
        "bc-structure",
        "bc-defuse",
        "bc-codegen-lint",
    ]


def test_get_checker_names_known_checkers_on_miss():
    with pytest.raises(KeyError, match="block-structure"):
        get_checker("no-such-checker")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        checker("block-structure")(lambda ctx: None)
    # A fresh name registers and can be removed again.
    @checker("test-dummy")
    def dummy(ctx):
        pass

    assert get_checker("test-dummy").func is dummy
    del _REGISTRY["test-dummy"]


def test_clean_graph_passes_everything(diamond):
    report = run_checkers(diamond["graph"])
    assert report.ok
    assert not report.violations
    assert list(report.checkers_run) == [c.name for c in all_checkers("ir")]


def test_enable_disable_selection(diamond):
    report = run_checkers(diamond["graph"], checkers=["block-structure"])
    assert report.checkers_run == ["block-structure"]


def test_fail_fast_stops_at_first_erroring_checker(diamond):
    graph = diamond["graph"]
    # Two independent corruptions owned by different checkers.
    graph.entry.terminator.true_probability = 1.5
    diamond["phi"]._remove_input_at(1)
    keep_going = run_checkers(graph, checkers=CORE_CHECKERS)
    assert {v.checker for v in keep_going.errors()} == {
        "block-structure",
        "phi-inputs",
    }
    fast = run_checkers(graph, checkers=CORE_CHECKERS, fail_fast=True)
    assert [v.checker for v in fast.errors()] == ["block-structure"]
    assert fast.checkers_run == ["block-structure"]


def test_report_groups_violations_by_checker(diamond):
    graph = diamond["graph"]
    graph.entry.terminator.true_probability = -0.25
    report = run_checkers(graph)
    grouped = report.by_checker()
    assert set(grouped) == {"block-structure"}
    assert "probability" in report.format()


def test_run_program_checkers_covers_every_function():
    program = compile_source(
        """
        fn helper(x: int) -> int { return x + 1; }
        fn main(n: int) -> int { return helper(n); }
        """
    )
    reports = run_program_checkers(program)
    assert sorted(r.graph for r in reports) == ["helper", "main"]
    assert all(r.ok for r in reports)


def test_checker_crash_becomes_violation(diamond):
    @checker("test-crasher")
    def crasher(ctx):
        raise RuntimeError("boom")

    try:
        report = run_checkers(diamond["graph"], checkers=["test-crasher"])
    finally:
        del _REGISTRY["test-crasher"]
    assert not report.ok
    assert "checker crashed: RuntimeError: boom" in report.violations[0].message


def test_each_violation_is_one_trace_event(diamond):
    tracer = Tracer()
    with use_tracer(tracer):
        run_checkers(diamond["graph"], checkers=["block-structure"])
        assert tracer.events == []  # a clean run records nothing
        diamond["graph"].entry.terminator.true_probability = 7.0
        report = run_checkers(diamond["graph"], checkers=["block-structure"])
    (violation,) = report.violations
    (event,) = tracer.named("analysis.violation")
    assert event.attrs == {
        "graph": violation.graph,
        "checker": "block-structure",
        "severity": "error",
        "block": violation.block,
        "message": violation.message,
    }


def test_warnings_do_not_fail_a_run(diamond):
    @checker("test-warner", severity=Severity.WARNING)
    def warner(ctx):
        ctx.report("just a heads-up")

    try:
        report = run_checkers(diamond["graph"], checkers=["test-warner"])
    finally:
        del _REGISTRY["test-warner"]
    assert report.ok
    assert len(report.warnings()) == 1
