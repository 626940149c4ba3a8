"""Phase-guard tests: blame the phase that broke the IR."""

from __future__ import annotations

import pytest

from repro.analysis import PhaseBlameError, PhaseGuard, use_guard
from repro.analysis.blame import CHANGE_LOG_CHECK, CHECK_BOUNDARIES
from repro.ir import ArithOp, BinOp
from repro.ir.stamps import IntStamp
from repro.obs.metrics import MetricsSnapshot
from repro.obs.sinks import event_to_dict, validate_record
from repro.obs.tracer import Tracer, use_tracer
from repro.opts.base import Phase
from repro.opts.canonicalize import CanonicalizerPhase


class BadProbabilityPhase(Phase):
    """A phase that silently corrupts the entry If's probability."""

    name = "bad-probability"

    def run(self, graph):
        graph.entry.terminator.true_probability = 3.0


class BadPhiPhase(Phase):
    name = "bad-phi"

    def run(self, graph):
        for block in graph.blocks:
            for phi in block.phis:
                phi._remove_input_at(0)
                return


class UnloggedAppendPhase(Phase):
    """A phase that appends an instruction by hand, bypassing
    ``Block.append`` and so the change log."""

    name = "unlogged-append"

    def run(self, graph):
        x = graph.parameters[0]
        ins = ArithOp(BinOp.MUL, x, x)
        ins.block = graph.entry
        graph.entry.instructions.append(ins)


class LoggedAppendPhase(Phase):
    name = "logged-append"

    def run(self, graph):
        x = graph.parameters[0]
        graph.entry.append(ArithOp(BinOp.MUL, x, x))


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown check mode"):
        PhaseGuard("bogus")


def test_clean_phase_passes_under_guard(diamond):
    guard = PhaseGuard("each-phase")
    tracer = Tracer()
    with use_tracer(tracer), use_guard(guard):
        CanonicalizerPhase().run(diamond["graph"])
    assert not guard.failures
    checks = [s for s in tracer.spans("phase") if s.attrs["phase"] == "ir-check"]
    assert len(checks) >= 1


def test_bad_phase_is_blamed_with_checker_and_diff(diamond):
    with use_guard(PhaseGuard("each-phase")):
        with pytest.raises(PhaseBlameError) as info:
            BadProbabilityPhase().run(diamond["graph"])
    error = info.value
    assert error.phase == "bad-probability"
    assert error.graph == "foo"
    assert error.checkers == ["block-structure"]
    blame = error.format_blame()
    assert "phase 'bad-probability' broke" in blame
    assert "error[block-structure]" in blame
    assert "IR before/after the blamed phase:" in blame
    assert "+" in error.diff and "-" in error.diff  # a real unified diff


def test_bad_phi_phase_blames_phi_inputs(diamond):
    with use_guard(PhaseGuard("each-phase")):
        with pytest.raises(PhaseBlameError) as info:
            BadPhiPhase().run(diamond["graph"])
    assert info.value.checkers == ["phi-inputs"]


CORRUPTIONS = [
    (
        "block-structure",
        lambda d: setattr(d["graph"].entry.terminator, "true_probability", 9.0),
    ),
    ("phi-inputs", lambda d: d["phi"]._remove_input_at(0)),
    ("use-lists", lambda d: d["phi"].uses.clear()),
    ("stamp-soundness", lambda d: setattr(d["add"], "stamp", IntStamp(0, 1))),
]


@pytest.mark.parametrize(
    "expected,corrupt", CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS]
)
def test_each_corruption_is_blamed_on_the_corrupting_phase(
    diamond, expected, corrupt
):
    class CorruptingPhase(Phase):
        name = "corruptor"

        def run(self, graph):
            corrupt(diamond)

    with use_guard(PhaseGuard("each-phase")):
        with pytest.raises(PhaseBlameError) as info:
            CorruptingPhase().run(diamond["graph"])
    assert info.value.phase == "corruptor"
    assert info.value.checkers == [expected]
    assert "phase 'corruptor' broke" in info.value.format_blame()


def test_keep_going_collects_instead_of_raising(diamond):
    guard = PhaseGuard("each-phase", fail_fast=False)
    with use_guard(guard):
        BadProbabilityPhase().run(diamond["graph"])
        # Compilation continues; the next phase re-detects the damage.
        CanonicalizerPhase().run(diamond["graph"])
    assert len(guard.failures) >= 2
    assert guard.failures[0].phase == "bad-probability"
    assert guard.failures[1].phase == "canonicalize"


def test_boundaries_mode_skips_phases_but_checks_boundaries(diamond):
    guard = PhaseGuard(CHECK_BOUNDARIES, fail_fast=False)
    with use_guard(guard):
        BadProbabilityPhase().run(diamond["graph"])
    assert not guard.failures  # phases are not bracketed in this mode
    guard.check_boundary("pipeline-exit", diamond["graph"])
    assert [f.phase for f in guard.failures] == ["pipeline-exit"]


def test_guard_emits_structured_events_and_profile_span(diamond):
    tracer = Tracer()
    guard = PhaseGuard("each-phase", fail_fast=False)
    with use_tracer(tracer), use_guard(guard):
        BadProbabilityPhase().run(diamond["graph"])
    names = [e.name for e in tracer.events]
    assert "analysis.violation" in names
    assert "analysis.blame" in names
    assert names.count("analysis.blame") == 1
    violation = next(e for e in tracer.events if e.name == "analysis.violation")
    assert violation.attrs["checker"] == "block-structure"
    # The check cost shows up as its own phase span for --profile-compile.
    assert any(
        e.name == "phase" and e.attrs.get("phase") == "ir-check"
        for e in tracer.events
        if e.kind == "span"
    )
    # Every emitted record satisfies the trace schema.
    for event in tracer.events:
        assert validate_record(event_to_dict(event)) == []
    blame = next(e for e in tracer.events if e.name == "analysis.blame")
    assert blame.attrs["phase"] == "bad-probability"
    assert blame.attrs["checkers"] == ["block-structure"]


def test_an_unlogged_edit_is_blamed_on_its_phase(diamond):
    with use_guard(PhaseGuard("each-phase")):
        with pytest.raises(PhaseBlameError) as info:
            UnloggedAppendPhase().run(diamond["graph"])
    error = info.value
    assert error.phase == "unlogged-append"
    assert error.checkers == [CHANGE_LOG_CHECK]
    assert "changed the graph without logging it" in error.format_blame()
    assert "+  v" in error.diff  # the appended instruction


def test_the_change_log_violation_is_one_counted_event(diamond):
    guard = PhaseGuard("each-phase", fail_fast=False)
    tracer = Tracer()
    with use_tracer(tracer), use_guard(guard):
        UnloggedAppendPhase().run(diamond["graph"])
    assert guard.failures[0].checkers == [CHANGE_LOG_CHECK]
    violations = [e for e in tracer.events if e.name == "analysis.violation"]
    assert [e.attrs["checker"] for e in violations] == [CHANGE_LOG_CHECK]
    assert [e.name for e in tracer.events if e.name.startswith("analysis.")] == [
        "analysis.violation",
        "analysis.blame",
    ]
    metrics = MetricsSnapshot.from_events(tracer.events)
    assert metrics.counter_value("repro_analysis_violations_total", severity="error") == 1


def test_the_same_edit_through_the_ir_passes(diamond):
    guard = PhaseGuard("each-phase")
    with use_guard(guard):
        LoggedAppendPhase().run(diamond["graph"])
    assert not guard.failures
