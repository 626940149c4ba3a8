"""Tests for compile-profile aggregation over real compilations."""

from collections import Counter

import pytest

from repro.frontend.irbuilder import compile_source
from repro.obs import (
    CompileProfile,
    MetricsSnapshot,
    Tracer,
    read_jsonl,
    use_tracer,
    write_jsonl,
)
from repro.obs.tracer import NULL_TRACER
from repro.pipeline.compiler import Compiler
from repro.pipeline.config import CONFIGURATIONS, DBDS

SOURCE = """
fn helper(x: int) -> int {
  var p: int;
  if (x > 0) { p = x; } else { p = 0; }
  return 2 + p;
}
fn main(n: int) -> int {
  var acc: int = 0;
  var i: int = 0;
  while (i < n) { acc = acc + helper(i - 3); i = i + 1; }
  return acc;
}
"""

PIPELINE_PHASES = {
    "inlining",
    "canonicalize",
    "global-value-numbering",
    "loop-invariant-code-motion",
    "conditional-elimination",
    "read-elimination",
    "partial-escape-analysis",
    "dbds",
}


@pytest.fixture(scope="module")
def traced_compile():
    tracer = Tracer()
    program = compile_source(SOURCE)
    report = Compiler(DBDS, tracer=tracer).compile_program(program)
    return tracer, report


class TestCompileProfile:
    def test_every_pipeline_phase_profiled(self, traced_compile):
        tracer, _ = traced_compile
        profile = CompileProfile.from_events(tracer.events)
        assert PIPELINE_PHASES <= set(profile.phases)
        for phase in PIPELINE_PHASES:
            stat = profile.phases[phase]
            assert stat.count > 0
            assert stat.total >= 0.0
            assert stat.max_dur <= stat.total + 1e-12

    def test_functions_and_total(self, traced_compile):
        tracer, report = traced_compile
        profile = CompileProfile.from_events(tracer.events)
        assert set(profile.functions) == {"helper", "main"}
        assert profile.total_time > 0.0
        # Total compile time (inside spans) is close to the report's.
        assert profile.total_time == pytest.approx(
            report.total_compile_time, rel=0.5
        )

    def test_decision_breakdown_matches_counters(self, traced_compile):
        """The profile and the metrics fold the same decision events."""
        tracer, report = traced_compile
        profile = CompileProfile.from_events(tracer.events)
        snap = MetricsSnapshot.from_events(tracer.events)
        decisions = "repro_dbds_decisions_total"
        assert profile.accepted == snap.counter_value(decisions, outcome="accepted")
        assert profile.rejected == snap.counter_value(
            decisions, outcome="rejected"
        ) + snap.counter_value(decisions, outcome="invalidated")
        assert profile.accepted == report.total_duplications > 0

    def test_applied_counters_surface(self, traced_compile):
        tracer, _ = traced_compile
        profile = CompileProfile.from_events(tracer.events)
        assert profile.applied  # at least one optimization attributed
        assert all(count > 0 for count in profile.applied.values())

    def test_survives_jsonl_round_trip(self, traced_compile, tmp_path):
        tracer, _ = traced_compile
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer.events, path)
        rebuilt = CompileProfile.from_events(read_jsonl(path))
        direct = CompileProfile.from_events(tracer.events)
        assert rebuilt.to_json() == direct.to_json()

    def test_format_mentions_phases_and_decisions(self, traced_compile):
        tracer, _ = traced_compile
        text = CompileProfile.from_events(tracer.events).format()
        assert "dbds" in text and "canonicalize" in text
        assert "decisions" in text

    def test_hottest_phases_sorted(self, traced_compile):
        tracer, _ = traced_compile
        profile = CompileProfile.from_events(tracer.events)
        totals = [s.total for s in profile.hottest_phases(20)]
        assert totals == sorted(totals, reverse=True)


class TestMetricsWiring:
    def test_unit_metrics_from_counters(self, traced_compile):
        """The metric counters folded from the trace tally what the
        units report."""
        tracer, report = traced_compile
        snap = MetricsSnapshot.from_events(tracer.events)
        assert sum(u.candidates for u in report.units) == snap.counter_value(
            "repro_dbds_candidates_total"
        )
        assert sum(u.duplications for u in report.units) == snap.counter_value(
            "repro_dbds_duplications_total"
        )

    def test_untraced_compiler_metrics_identical(self, traced_compile):
        _, traced_report = traced_compile
        program = compile_source(SOURCE)
        plain_report = Compiler(DBDS).compile_program(program)
        for traced_unit, plain_unit in zip(traced_report.units, plain_report.units):
            assert traced_unit.candidates == plain_unit.candidates
            assert traced_unit.duplications == plain_unit.duplications
            assert traced_unit.code_size == plain_unit.code_size

    @pytest.mark.parametrize("config", sorted(CONFIGURATIONS))
    def test_every_config_counts_alike_untraced_and_traced(self, config):
        """The counts come from the phases, not from the tracer."""
        counts = []
        for tracer in (NULL_TRACER, Tracer()):
            with use_tracer(tracer):
                report = Compiler(CONFIGURATIONS[config]).compile_program(
                    compile_source(SOURCE)
                )
            counts.append(
                [(u.function, u.candidates, u.duplications) for u in report.units]
            )
        assert counts[0] == counts[1]

    def test_backtracking_duplications_counted(self):
        program = compile_source(SOURCE)
        tracer = Tracer()
        report = Compiler(
            CONFIGURATIONS["backtracking"], tracer=tracer
        ).compile_program(program)
        snap = MetricsSnapshot.from_events(tracer.events)
        assert report.total_duplications == snap.counter_value(
            "repro_dbds_backtrack_total", outcome="kept"
        )
        assert snap.counter_value("repro_dbds_duplications_total") == 0
        phases = {e.attrs.get("phase") for e in tracer.spans("phase")}
        assert "backtracking-duplication" in phases

    def test_a_backtracking_run_cut_short_keeps_its_tallies(self, monkeypatch):
        from repro.dbds.backtracking import BacktrackingDuplication

        attempts = []
        optimize = BacktrackingDuplication._optimizations_triggered

        def triggered(self, graph):
            attempts.append(graph)
            if len(attempts) > 1:
                raise RuntimeError("boom")
            return optimize(self, graph)  # this program: a kept pair

        monkeypatch.setattr(
            BacktrackingDuplication, "_optimizations_triggered", triggered
        )
        program = compile_source(
            "fn main(n: int) -> int {\n"
            "  var p: int;\n"
            "  if (n > 0) { p = n; } else { p = 0; }\n"
            "  var q: int;\n"
            "  if (p > 2) { q = p; } else { q = 1; }\n"
            "  return p + q;\n"
            "}\n"
        )
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            Compiler(
                CONFIGURATIONS["backtracking"], tracer=tracer
            ).compile_program(program)
        assert len(attempts) == 2  # the second attempt of the one unit
        snap = MetricsSnapshot.from_events(tracer.events)
        assert snap.counter_value("repro_dbds_backtrack_total", outcome="kept") == 1


@pytest.mark.parametrize("config", ["dbds", "dupalot", "path-dbds"])
def test_applied_tallies_the_reasons_of_every_duplicated_candidate(
    config, monkeypatch
):
    """A batch's profile counts, per optimization, exactly the reasons
    of the candidates the phase duplicated, over the micro suite."""
    from repro.bench.workloads.suites import ALL_SUITES, generate_suite
    from repro.dbds.phase import DbdsPhase
    from repro.pipeline.batch import BatchOptions, compile_batch

    received = []
    duplicate = DbdsPhase._duplicate

    def capture(graph, candidate, *rest):
        received.extend(candidate.reasons)
        return duplicate(graph, candidate, *rest)

    monkeypatch.setattr(DbdsPhase, "_duplicate", staticmethod(capture))
    suite = ALL_SUITES["micro"]
    tracer = Tracer()
    report = compile_batch(
        [(w.name, w.source) for w in generate_suite(suite, seed=0)],
        BatchOptions(
            config=CONFIGURATIONS[config], jobs=1,
            args=(suite.profile_iterations,),
        ),
        tracer=tracer,
    )
    assert report.ok and received
    profile = CompileProfile.from_events(tracer.events)
    assert profile.applied == dict(Counter(received))
