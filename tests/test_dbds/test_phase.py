"""Tests for the three-tier DBDS phase driver."""

import pytest

from repro.analysis.blame import PhaseBlameError, PhaseGuard, use_guard
from repro.dbds import phase, tradeoff
from repro.dbds.phase import DbdsPhase
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import Interpreter
from repro.ir import If, verify_graph, verify_program
from repro.costmodel.estimator import estimated_run_time
from repro.obs.tracer import Tracer, use_tracer
from repro.pipeline.compiler import Compiler
from repro.pipeline.config import DBDS, DUPALOT


OPPORTUNITY_RICH = """
fn f(x: int) -> int {
  var p: int;
  if (x > 0) { p = x; } else { p = 0; }
  var q: int = 2 + p;
  var r: int;
  if (q > 1) { r = q; } else { r = 7; }
  return r * 2;
}
"""


class TestDriver:
    def test_duplications_performed_and_verified(self):
        program = compile_source(OPPORTUNITY_RICH)
        graph = program.function("f")
        with use_guard(PhaseGuard()):
            stats = DbdsPhase(program).run(graph)
        assert stats.duplications_performed > 0
        assert stats.candidates_simulated > 0
        verify_graph(graph)

    def test_semantics_preserved(self):
        program = compile_source(OPPORTUNITY_RICH)
        graph = program.function("f")
        expected = [Interpreter(program).run("f", [k]).value for k in range(-5, 6)]
        with use_guard(PhaseGuard()):
            DbdsPhase(program).run(graph)
        actual = [Interpreter(program).run("f", [k]).value for k in range(-5, 6)]
        assert actual == expected

    def test_estimated_runtime_improves(self):
        program = compile_source(OPPORTUNITY_RICH)
        graph = program.function("f")
        before = estimated_run_time(graph)
        DbdsPhase(program).run(graph)
        assert estimated_run_time(graph) <= before

    def test_iteration_cap_respected(self, monkeypatch):
        monkeypatch.setattr(phase, "MAX_DBDS_ITERATIONS", 1)
        program = compile_source(OPPORTUNITY_RICH)
        graph = program.function("f")
        stats = DbdsPhase(program, DBDS).run(graph)
        assert stats.iterations == 1

    def test_max_three_iterations_default(self):
        program = compile_source(OPPORTUNITY_RICH)
        graph = program.function("f")
        stats = DbdsPhase(program).run(graph)
        assert stats.iterations <= 3

    def test_no_candidates_single_iteration(self):
        program = compile_source("fn f(x: int) -> int { return x + 1; }")
        graph = program.function("f")
        stats = DbdsPhase(program).run(graph)
        assert stats.duplications_performed == 0
        assert stats.iterations == 1

    def test_stats_sizes_recorded(self):
        program = compile_source(OPPORTUNITY_RICH)
        graph = program.function("f")
        stats = DbdsPhase(program).run(graph)
        assert stats.initial_size > 0
        assert stats.final_size > 0


class TestCheckedDuplications:
    def test_each_phase_blames_the_duplication_that_broke_the_ir(
        self, monkeypatch
    ):
        """``--check-ir=each-phase`` checks the IR after every
        duplication, so a broken one is blamed as itself, before the
        phases after it run."""
        duplicate_into = phase.duplicate_into

        def corrupting(graph, pred, merge):
            mapping = duplicate_into(graph, pred, merge)
            branch = next(
                b.terminator for b in graph.blocks if isinstance(b.terminator, If)
            )
            branch.true_probability = 9.0
            return mapping

        monkeypatch.setattr(phase, "duplicate_into", corrupting)
        program = compile_source(OPPORTUNITY_RICH)
        compiler = Compiler(DBDS, check_ir="each-phase")
        with pytest.raises(PhaseBlameError) as info:
            compiler.compile_program(program)
        assert info.value.phase == "dbds-duplication"
        assert info.value.checkers == ["block-structure"]


class TestBudgetEnforcement:
    def test_tiny_unit_cap_blocks_duplication(self, monkeypatch):
        monkeypatch.setattr(tradeoff, "MAX_UNIT_SIZE", 1.0)
        program = compile_source(OPPORTUNITY_RICH)
        graph = program.function("f")
        stats = DbdsPhase(program, DBDS).run(graph)
        assert stats.duplications_performed == 0

    def test_increase_budget_limits_growth(self):
        # Many merges, tight growth budget: final size stays bounded.
        source = "fn f(x: int) -> int {\n  var acc: int = 0;\n"
        for i in range(8):
            source += (
                f"  var p{i}: int;\n"
                f"  if (x > {i}) {{ p{i} = x; }} else {{ p{i} = {i}; }}\n"
                f"  acc = acc + p{i} * 3;\n"
            )
        source += "  return acc;\n}\n"
        program = compile_source(source)
        graph = program.function("f")
        config = DBDS.with_trade_off(increase_budget=1.1)
        stats = DbdsPhase(program, config).run(graph)
        assert stats.final_size < stats.initial_size * 1.3


class TestDupalot:
    def test_dupalot_duplicates_at_least_as_much(self):
        source = OPPORTUNITY_RICH
        p1 = compile_source(source)
        g1 = p1.function("f")
        dbds_stats = DbdsPhase(p1).run(g1)
        p2 = compile_source(source)
        g2 = p2.function("f")
        dup_stats = DbdsPhase(p2, DUPALOT).run(g2)
        assert dup_stats.duplications_performed >= dbds_stats.duplications_performed

    def test_dupalot_ignores_cost(self):
        """A positive-benefit candidate with cost beyond the budget is
        taken by dupalot but rejected by the trade-off tier."""
        # Cold-path opportunity with a fat merge block.
        source = """
fn f(x: int) -> int {
  var p: int;
  var w: int = x;
  if (x % 97 == 0) { p = 0; } else { p = x; }
  w = (w ^ (w >> 3)) + 11;
  w = (w | (w >> 5)) + 13;
  w = (w ^ (w >> 2)) + 17;
  w = (w + (w >> 7)) + 19;
  w = (w ^ (w >> 4)) + 23;
  w = (w | (w >> 6)) + 29;
  return p * 3 + w;
}
"""
        from repro.interp.profile import apply_profile, profile_program

        p1 = compile_source(source)
        collector = profile_program(p1, "f", [[k] for k in range(1, 60)])
        apply_profile(p1, collector)
        g1 = p1.function("f")
        strict = DBDS.with_trade_off(benefit_scale=4.0)
        dbds_stats = DbdsPhase(p1, strict).run(g1)

        p2 = compile_source(source)
        collector = profile_program(p2, "f", [[k] for k in range(1, 60)])
        apply_profile(p2, collector)
        g2 = p2.function("f")
        dup_stats = DbdsPhase(p2, DUPALOT).run(g2)
        assert dup_stats.duplications_performed > dbds_stats.duplications_performed

    def test_dupalot_respects_the_unit_cap(self, monkeypatch):
        """MS binds dupalot as it binds the trade-off tier."""
        monkeypatch.setattr(tradeoff, "MAX_UNIT_SIZE", 1.0)
        program = compile_source(OPPORTUNITY_RICH)
        stats = DbdsPhase(program, DUPALOT).run(program.function("f"))
        assert stats.duplications_performed == 0

    def test_dupalot_semantics(self):
        program = compile_source(OPPORTUNITY_RICH)
        graph = program.function("f")
        expected = [Interpreter(program).run("f", [k]).value for k in range(-5, 6)]
        with use_guard(PhaseGuard()):
            DbdsPhase(program, DUPALOT).run(graph)
        actual = [Interpreter(program).run("f", [k]).value for k in range(-5, 6)]
        assert actual == expected


#: one duplication in the first round, nothing left for the second
ONE_ROUND = """
fn f(x: int) -> int {
  var p: int;
  if (x > 0) { p = 3; } else { p = 5; }
  return p * 2 + 1;
}
"""

#: the passes that follow a round that duplicated
PARTIAL_OPTIMIZATIONS = [
    "canonicalize",
    "global-value-numbering",
    "conditional-elimination",
    "read-elimination",
    "partial-escape-analysis",
    "canonicalize",
]


def _traced_dbds(source: str):
    """Run DBDS on ``f`` under a recording tracer; returns the stats,
    the phases run inside the ``dbds`` span and the rounds that kept a
    duplication."""
    program = compile_source(source)
    tracer = Tracer()
    with use_tracer(tracer):
        stats = DbdsPhase(program).run(program.function("f"))
    events = tracer.events
    start = next(
        i for i, e in enumerate(events)
        if e.name == "phase" and e.attrs["phase"] == "dbds"
    )
    nested = []
    for event in events[start + 1:]:
        if event.kind == "span" and event.depth <= events[start].depth:
            break
        if event.name == "phase":
            nested.append(event.attrs["phase"])
    duplicating = {
        e.attrs["iteration"] for e in events
        if e.name == "dbds.decision" and e.attrs["accepted"]
    }
    return stats, nested, duplicating


class TestEmptyRounds:
    """A round that duplicates nothing ends DBDS: no pass runs after it."""

    def test_no_duplication_runs_no_phase(self):
        stats, nested, duplicating = _traced_dbds(
            "fn f(x: int) -> int { return x + 1; }"
        )
        assert (stats.iterations, stats.duplications_performed) == (1, 0)
        assert nested == [] and duplicating == set()

    def test_empty_round_after_a_duplicating_one_runs_no_phase(self):
        stats, nested, duplicating = _traced_dbds(ONE_ROUND)
        assert stats.iterations == 2 and duplicating == {0}
        assert nested == PARTIAL_OPTIMIZATIONS
