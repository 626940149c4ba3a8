"""Property tests for the simulation tier: read-only, deterministic,
and consistent with what the optimizer can actually deliver."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.blame import PhaseGuard, use_guard
from repro.analysis.progen import random_program
from repro.bench.workloads.suites import ALL_SUITES, generate_suite
from repro.costmodel.estimator import estimated_run_time
from repro.dbds.phase import DbdsPhase
from repro.dbds.simulation import SimulationTier
from repro.frontend.irbuilder import compile_source
from repro.interp.profile import apply_profile, profile_program
from repro.ir import verify_graph

from tests.helpers import REPO

EXAMPLES = sorted((REPO / "examples").rglob("*.mini"))


def simulate_all(program):
    results = {}
    for name, graph in program.functions.items():
        results[name] = SimulationTier(graph, program).run()
    return results


def fingerprint(results):
    return {
        name: [
            (r.pred.id, r.merge.id, round(r.benefit, 6), round(r.cost, 6),
             round(r.probability, 6))
            for r in rs
        ]
        for name, rs in results.items()
    }


class TestReadOnly:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(min_value=0, max_value=10_000))
    def test_simulation_never_mutates(self, seed):
        program = compile_source(random_program(seed))
        before = {n: g.describe() for n, g in program.functions.items()}
        simulate_all(program)
        after = {n: g.describe() for n, g in program.functions.items()}
        assert after == before
        for graph in program.functions.values():
            verify_graph(graph)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(min_value=0, max_value=10_000))
    def test_simulation_deterministic(self, seed):
        program = compile_source(random_program(seed))
        first = fingerprint(simulate_all(program))
        second = fingerprint(simulate_all(program))
        assert first == second

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(min_value=0, max_value=10_000))
    def test_costs_and_probabilities_well_formed(self, seed):
        program = compile_source(random_program(seed))
        for results in simulate_all(program).values():
            for r in results:
                assert r.cost >= 0.0
                assert 0.0 <= r.probability <= 1.0 + 1e-9
                assert r.benefit >= 0.0 or r.reasons  # negative ⇒ explained


class TestEstimatorConsistency:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(min_value=0, max_value=10_000))
    def test_dbds_never_increases_static_estimate(self, seed):
        """The phase only performs candidates it believes in; the static
        run-time estimate must not get worse."""
        program = compile_source(random_program(seed))
        collector = profile_program(program, "main", [[3]])
        apply_profile(program, collector)
        graph = program.function("main")
        from repro.opts.canonicalize import CanonicalizerPhase

        CanonicalizerPhase().run(graph)
        before = estimated_run_time(graph)
        with use_guard(PhaseGuard()):
            DbdsPhase(program).run(graph)
        after = estimated_run_time(graph)
        # Tolerance: repair phis and edge blocks can add epsilon cost.
        assert after <= before * 1.05 + 5.0


def test_one_pair_simulates_as_the_traversal_does():
    # A path-duplication hop simulates only the pair it decides: the
    # branch facts of the pair's dominator chain must give it the
    # estimates the whole-graph traversal gives it.  The examples and
    # the micro suite hold pairs whose estimates depend on those facts.
    sources = [path.read_text() for path in EXAMPLES]
    sources += [w.source for w in generate_suite(ALL_SUITES["micro"], 0)]
    for source in sources:
        program = compile_source(source)
        for graph in program.functions.values():
            tier = SimulationTier(graph, program)
            for r in tier.run():
                one = tier.simulate(r.pred, r.merge)
                assert (one.benefit, one.cost, one.probability, one.reasons) == (
                    r.benefit, r.cost, r.probability, r.reasons,
                )
