"""Tests for the compilation pipeline and its metrics."""

import dataclasses

import pytest

from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import Interpreter
from repro.ir import verify_program
from repro.obs.tracer import Tracer, use_tracer
from repro.pipeline.cache import ArtifactCache, normalize_ir
from repro.pipeline.compiler import Compiler, ProfiledSource, compile_and_profile
from repro.pipeline.config import (
    BACKTRACKING,
    BASELINE,
    CONFIGURATIONS,
    DBDS,
    DUPALOT,
    CompilerConfig,
)
from repro.pipeline.front import jit, measure_performance

from tests.test_pipeline.test_cli import count_calls

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


class TestConfigurations:
    def test_registry_contains_paper_configs(self):
        assert set(CONFIGURATIONS) == {
            "baseline", "dbds", "dupalot", "backtracking", "path-dbds",
            "peel-dbds",
        }
        assert not BASELINE.enable_dbds
        assert DBDS.enable_dbds and not DBDS.dupalot
        assert DUPALOT.dupalot
        assert BACKTRACKING.backtracking

    def test_with_trade_off_override(self):
        custom = DBDS.with_trade_off(benefit_scale=16.0)
        assert custom.trade_off.benefit_scale == 16.0
        assert DBDS.trade_off.benefit_scale == 256.0  # original untouched

    def test_dbds_config_projection(self):
        config = DUPALOT.dbds_config()
        assert config.dupalot


class TestCompiler:
    def test_report_has_all_units(self):
        program = compile_source(SOURCE)
        report = Compiler(BASELINE).compile_program(program)
        assert {u.function for u in report.units} == {"helper", "main"}
        assert report.config == "baseline"

    def test_metrics_populated(self):
        program = compile_source(SOURCE)
        report = Compiler(DBDS).compile_program(program)
        for unit in report.units:
            assert unit.compile_time > 0
            assert unit.code_size > 0
            assert unit.initial_code_size > 0

    def test_dbds_records_duplications(self):
        program, report = compile_and_profile(
            SOURCE, "main", [[10]], DBDS
        )
        assert report.total_duplications > 0
        verify_program(program)

    def test_baseline_never_duplicates(self):
        program, report = compile_and_profile(SOURCE, "main", [[10]], BASELINE)
        assert report.total_duplications == 0

    def test_backtracking_rebinds_graph(self):
        program, report = compile_and_profile(SOURCE, "main", [[10]], BACKTRACKING)
        verify_program(program)
        assert Interpreter(program).run("main", [10]).value is not None

    def test_code_size_increase_property(self):
        program, report = compile_and_profile(SOURCE, "main", [[10]], DBDS)
        for unit in report.units:
            assert unit.code_size_increase == pytest.approx(
                unit.code_size / unit.initial_code_size - 1.0
            )


class TestProfiledSource:
    def test_uses_share_one_parse_and_profiling_run(self, monkeypatch):
        calls = count_calls(
            monkeypatch,
            functions=[
                ("repro.frontend.irbuilder", "compile_source"),
                ("repro.interp.profile", "profile_program"),
            ],
        )
        shared = ProfiledSource(SOURCE, "main", [[10]], uses=3)
        programs = [shared.program() for _ in range(3)]
        assert calls == {"compile_source": 1, "profile_program": 1}
        # Each use gets a program of its own, with the same profiled IR.
        assert len({id(program) for program in programs}) == 3
        assert len({normalize_ir(p.describe()) for p in programs}) == 1
        # A use past the count parses and profiles afresh.
        shared.program()
        assert calls == {"compile_source": 2, "profile_program": 2}

    def test_jit_rejects_another_programs_profiled_source(self):
        shared = ProfiledSource(SOURCE, "main", [[10]], uses=2)
        jit(SOURCE, "main", [[10]], DBDS, profiled=shared)
        for source, entry, args in [
            (SOURCE + "\n", "main", [[10]]),
            (SOURCE, "helper", [[10]]),
            (SOURCE, "main", [[11]]),
        ]:
            with pytest.raises(ValueError, match="another source"):
                jit(source, entry, args, DBDS, profiled=shared)


class TestTracerChoice:
    def test_compiler_counts_privately_unless_the_ambient_tracer_records(self):
        assert not Compiler(DBDS).tracer.enabled
        tracer = Tracer()
        with use_tracer(tracer):
            assert Compiler(DBDS).tracer is tracer

    def test_jit_artifact_keeps_its_own_records_on_a_shared_tracer(
        self, tmp_path
    ):
        def dbds_counters(artifact):
            return {
                name: value for name, value in artifact.counters.items()
                if name.startswith("dbds.")
            }

        shared = Tracer()
        with use_tracer(shared):
            first, second = (
                jit(SOURCE, "main", [[10]], DBDS, cache=ArtifactCache(tmp_path / d))
                for d in "ab"
            )
        with use_tracer(Tracer()):
            alone = jit(
                SOURCE, "main", [[10]], DBDS, cache=ArtifactCache(tmp_path / "c")
            )
        # Both compiles recorded into the ambient tracer ...
        assert len(shared.spans("compile")) == 2 * len(alone.report.units)
        assert shared.counter("dbds.candidates") == 2 * sum(
            unit.candidates for unit in alone.report.units
        )
        # ... and each artifact (so each cache entry) holds its compile's.
        for artifact in (first, second):
            assert [e.name for e in artifact.events] == [e.name for e in alone.events]
            assert dbds_counters(artifact) == dbds_counters(alone)


class TestMeasurePerformance:
    def test_cycles_positive_and_accumulating(self):
        program, _ = compile_and_profile(SOURCE, "main", [[10]], BASELINE)
        one, _ = measure_performance(program, "main", [[10]])
        two, _ = measure_performance(program, "main", [[10], [10]])
        assert one > 0
        assert two == pytest.approx(2 * one)

    def test_dbds_reduces_cycles(self):
        base_program, _ = compile_and_profile(SOURCE, "main", [[10]], BASELINE)
        dbds_program, _ = compile_and_profile(SOURCE, "main", [[10]], DBDS)
        base_cycles, _ = measure_performance(base_program, "main", [[30]])
        dbds_cycles, _ = measure_performance(dbds_program, "main", [[30]])
        assert dbds_cycles < base_cycles

    def test_results_carry_values(self):
        program, _ = compile_and_profile(SOURCE, "main", [[10]], BASELINE)
        _, results = measure_performance(program, "main", [[5]])
        interp_value = Interpreter(program).run("main", [5]).value
        assert results[0].value == interp_value
