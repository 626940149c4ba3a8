"""Tests for the path-duplication extension (Section 8 future work)."""


import pytest

from repro.analysis.blame import PhaseGuard, use_guard
from repro.dbds import phase, tradeoff
from repro.dbds.phase import DbdsPhase
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import Interpreter
from repro.ir import verify_graph
from repro.obs.tracer import Tracer, use_tracer
from repro.pipeline.config import DBDS, PATH_DBDS
from tests.helpers import outcomes

# An inner merge with a local fold whose Goto leads straight into an
# outer merge with a *further* opportunity: absorbing both needs either
# a second DBDS iteration or path duplication.
CHAINED = """
fn f(x: int, y: int) -> int {
  var p: int;
  if (x > 0) {
    var t: int;
    if (y > 0) { t = y; } else { t = 0; }
    p = t * 4 + 1;
  } else {
    p = 2;
  }
  if (p >= 1) { return p * 3 + x; }
  return x;
}
"""

# Nested diamonds, each enclosing merge computing its value from the
# one it joins: the kept duplication of the innermost merge into its
# constant predecessor continues through both enclosing merges.
NESTED = """
fn f(a: int, b: int, c: int, x: int) -> int {
  var p: int;
  var q: int;
  var r: int;
  if (c > 0) {
    if (b > 0) {
      if (a > 0) { p = 1; } else { p = x; }
      q = p * 4 + 1;
    } else { q = x; }
    r = q * 4 + 1;
  } else { r = x; }
  return r * 3;
}
"""


class TestPathExtension:
    def test_single_iteration_reaches_deeper(self, monkeypatch):
        """With one DBDS iteration, path mode performs strictly more
        duplications than plain mode (which needs iteration 2+)."""
        monkeypatch.setattr(phase, "MAX_DBDS_ITERATIONS", 1)
        plain_program = compile_source(CHAINED)
        plain_stats = DbdsPhase(plain_program, DBDS).run(
            plain_program.function("f")
        )

        path_program = compile_source(CHAINED)
        with use_guard(PhaseGuard()):
            path_stats = DbdsPhase(path_program, PATH_DBDS).run(
                path_program.function("f")
            )

        assert path_stats.duplications_performed > plain_stats.duplications_performed
        verify_graph(path_program.function("f"))

    def test_semantics_preserved(self):
        program = compile_source(CHAINED)
        args = [[x, y] for x in range(-2, 8) for y in range(-2, 9)]
        expected = outcomes(program, "f", args)
        with use_guard(PhaseGuard()):
            DbdsPhase(program, PATH_DBDS).run(program.function("f"))
        assert outcomes(program, "f", args) == expected

    def test_path_length_limit(self, monkeypatch):
        """The chain NESTED allows (two merges after the kept
        duplication) stops at MAX_PATH_LENGTH merges."""
        monkeypatch.setattr(phase, "MAX_DBDS_ITERATIONS", 1)
        for limit in (1, 2):
            monkeypatch.setattr(phase, "MAX_PATH_LENGTH", limit)
            program = compile_source(NESTED)
            tracer = Tracer()
            with use_tracer(tracer):
                stats = DbdsPhase(program, PATH_DBDS).run(program.function("f"))
            accepted = [
                e.attrs for e in tracer.named("dbds.decision")
                if e.attrs["accepted"]
            ]
            hops = [d for d in accepted if d["mode"] == "path"]
            assert len(hops) == limit
            # One chain: the hops follow the kept duplication they extend.
            start = accepted.index(hops[0])
            assert accepted[start - 1]["mode"] == "dbds"
            assert accepted[start:start + limit] == hops
            assert stats.duplications_performed == len(accepted)
            verify_graph(program.function("f"))

    def test_respects_budget(self, monkeypatch):
        monkeypatch.setattr(tradeoff, "MAX_UNIT_SIZE", 1.0)
        program = compile_source(CHAINED)
        stats = DbdsPhase(program, PATH_DBDS).run(program.function("f"))
        assert stats.duplications_performed == 0

    def test_config_wiring(self):
        """Only the path-dbds configuration extends along paths."""
        modes = {}
        for config in (DBDS, PATH_DBDS):
            program = compile_source(NESTED)
            tracer = Tracer()
            with use_tracer(tracer):
                DbdsPhase(program, config).run(program.function("f"))
            modes[config.name] = {
                e.attrs["mode"] for e in tracer.named("dbds.decision")
            }
        assert "path" in modes["path-dbds"]
        assert modes["dbds"] == {"dbds"}

    def test_pipeline_config_semantics(self):
        from repro.pipeline.compiler import compile_and_profile

        source = CHAINED + (
            "fn main(n: int) -> int {\n"
            "  var t: int = 0;\n  var i: int = 0;\n"
            "  while (i < n) { t = t + f(i, t); i = i + 1; }\n"
            "  return t;\n}\n"
        )
        reference = outcomes(compile_source(source), "main", [[0], [3], [9]])
        program, report = compile_and_profile(
            source, "main", [[9]], PATH_DBDS, check_ir="each-phase"
        )
        assert outcomes(program, "main", [[0], [3], [9]]) == reference
