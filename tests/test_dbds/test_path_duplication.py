"""Tests for the path-duplication extension (Section 8 future work)."""


import pytest

from repro.dbds.phase import DbdsConfig, DbdsPhase
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import Interpreter
from repro.ir import verify_graph
from repro.pipeline.config import PATH_DBDS
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


class TestPathExtension:
    def test_single_iteration_reaches_deeper(self):
        """With one DBDS iteration, path mode performs strictly more
        duplications than plain mode (which needs iteration 2+)."""
        plain_program = compile_source(CHAINED)
        plain_stats = DbdsPhase(
            plain_program, DbdsConfig(max_iterations=1)
        ).run(plain_program.function("f"))

        path_program = compile_source(CHAINED)
        path_stats = DbdsPhase(
            path_program,
            DbdsConfig(max_iterations=1, path_duplication=True, paranoid=True),
        ).run(path_program.function("f"))

        assert path_stats.duplications_performed > plain_stats.duplications_performed
        verify_graph(path_program.function("f"))

    def test_semantics_preserved(self):
        program = compile_source(CHAINED)
        args = [[x, y] for x in range(-2, 8) for y in range(-2, 9)]
        expected = outcomes(program, "f", args)
        DbdsPhase(
            program, DbdsConfig(path_duplication=True, paranoid=True)
        ).run(program.function("f"))
        assert outcomes(program, "f", args) == expected

    def test_path_length_limit(self):
        # Stack several merges; a tiny limit must bound the chain.
        source = "fn f(x: int) -> int {\n  var acc: int = x;\n"
        for j in range(5):
            source += (
                f"  var p{j}: int;\n"
                f"  if (acc > {j}) {{ p{j} = acc; }} else {{ p{j} = {j}; }}\n"
                f"  acc = acc + p{j} * 2;\n"
            )
        source += "  return acc;\n}\n"
        program = compile_source(source)
        limited = DbdsPhase(
            program,
            DbdsConfig(max_iterations=1, path_duplication=True, max_path_length=1),
        ).run(program.function("f"))
        assert limited.duplications_performed >= 1
        verify_graph(program.function("f"))

    def test_respects_budget(self):
        from repro.dbds.tradeoff import TradeOffConfig

        program = compile_source(CHAINED)
        stats = DbdsPhase(
            program,
            DbdsConfig(
                path_duplication=True,
                trade_off=TradeOffConfig(max_unit_size=1.0),
            ),
        ).run(program.function("f"))
        assert stats.duplications_performed == 0

    def test_config_wiring(self):
        assert PATH_DBDS.path_duplication
        assert PATH_DBDS.dbds_config().path_duplication

    def test_pipeline_config_semantics(self):
        from repro.pipeline.compiler import compile_and_profile

        source = CHAINED + (
            "fn main(n: int) -> int {\n"
            "  var t: int = 0;\n  var i: int = 0;\n"
            "  while (i < n) { t = t + f(i, t); i = i + 1; }\n"
            "  return t;\n}\n"
        )
        reference = outcomes(compile_source(source), "main", [[0], [3], [9]])
        config = PATH_DBDS.replace(paranoid=True)
        program, report = compile_and_profile(source, "main", [[9]], config)
        assert outcomes(program, "main", [[0], [3], [9]]) == reference
