"""Tests for the Algorithm 1 backtracking baseline."""

import pytest

from repro.dbds import backtracking, tradeoff
from repro.dbds.backtracking import BacktrackingDuplication
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import Interpreter
from repro.ir import verify_graph


OPPORTUNITY = """
fn f(x: int) -> int {
  var p: int;
  if (x > 0) { p = x; } else { p = 0; }
  return 2 + p;
}
"""

NEUTRAL = """
fn f(x: int, y: int) -> int {
  var p: int;
  if (x > 0) { p = x; } else { p = y; }
  return p + y;
}
"""


class TestBacktracking:
    def test_keeps_beneficial_duplication(self):
        program = compile_source(OPPORTUNITY)
        graph = program.function("f")
        backtracker = BacktrackingDuplication(program)
        result = backtracker.run(graph)
        program.functions["f"] = result
        verify_graph(result)
        assert backtracker.stats.kept >= 1
        assert backtracker.stats.cfg_copies >= 1

    def test_rolls_back_useless_duplication(self):
        from repro.opts.canonicalize import CanonicalizerPhase

        program = compile_source(NEUTRAL)
        graph = program.function("f")
        CanonicalizerPhase().run(graph)  # reach fixpoint first
        before = graph.describe()
        backtracker = BacktrackingDuplication(program)
        result = backtracker.run(graph)
        assert backtracker.stats.rolled_back >= 1
        # Rolled-back graph is behaviourally the original.
        program.functions["f"] = result
        for x, y in ((1, 2), (-1, 5), (0, 0)):
            assert Interpreter(program).run("f", [x, y]).value == (
                (x if x > 0 else y) + y
            )

    def test_semantics_preserved(self):
        program = compile_source(OPPORTUNITY)
        expected = [Interpreter(program).run("f", [k]).value for k in range(-4, 5)]
        graph = program.function("f")
        result = BacktrackingDuplication(program).run(graph)
        program.functions["f"] = result
        actual = [Interpreter(program).run("f", [k]).value for k in range(-4, 5)]
        assert actual == expected

    def test_respects_duplication_cap(self, monkeypatch):
        monkeypatch.setattr(backtracking, "MAX_DUPLICATIONS", 2)
        source = "fn f(x: int) -> int {\n  var acc: int = 0;\n"
        for i in range(6):
            source += (
                f"  var p{i}: int;\n"
                f"  if (x > {i}) {{ p{i} = x; }} else {{ p{i} = {i}; }}\n"
                f"  acc = acc + p{i} * 2;\n"
            )
        source += "  return acc;\n}\n"
        program = compile_source(source)
        graph = program.function("f")
        backtracker = BacktrackingDuplication(program)
        result = backtracker.run(graph)
        assert backtracker.stats.kept <= 2

    def test_copy_count_tracks_attempts(self):
        program = compile_source(OPPORTUNITY)
        graph = program.function("f")
        backtracker = BacktrackingDuplication(program)
        backtracker.run(graph)
        assert backtracker.stats.cfg_copies == backtracker.stats.attempts

    def test_size_budget_stops_expansion(self, monkeypatch):
        """The unit grows no further than the trade-off tier's IB."""
        monkeypatch.setattr(tradeoff, "INCREASE_BUDGET", 1.0)
        program = compile_source(OPPORTUNITY)
        graph = program.function("f")
        backtracker = BacktrackingDuplication(program)
        result = backtracker.run(graph)
        assert backtracker.stats.kept == 0
