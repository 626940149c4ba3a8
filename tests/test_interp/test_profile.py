"""Tests for profile collection and application."""

import pytest

from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import Interpreter, ProfileCollector
from repro.interp.profile import apply_profile, profile_program
from repro.ir.loops import DEFAULT_TRIP_COUNT, LoopForest
from repro.ir.nodes import If


SRC = """
fn branchy(x: int) -> int {
  if (x > 10) { return 1; }
  return 0;
}

fn loopy(n: int) -> int {
  var i: int = 0;
  while (i < n) { i = i + 1; }
  return i;
}

fn main(k: int) -> int {
  var t: int = 0;
  var i: int = 0;
  while (i < k) { t = t + branchy(i) + loopy(7); i = i + 1; }
  return t;
}
"""


def branch_of(graph) -> If:
    branches = [
        b.terminator for b in graph.blocks if isinstance(b.terminator, If)
    ]
    assert len(branches) == 1
    return branches[0]


class TestCollection:
    def test_branch_counts(self):
        program = compile_source(SRC)
        collector = profile_program(program, "main", [[20]])
        branch = branch_of(program.function("branchy"))
        counts = collector.branch_counts[branch]
        # x in 0..19: x > 10 for 11..19 (9 times), else 11 times.
        assert counts == [9, 11]

    def test_true_probability(self):
        program = compile_source(SRC)
        collector = profile_program(program, "main", [[20]])
        branch = branch_of(program.function("branchy"))
        assert collector.true_probability(branch) == pytest.approx(9 / 20)

    def test_unexecuted_branch_has_no_profile(self):
        program = compile_source(SRC)
        collector = ProfileCollector()
        branch = branch_of(program.function("branchy"))
        assert collector.true_probability(branch) is None

    def test_block_counts(self):
        program = compile_source(SRC)
        collector = profile_program(program, "main", [[5]])
        entry = program.function("branchy").entry
        assert collector.block_counts[entry] == 5


class TestApplication:
    def test_probabilities_written_to_if(self):
        program = compile_source(SRC)
        collector = profile_program(program, "main", [[20]])
        apply_profile(program, collector)
        branch = branch_of(program.function("branchy"))
        assert branch.true_probability == pytest.approx(9 / 20)

    def test_probabilities_clamped(self):
        program = compile_source(
            "fn f(x: int) -> int { if (x > 1000000) { return 1; } return 0; }\n"
            "fn main(k: int) -> int { var i: int = 0; var t: int = 0;"
            " while (i < k) { t = t + f(i); i = i + 1; } return t; }"
        )
        collector = profile_program(program, "main", [[50]])
        apply_profile(program, collector)
        branch = branch_of(program.function("f"))
        assert branch.true_probability == pytest.approx(0.01)

    def test_loop_trip_count_recorded(self):
        program = compile_source(SRC)
        collector = profile_program(program, "main", [[10]])
        apply_profile(program, collector)
        graph = program.function("loopy")
        forest = LoopForest(graph)
        # loopy(7): the header runs 8 times per entry.
        assert forest.loops[0].trip_count == pytest.approx(8.0)

    def test_unprofiled_loop_keeps_default(self):
        program = compile_source(SRC)
        apply_profile(program, ProfileCollector())
        forest = LoopForest(program.function("loopy"))
        assert forest.loops[0].trip_count == DEFAULT_TRIP_COUNT

    def test_profile_survives_copy(self):
        from repro.ir.copy import copy_program

        program = compile_source(SRC)
        collector = profile_program(program, "main", [[20]])
        apply_profile(program, collector)
        copied = copy_program(program)
        branchy = copied.function("branchy")
        assert branchy is not program.function("branchy")
        assert branch_of(branchy).true_probability == pytest.approx(9 / 20)
        # loopy(7): the header runs 8 times per entry.
        assert LoopForest(copied.function("loopy")).loops[0].trip_count == (
            pytest.approx(8.0)
        )
