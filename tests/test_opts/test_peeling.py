"""Tests for loop peeling (the duplication-at-loop-headers story)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.progen import random_program
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import Interpreter
from repro.ir import verify_graph
from repro.ir.loops import LoopForest
from repro.opts import peeling
from repro.opts.peeling import (
    LoopPeelingPhase,
    PeelingError,
    can_peel,
    peel_loop,
)
from repro.pipeline.cache import normalize_ir
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import PEEL_DBDS
from tests.helpers import REPO, outcomes

SIMPLE = """
fn f(n: int) -> int {
  var s: int = 0;
  var i: int = 0;
  while (i < n) {
    s = s + i * 3;
    i = i + 1;
  }
  return s;
}
"""


def peel_first(source: str, name: str = "f"):
    program = compile_source(source)
    graph = program.function(name)
    forest = LoopForest(graph)
    assert forest.loops, "test program must contain a loop"
    peel_loop(graph, forest.loops[0])
    verify_graph(graph)
    return program, graph


class TestPeelLoop:
    def test_semantics_preserved(self):
        program, graph = peel_first(SIMPLE)
        for n in range(0, 8):
            assert Interpreter(program).run("f", [n]).value == sum(
                3 * i for i in range(n)
            )

    def test_zero_iterations_take_peeled_exit(self):
        # n == 0: the peeled header's condition fails immediately.
        program, graph = peel_first(SIMPLE)
        assert Interpreter(program).run("f", [0]).value == 0

    def test_loop_still_detected_after_peel(self):
        program, graph = peel_first(SIMPLE)
        forest = LoopForest(graph)
        assert len(forest.loops) == 1

    def test_peeling_grows_code(self):
        from repro.costmodel.estimator import graph_code_size

        program = compile_source(SIMPLE)
        graph = program.function("f")
        before = graph_code_size(graph)
        peel_loop(graph, LoopForest(graph).loops[0])
        assert graph_code_size(graph) > before

    def test_cannot_peel_loop_headed_by_entry(self):
        program = compile_source(SIMPLE)
        graph = program.function("f")
        loop = LoopForest(graph).loops[0]
        # Break the precondition artificially and check the guard.
        assert can_peel(graph, loop)

    def test_peel_error_on_bad_loop(self):
        program = compile_source(SIMPLE)
        graph = program.function("f")
        loop = LoopForest(graph).loops[0]
        loop.back_edge_predecessors.clear()
        with pytest.raises(PeelingError):
            peel_loop(graph, loop)

    def test_values_escaping_loop_repaired(self):
        source = """
fn f(n: int) -> int {
  var s: int = 0;
  var last: int = 0;
  var i: int = 0;
  while (i < n) {
    last = i * 7;
    s = s + last;
    i = i + 1;
  }
  return s * 1000 + last;
}
"""
        program, graph = peel_first(source)
        for n in (0, 1, 2, 5):
            expected_last = 7 * (n - 1) if n > 0 else 0
            expected_s = sum(7 * i for i in range(n))
            assert (
                Interpreter(program).run("f", [n]).value
                == expected_s * 1000 + expected_last
            )

    def test_nested_loop_peel_outer(self):
        source = """
fn f(n: int) -> int {
  var t: int = 0;
  var i: int = 0;
  while (i < n) {
    var j: int = 0;
    while (j < n) { t = t + 1; j = j + 1; }
    i = i + 1;
  }
  return t;
}
"""
        program = compile_source(source)
        graph = program.function("f")
        forest = LoopForest(graph)
        outer = next(l for l in forest.loops if l.parent is None)
        peel_loop(graph, outer)
        verify_graph(graph)
        for n in (0, 1, 3, 5):
            assert Interpreter(program).run("f", [n]).value == n * n

    def test_nested_loop_peel_inner(self):
        source = """
fn f(n: int) -> int {
  var t: int = 0;
  var i: int = 0;
  while (i < n) {
    var j: int = 0;
    while (j < i) { t = t + j; j = j + 1; }
    i = i + 1;
  }
  return t;
}
"""
        program = compile_source(source)
        graph = program.function("f")
        forest = LoopForest(graph)
        inner = next(l for l in forest.loops if l.parent is not None)
        peel_loop(graph, inner)
        verify_graph(graph)
        expected = lambda n: sum(j for i in range(n) for j in range(i))
        for n in (0, 1, 4, 6):
            assert Interpreter(program).run("f", [n]).value == expected(n)

    def test_peel_enables_first_iteration_folding(self):
        """After peeling, the first iteration sees i = 0 and the whole
        peeled body canonicalizes away."""
        from repro.opts.canonicalize import CanonicalizerPhase
        from repro.costmodel.estimator import estimated_run_time

        source = """
fn f(n: int) -> int {
  var acc: int = 1;
  var i: int = 0;
  while (i < n) {
    acc = acc + acc * i;
    i = i + 1;
  }
  return acc;
}
"""
        program = compile_source(source)
        graph = program.function("f")
        CanonicalizerPhase().run(graph)
        peel_loop(graph, LoopForest(graph).loops[0])
        CanonicalizerPhase().run(graph)
        verify_graph(graph)
        # acc * 0 folded in the peeled iteration; semantics intact.
        for n in (0, 1, 2, 5):
            expected = 1
            for i in range(n):
                expected = expected + expected * i
            assert Interpreter(program).run("f", [n]).value == expected


class TestPeelingPhase:
    def test_phase_peels_constant_entry_loops(self):
        program = compile_source(SIMPLE)
        graph = program.function("f")
        peeled = LoopPeelingPhase().run(graph)
        assert peeled == 1  # i enters as constant 0
        verify_graph(graph)

    def test_phase_respects_budget(self, monkeypatch):
        monkeypatch.setattr(peeling, "MAX_PEELS", 2)
        source = "fn f(n: int) -> int {\n  var t: int = 0;\n"
        for k in range(6):
            source += (
                f"  var i{k}: int = 0;\n"
                f"  while (i{k} < n) {{ t = t + i{k}; i{k} = i{k} + 1; }}\n"
            )
        source += "  return t;\n}\n"
        program = compile_source(source)
        graph = program.function("f")
        peeled = LoopPeelingPhase().run(graph)
        assert peeled == 2
        verify_graph(graph)

    def test_phase_is_semantics_preserving(self):
        program = compile_source(SIMPLE)
        expected = [Interpreter(program).run("f", [n]).value for n in range(8)]
        LoopPeelingPhase().run(program.function("f"))
        actual = [Interpreter(program).run("f", [n]).value for n in range(8)]
        assert actual == expected

    def test_peel_does_not_depend_on_object_addresses(self):
        # A loop body is a set of blocks, which iterates in address
        # order: peeling must not let that order pick block ids or
        # predecessor order, or one source compiles to several programs
        # depending on what the process allocated before.
        source = (REPO / "examples" / "apps" / "matrix.mini").read_text()
        dumps, padding = set(), []
        for round in range(8):
            padding.append([object() for _ in range(37 * round)])
            program, _ = compile_and_profile(source, "main", [[4]], PEEL_DBDS)
            dumps.add(normalize_ir(program.describe()))
        assert len(dumps) == 1


class TestPeelingFuzz:
    ARGS = [[0], [1], [3], [7]]

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_random_peels_preserve_semantics(self, program_seed, choice_seed):
        source = random_program(program_seed)
        program = compile_source(source)
        expected = outcomes(program, "main", self.ARGS)
        rng = random.Random(choice_seed)
        for graph in program.functions.values():
            for _ in range(2):
                forest = LoopForest(graph)
                candidates = [
                    loop for loop in forest.loops if can_peel(graph, loop)
                ]
                if not candidates:
                    break
                peel_loop(graph, rng.choice(candidates))
                verify_graph(graph)
        assert outcomes(program, "main", self.ARGS) == expected, (
            f"peeling changed semantics (program {program_seed}, "
            f"choices {choice_seed})\n{source}"
        )
