"""Tests for loop-invariant code motion."""

import pytest

from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import Interpreter
from repro.ir import ArithOp, BinOp, verify_graph
from repro.ir.loops import LoopForest
from repro.opts.licm import LoopInvariantCodeMotionPhase


def run_licm(source: str, name: str = "f"):
    """Canonicalize first (as the pipeline does — it collapses the
    builder's degenerate loop phis that would mask invariance), then
    hoist."""
    from repro.opts.canonicalize import CanonicalizerPhase

    program = compile_source(source)
    graph = program.function(name)
    CanonicalizerPhase().run(graph)
    hoisted = LoopInvariantCodeMotionPhase().run(graph)
    verify_graph(graph)
    return program, graph, hoisted


def in_loop(graph, instruction) -> bool:
    forest = LoopForest(graph)
    return any(instruction.block in loop.blocks for loop in forest.loops)


class TestHoisting:
    def test_invariant_mul_hoisted(self):
        program, graph, hoisted = run_licm(
            """
fn f(n: int, k: int) -> int {
  var s: int = 0;
  var i: int = 0;
  while (i < n) {
    s = s + k * 3;
    i = i + 1;
  }
  return s;
}
"""
        )
        assert hoisted >= 1
        muls = [
            ins
            for b in graph.blocks
            for ins in b.instructions
            if isinstance(ins, ArithOp) and ins.op is BinOp.MUL
        ]
        assert muls and not in_loop(graph, muls[0])
        assert Interpreter(program).run("f", [4, 5]).value == 60

    def test_dependent_chain_hoisted_in_order(self):
        program, graph, hoisted = run_licm(
            """
fn f(n: int, k: int) -> int {
  var s: int = 0;
  var i: int = 0;
  while (i < n) {
    s = s + (k * 3 + 7) * 2;
    i = i + 1;
  }
  return s;
}
"""
        )
        assert hoisted >= 3
        assert Interpreter(program).run("f", [3, 2]).value == 78

    def test_loop_varying_not_hoisted(self):
        program, graph, hoisted = run_licm(
            """
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
        )
        muls = [
            ins
            for b in graph.blocks
            for ins in b.instructions
            if isinstance(ins, ArithOp) and ins.op is BinOp.MUL
        ]
        assert muls and in_loop(graph, muls[0])

    def test_trapping_division_not_hoisted(self):
        # k/d may trap; hoisting would trap even for n == 0.
        program, graph, hoisted = run_licm(
            """
fn f(n: int, k: int, d: int) -> int {
  var s: int = 0;
  var i: int = 0;
  while (i < n) {
    s = s + k / d;
    i = i + 1;
  }
  return s;
}
"""
        )
        divs = [
            ins
            for b in graph.blocks
            for ins in b.instructions
            if isinstance(ins, ArithOp) and ins.op is BinOp.DIV
        ]
        assert divs and in_loop(graph, divs[0])
        # n == 0: the loop never runs, no trap even when d == 0.
        assert not Interpreter(program).run("f", [0, 1, 0]).trapped

    def test_memory_ops_not_hoisted(self):
        program, graph, hoisted = run_licm(
            """
class A { x: int; }
fn f(a: A, n: int) -> int {
  var s: int = 0;
  var i: int = 0;
  while (i < n) {
    s = s + a.x;
    i = i + 1;
  }
  return s;
}
"""
        )
        from repro.ir import LoadField

        loads = [
            ins
            for b in graph.blocks
            for ins in b.instructions
            if isinstance(ins, LoadField)
        ]
        assert loads and in_loop(graph, loads[0])

    def test_nested_loops_bubble_outward(self):
        program, graph, hoisted = run_licm(
            """
fn f(n: int, k: int) -> int {
  var s: int = 0;
  var i: int = 0;
  while (i < n) {
    var j: int = 0;
    while (j < n) {
      s = s + k * 5;
      j = j + 1;
    }
    i = i + 1;
  }
  return s;
}
"""
        )
        muls = [
            ins
            for b in graph.blocks
            for ins in b.instructions
            if isinstance(ins, ArithOp) and ins.op is BinOp.MUL
        ]
        assert muls
        forest = LoopForest(graph)
        # Hoisted past *both* loops.
        assert all(muls[0].block not in loop.blocks for loop in forest.loops)

    def test_no_loops_no_change(self):
        _, _, hoisted = run_licm("fn f(a: int) -> int { return a * 2; }")
        assert hoisted == 0


class TestSemantics:
    def test_behaviour_preserved(self):
        source = """
fn f(n: int, k: int) -> int {
  var s: int = 0;
  var i: int = 0;
  while (i < n) {
    if (i % 2 == 0) { s = s + (k * 3 ^ 5); } else { s = s - k; }
    i = i + 1;
  }
  return s;
}
"""
        program = compile_source(source)
        cases = [(n, k) for n in range(0, 8) for k in (-3, 0, 4)]
        expected = [Interpreter(program).run("f", [n, k]).value for n, k in cases]
        LoopInvariantCodeMotionPhase().run(program.function("f"))
        verify_graph(program.function("f"))
        actual = [Interpreter(program).run("f", [n, k]).value for n, k in cases]
        assert actual == expected

    def test_reduces_dynamic_cycles(self):
        source = """
fn f(n: int, k: int) -> int {
  var s: int = 0;
  var i: int = 0;
  while (i < n) { s = s + k * 3; i = i + 1; }
  return s;
}
"""
        from repro.opts.canonicalize import CanonicalizerPhase

        program = compile_source(source)
        CanonicalizerPhase().run(program.function("f"))
        interp = Interpreter(program, metered=True)
        before = interp.run("f", [50, 7]).cycles
        LoopInvariantCodeMotionPhase().run(program.function("f"))
        interp2 = Interpreter(program, metered=True)
        after = interp2.run("f", [50, 7]).cycles
        assert after < before
