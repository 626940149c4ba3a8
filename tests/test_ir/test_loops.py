"""Tests for natural-loop detection and nesting."""

import pytest

from repro.frontend.irbuilder import compile_source
from repro.ir import CmpOp, Compare, Goto, Graph, If, INT, Phi, Return
from repro.ir.loops import DEFAULT_TRIP_COUNT, LoopForest


def simple_loop_graph():
    g = Graph("loop", [("n", INT)], INT)
    header, body, exit_ = g.new_block("h"), g.new_block("b"), g.new_block("e")
    g.entry.set_terminator(Goto(header))
    phi = Phi(header, INT, [g.const_int(0)])
    header.add_phi(phi)
    cond = header.append(Compare(CmpOp.LT, phi, g.parameters[0]))
    header.set_terminator(If(cond, body, exit_))
    body.set_terminator(Goto(header))
    phi._append_input(phi)
    exit_.set_terminator(Return(phi))
    return g, header, body, exit_


class TestSimpleLoop:
    def test_detected(self):
        g, header, body, exit_ = simple_loop_graph()
        forest = LoopForest(g)
        assert len(forest.loops) == 1
        loop = forest.loops[0]
        assert loop.header is header
        assert loop.blocks == {header, body}
        assert loop.back_edge_predecessors == [body]

    def test_queries(self):
        g, header, body, exit_ = simple_loop_graph()
        forest = LoopForest(g)
        assert forest.is_loop_header(header)
        assert not forest.is_loop_header(body)
        assert forest.innermost_loop(body).header is header
        assert forest.innermost_loop(exit_) is None

    def test_default_trip_count(self):
        g, header, *_ = simple_loop_graph()
        forest = LoopForest(g)
        assert forest.loops[0].trip_count == DEFAULT_TRIP_COUNT

    def test_profiled_trip_count_attr(self):
        g, header, *_ = simple_loop_graph()
        header.profile_trip_count = 42.0
        forest = LoopForest(g)
        assert forest.loops[0].trip_count == 42.0


class TestNestedLoops:
    SOURCE = """
fn nested(n: int) -> int {
  var total: int = 0;
  var i: int = 0;
  while (i < n) {
    var j: int = 0;
    while (j < i) {
      total = total + j;
      j = j + 1;
    }
    i = i + 1;
  }
  return total;
}
"""

    def test_two_loops_with_nesting(self):
        program = compile_source(self.SOURCE)
        forest = LoopForest(program.function("nested"))
        assert len(forest.loops) == 2
        outer = next(l for l in forest.loops if l.parent is None)
        inner = next(l for l in forest.loops if l.parent is not None)
        assert inner.parent is outer
        assert inner.depth == 2 and outer.depth == 1
        assert inner.header in outer.blocks
        assert inner.blocks < outer.blocks

    def test_inner_blocks_map_to_inner_loop(self):
        program = compile_source(self.SOURCE)
        forest = LoopForest(program.function("nested"))
        inner = next(l for l in forest.loops if l.parent is not None)
        for block in inner.blocks:
            assert forest.innermost_loop(block) is inner


class TestNoLoops:
    def test_acyclic_graph_has_none(self, diamond):
        forest = LoopForest(diamond["graph"])
        assert forest.loops == []
        assert forest.innermost_loop(diamond["merge"]) is None
        assert not forest.is_loop_header(diamond["merge"])


class TestSequentialLoops:
    def test_siblings_not_nested(self):
        source = """
fn two(n: int) -> int {
  var a: int = 0;
  var i: int = 0;
  while (i < n) { a = a + i; i = i + 1; }
  var j: int = 0;
  while (j < n) { a = a + j; j = j + 1; }
  return a;
}
"""
        program = compile_source(source)
        forest = LoopForest(program.function("two"))
        assert len(forest.loops) == 2
        assert all(loop.parent is None for loop in forest.loops)
        headers = {loop.header for loop in forest.loops}
        assert len(headers) == 2
