"""End-to-end reproduction of every listing of Section 2 (experiment F1).

Each listing is compiled, the DBDS pipeline is run, and we assert both
that the paper's claimed optimization actually happened *and* that the
program's observable behaviour is unchanged.
"""


import pytest

from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import HeapObject, Interpreter
from repro.ir import ArithOp, Call, Compare, If, LoadField, New
from repro.pipeline.compiler import Compiler, compile_and_profile
from repro.pipeline.config import BASELINE, DBDS
from tests.helpers import assert_configs_equivalent


def compile_dbds(source: str, entry: str, profile_args):
    return compile_and_profile(
        source, entry, profile_args, DBDS, check_ir="each-phase"
    )


def instructions_of(graph, kind):
    return [i for b in graph.blocks for i in b.instructions if isinstance(i, kind)]


def branch_count(graph):
    return sum(1 for b in graph.blocks if isinstance(b.terminator, If))


class TestFigure1ConstantFolding:
    SOURCE = """
fn foo(x: int) -> int {
  var phi: int;
  if (x > 0) { phi = x; } else { phi = 0; }
  return 2 + phi;
}
"""

    def test_optimized_shape(self):
        """Figure 1c: the false branch returns the folded constant 2."""
        program, _ = compile_dbds(self.SOURCE, "foo", [[k] for k in range(-5, 6)])
        graph = program.function("foo")
        adds = instructions_of(graph, ArithOp)
        # Only the true branch still adds; the false branch is constant.
        assert len(adds) == 1

    def test_all_configs_agree(self):
        assert_configs_equivalent(self.SOURCE, "foo", [[k] for k in range(-5, 6)])


class TestListing1ConditionalElimination:
    SOURCE = """
fn foo(i: int) -> int {
  var p: int;
  if (i > 0) { p = i; } else { p = 13; }
  if (p > 12) { return 12; }
  return i;
}
"""

    def test_second_branch_partially_eliminated(self):
        """Listing 2: the else path returns 12 without re-testing."""
        baseline_program, _ = compile_and_profile(
            self.SOURCE, "foo", [[k] for k in range(-5, 20)], BASELINE
        )
        dbds_program, _ = compile_dbds(self.SOURCE, "foo", [[k] for k in range(-5, 20)])
        assert branch_count(dbds_program.function("foo")) < branch_count(
            baseline_program.function("foo")
        ) or branch_count(dbds_program.function("foo")) <= 2

    def test_all_configs_agree(self):
        assert_configs_equivalent(self.SOURCE, "foo", [[k] for k in range(-5, 20)])


class TestListing3PartialEscapeAnalysis:
    SOURCE = """
class A { x: int; }
fn foo(a: A) -> int {
  var p: A;
  if (a == null) { p = new A { x = 0 }; } else { p = a; }
  return p.x;
}
fn drive(i: int) -> int {
  var a: A = null;
  if (i % 2 > 0) { a = new A { x = i }; }
  return foo(a);
}
"""

    def test_allocation_removed(self):
        """Listing 4: the null path returns 0 with no allocation."""
        program, _ = compile_dbds(self.SOURCE, "drive", [[k] for k in range(12)])
        graph = program.function("foo")
        assert len(instructions_of(graph, New)) == 0

    def test_all_configs_agree(self):
        assert_configs_equivalent(self.SOURCE, "drive", [[k] for k in range(12)])


class TestListing5ReadElimination:
    SOURCE = """
class A { x: int; }
global s: int;
fn foo(a: A, i: int) -> int {
  if (i > 0) { s = a.x; } else { s = 0; }
  return a.x;
}
fn drive(i: int) -> int {
  var r: A = new A { x = i * 3 };
  return foo(r, i);
}
"""

    def test_read_becomes_fully_redundant(self):
        """Listing 6: the true path reuses the a.x it already loaded."""
        baseline_program, _ = compile_and_profile(
            self.SOURCE, "drive", [[k] for k in range(-6, 7)], BASELINE
        )
        dbds_program, _ = compile_dbds(self.SOURCE, "drive", [[k] for k in range(-6, 7)])
        baseline_loads = len(
            instructions_of(baseline_program.function("drive"), LoadField)
        )
        dbds_loads = len(instructions_of(dbds_program.function("drive"), LoadField))
        assert dbds_loads < baseline_loads or dbds_loads == 0

    def test_all_configs_agree(self):
        assert_configs_equivalent(self.SOURCE, "drive", [[k] for k in range(-6, 7)])


class TestFigure3StrengthReduction:
    SOURCE = """
fn f(a: int, b: int, x: int) -> int {
  var d: int;
  if (a > b) { d = a; } else { d = 2; }
  if (x >= 0) { return x / d; }
  return 0 - x;
}
fn drive(i: int) -> int { return f(i, 6, i + 20); }
"""

    def test_division_reduced_on_constant_path(self):
        program, _ = compile_dbds(self.SOURCE, "drive", [[k] for k in range(-8, 9)])
        graph = program.function("drive")
        from repro.ir import BinOp

        shifts = [
            i
            for i in instructions_of(graph, ArithOp)
            if i.op in (BinOp.SHR, BinOp.USHR)
        ]
        assert shifts, "expected a strength-reduced shift on the d=2 path"

    def test_all_configs_agree(self):
        assert_configs_equivalent(self.SOURCE, "drive", [[k] for k in range(-8, 9)])
