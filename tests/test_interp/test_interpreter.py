"""Tests for the reference interpreter."""

import pytest

from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import (
    BudgetExceeded,
    HeapArray,
    HeapObject,
    Interpreter,
    deep_value,
    observable_outcome,
)
from repro.ir.ops import MAX_CALL_DEPTH


def run(source: str, entry: str, args: list):
    program = compile_source(source)
    interp = Interpreter(program)
    return interp.run(entry, args), interp


class TestArithmetic:
    def test_basic(self):
        result, _ = run("fn f(a: int, b: int) -> int { return a * b + 1; }", "f", [6, 7])
        assert result.value == 43

    def test_division_truncates(self):
        result, _ = run("fn f() -> int { return -7 / 2; }", "f", [])
        assert result.value == -3

    def test_division_by_zero_traps(self):
        result, _ = run("fn f(x: int) -> int { return 10 / x; }", "f", [0])
        assert result.trapped
        assert "zero" in result.trap

    def test_wrapping(self):
        result, _ = run(
            "fn f() -> int { return 9223372036854775807 + 1; }", "f", []
        )
        assert result.value == -(2**63)

    def test_shifts(self):
        result, _ = run("fn f(x: int) -> int { return x << 3 >> 1; }", "f", [5])
        assert result.value == 20

    def test_comparisons_and_booleans(self):
        src = "fn f(a: int, b: int) -> bool { return a < b && !(a == b); }"
        assert run(src, "f", [1, 2])[0].value is True
        assert run(src, "f", [2, 1])[0].value is False

    def test_short_circuit_skips_rhs(self):
        # RHS would trap; && must skip it when LHS is false.
        src = "fn f(x: int) -> bool { return x != 0 && 10 / x > 1; }"
        result, _ = run(src, "f", [0])
        assert not result.trapped
        assert result.value is False


class TestControlFlow:
    def test_if_else(self):
        src = "fn f(x: int) -> int { if (x > 0) { return 1; } else { return 2; } }"
        assert run(src, "f", [5])[0].value == 1
        assert run(src, "f", [-5])[0].value == 2

    def test_while_loop(self):
        src = """
fn f(n: int) -> int {
  var s: int = 0; var i: int = 0;
  while (i < n) { s = s + i; i = i + 1; }
  return s;
}
"""
        assert run(src, "f", [10])[0].value == 45
        assert run(src, "f", [0])[0].value == 0

    def test_nested_loops(self):
        src = """
fn f(n: int) -> int {
  var t: int = 0; var i: int = 0;
  while (i < n) {
    var j: int = 0;
    while (j < n) { t = t + 1; j = j + 1; }
    i = i + 1;
  }
  return t;
}
"""
        assert run(src, "f", [7])[0].value == 49

    def test_step_budget(self):
        program = compile_source(
            "fn f() -> int { var i: int = 0; while (i >= 0) { i = 0; } return i; }"
        )
        interp = Interpreter(program, max_steps=1000)
        with pytest.raises(BudgetExceeded):
            interp.run("f", [])


class TestObjects:
    SRC = """
class Point { x: int; y: int; }
fn make(a: int, b: int) -> Point { return new Point { x = a, y = b }; }
fn dist2(p: Point) -> int { return p.x * p.x + p.y * p.y; }
fn f(a: int, b: int) -> int { return dist2(make(a, b)); }
fn default_fields() -> int { var p: Point = new Point; return p.x + p.y; }
fn null_deref() -> int { var p: Point = null; return p.x; }
fn store(p: Point, v: int) { p.x = v; }
"""

    def test_object_round_trip(self):
        assert run(self.SRC, "f", [3, 4])[0].value == 25

    def test_fields_default_initialized(self):
        assert run(self.SRC, "default_fields", [])[0].value == 0

    def test_null_dereference_traps(self):
        result, _ = run(self.SRC, "null_deref", [])
        assert result.trapped and "null" in result.trap

    def test_mutation_visible_to_caller(self):
        program = compile_source(self.SRC)
        interp = Interpreter(program)
        obj = HeapObject("Point", {"x": 1, "y": 2})
        interp.run("store", [obj, 42])
        assert obj.fields["x"] == 42


class TestArrays:
    SRC = """
fn sum(n: int) -> int {
  var xs: int[] = new int[n];
  var i: int = 0;
  while (i < len(xs)) { xs[i] = i * i; i = i + 1; }
  var s: int = 0; i = 0;
  while (i < n) { s = s + xs[i]; i = i + 1; }
  return s;
}
fn oob(n: int) -> int { var xs: int[] = new int[2]; return xs[n]; }
fn neg() -> int { var xs: int[] = new int[0 - 1]; return 0; }
"""

    def test_fill_and_sum(self):
        assert run(self.SRC, "sum", [5])[0].value == 30

    def test_out_of_bounds_traps(self):
        assert run(self.SRC, "oob", [5])[0].trapped
        assert run(self.SRC, "oob", [-1])[0].trapped
        assert not run(self.SRC, "oob", [1])[0].trapped

    def test_negative_length_traps(self):
        result, _ = run(self.SRC, "neg", [])
        assert result.trapped and "negative" in result.trap


class TestGlobals:
    SRC = """
global counter: int;
fn bump() -> int { counter = counter + 1; return counter; }
"""

    def test_globals_persist_across_calls(self):
        program = compile_source(self.SRC)
        interp = Interpreter(program)
        assert interp.run("bump", []).value == 1
        assert interp.run("bump", []).value == 2

    def test_reset_clears_globals(self):
        program = compile_source(self.SRC)
        interp = Interpreter(program)
        interp.run("bump", [])
        interp.reset()
        assert interp.run("bump", []).value == 1


class TestRecursion:
    def test_factorial(self):
        src = """
fn fact(n: int) -> int {
  if (n <= 1) { return 1; }
  return n * fact(n - 1);
}
"""
        assert run(src, "fact", [10])[0].value == 3628800

    def test_mutual_recursion(self):
        src = """
fn is_even(n: int) -> bool { if (n == 0) { return true; } return is_odd(n - 1); }
fn is_odd(n: int) -> bool { if (n == 0) { return false; } return is_even(n - 1); }
"""
        assert run(src, "is_even", [10])[0].value is True
        assert run(src, "is_even", [7])[0].value is False


class TestCycleCharging:
    def test_cycles_accumulate(self):
        program = compile_source("fn f(a: int, b: int) -> int { return a + b; }")
        interp = Interpreter(program, metered=True)
        result = interp.run("f", [1, 2])
        # Add (1 cycle) + Return (2 cycles)
        assert result.cycles == pytest.approx(3.0)

    def test_no_charging_by_default(self):
        result, _ = run("fn f() -> int { return 1 + 2; }", "f", [])
        assert result.cycles == 0.0


class TestDeepValue:
    def test_scalars_pass_through(self):
        assert deep_value(5) == 5
        assert deep_value(None) is None
        assert deep_value(True) is True

    def test_objects_structural(self):
        a = HeapObject("A", {"x": 1})
        b = HeapObject("A", {"x": 1})
        assert deep_value(a) == deep_value(b)
        b.fields["x"] = 2
        assert deep_value(a) != deep_value(b)

    def test_arrays_structural(self):
        assert deep_value(HeapArray([1, 2])) == deep_value(HeapArray([1, 2]))
        assert deep_value(HeapArray([1])) != deep_value(HeapArray([2]))

    def test_cyclic_heap_terminates(self):
        a = HeapObject("A", {"next": None})
        a.fields["next"] = a
        b = HeapObject("A", {"next": None})
        b.fields["next"] = b
        assert deep_value(a) == deep_value(b)

    def test_observable_outcome_includes_globals(self):
        program = compile_source(
            "global g: int;\nfn f() -> int { g = 7; return 1; }"
        )
        interp = Interpreter(program)
        result = interp.run("f", [])
        outcome = observable_outcome(result, interp.state)
        assert ("g", 7) in outcome[2]


class TestStackOverflow:
    SRC = """
fn rec(n: int) -> int {
  if (n <= 0) { return 0; }
  return 1 + rec(n - 1);
}
"""

    def test_deep_recursion_traps_cleanly(self):
        result, _ = run(self.SRC, "rec", [100_000])
        assert result.trapped and "stack overflow" in result.trap

    def test_shallow_recursion_fine(self):
        result, _ = run(self.SRC, "rec", [150])
        assert result.value == 150

    def test_depth_limit_is_max_call_depth(self):
        # rec(n) nests n + 1 frames: MAX_CALL_DEPTH fit, one more traps.
        interp = Interpreter(compile_source(self.SRC))
        limit = MAX_CALL_DEPTH
        assert interp.run("rec", [limit - 1]).value == limit - 1
        assert interp.run("rec", [limit]).trap == "stack overflow"
