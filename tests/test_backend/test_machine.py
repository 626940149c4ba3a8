"""Differential tests: the full back end against the IR interpreter."""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.progen import random_program
from repro.backend import Machine, compile_to_machine
from repro.backend.machine import MachineBudgetExceeded
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import Interpreter, deep_value
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import DBDS, DUPALOT


def machine_outcome(machine: Machine, entry: str, args):
    machine.reset()
    result = machine.run(entry, args)
    return (
        deep_value(result.value),
        result.trap,
        tuple((k, deep_value(v)) for k, v in sorted(machine.globals.items())),
    )


def interp_outcome(program, entry: str, args):
    interp = Interpreter(program)
    result = interp.run(entry, args)
    from repro.interp.interpreter import observable_outcome

    return observable_outcome(result, interp.state)


class TestBasics:
    def test_trap_propagation(self):
        program = compile_source("fn f(x: int) -> int { return 10 / x; }")
        machine = Machine(compile_to_machine(program))
        result = machine.run("f", [0])
        assert result.trapped and "zero" in result.trap

    def test_globals_isolated_by_reset(self):
        program = compile_source(
            "global g: int;\nfn f() -> int { g = g + 1; return g; }"
        )
        machine = Machine(compile_to_machine(program))
        assert machine.run("f", []).value == 1
        assert machine.run("f", []).value == 2
        machine.reset()
        assert machine.run("f", []).value == 1

    def test_step_budget(self):
        program = compile_source(
            "fn f() -> int { var i: int = 0; while (i >= 0) { i = 0; } return i; }"
        )
        machine = Machine(compile_to_machine(program), max_steps=500)
        with pytest.raises(MachineBudgetExceeded):
            machine.run("f", [])

    def test_objects_and_arrays(self):
        program = compile_source(
            """
class P { a: int; b: int; }
fn f(n: int) -> int {
  var xs: int[] = new int[n];
  var p: P = new P { a = 1 };
  var i: int = 0;
  while (i < n) { xs[i] = p.a + i; p.a = p.a + 1; i = i + 1; }
  var s: int = 0;
  i = 0;
  while (i < n) { s = s + xs[i]; i = i + 1; }
  return s;
}
"""
        )
        expected = Interpreter(program).run("f", [6]).value
        assert Machine(compile_to_machine(program)).run("f", [6]).value == expected


ARGS = [[0], [1], [4], [9]]


class TestDifferential:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(min_value=0, max_value=10_000))
    def test_machine_matches_interpreter_on_random_programs(self, seed):
        source = random_program(seed)
        program = compile_source(source)
        lir = compile_to_machine(program)
        machine = Machine(lir)
        for args in ARGS:
            assert machine_outcome(machine, "main", args) == interp_outcome(
                program, "main", args
            ), f"backend diverged for seed {seed}, args {args}\n{source}"

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(min_value=0, max_value=10_000))
    def test_backend_after_dbds_optimization(self, seed):
        """The whole story: frontend -> profile -> DBDS -> backend must
        equal the plain interpretation of the unoptimized program."""
        source = random_program(seed)
        reference_program = compile_source(source)
        optimized, _ = compile_and_profile(source, "main", ARGS[:2], DBDS)
        machine = Machine(compile_to_machine(optimized))
        for args in ARGS:
            assert machine_outcome(machine, "main", args) == interp_outcome(
                reference_program, "main", args
            ), f"DBDS+backend diverged for seed {seed}\n{source}"

    def test_few_registers_full_pipeline(self):
        source = random_program(77)
        reference = compile_source(source)
        optimized, _ = compile_and_profile(source, "main", ARGS[:2], DUPALOT)
        machine = Machine(compile_to_machine(optimized, register_count=3))
        for args in ARGS:
            assert machine_outcome(machine, "main", args) == interp_outcome(
                reference, "main", args
            )


class TestMachineStackOverflow:
    def test_machine_traps_on_deep_recursion(self):
        program = compile_source(
            "fn rec(n: int) -> int { if (n <= 0) { return 0; } return 1 + rec(n - 1); }"
        )
        machine = Machine(compile_to_machine(program))
        result = machine.run("rec", [100_000])
        assert result.trapped and "stack overflow" in result.trap

    def test_machine_matches_interpreter_on_overflow(self):
        program = compile_source(
            "fn rec(n: int) -> int { if (n <= 0) { return 0; } return 1 + rec(n - 1); }"
        )
        interp_result = Interpreter(program).run("rec", [100_000])
        machine_result = Machine(compile_to_machine(program)).run("rec", [100_000])
        assert interp_result.trap == machine_result.trap
