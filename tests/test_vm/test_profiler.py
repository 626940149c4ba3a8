"""VM execution profiler: zero overhead and exact attribution.

Two contracts (docs/OBSERVABILITY.md):

* **zero overhead** — the profiled dispatch loop is a *separate
  specialization*; the default :class:`VirtualMachine` is untouched and
  a profiled run produces bit-identical outcomes, step counts and
  metered cycles to an unprofiled metered run;
* **exact reconciliation** — per-opcode cycle sums equal the metered
  total on every run (including trapped ones), and per-opcode step
  sums equal ``state.steps`` except after :class:`BudgetExceeded`
  (whose final step the machine counts but no opcode completes).
"""

import pytest

from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import BudgetExceeded, observable_outcome
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import DBDS
from repro.vm import VirtualMachine, translate_program
from repro.vm.bytecode import OPCODE_NAMES
from repro.vm.profiler import ProfilingVirtualMachine, profile_run

APPS = {
    "nqueens": ("examples/apps/nqueens.mini", [6]),
    "wordfreq": ("examples/apps/wordfreq.mini", [120]),
    "matrix": ("examples/apps/matrix.mini", [8]),
}

TRAP_DIV = """
fn main(n: int) -> int {
  return n / (n - n);
}
"""

RECURSIVE = """
fn add(a: int, b: int) -> int { return a + b; }
fn fib(n: int) -> int {
  if (n < 2) { return n; }
  return add(fib(n - 1), fib(n - 2));
}
fn main(n: int) -> int { return fib(n); }
"""


def metered_and_profiled(source: str, args):
    program = compile_source(source)
    bytecode = translate_program(program)
    base = VirtualMachine(bytecode)
    prof = ProfilingVirtualMachine(bytecode)
    ref = base.run("main", list(args))
    out = prof.run("main", list(args))
    return (base, ref), (prof, out)


# ----------------------------------------------------------------------
# Zero-overhead contract
# ----------------------------------------------------------------------
class TestZeroOverhead:
    def test_profiled_loop_is_a_separate_specialization(self):
        # The profiler must override the dispatch loop, never edit it:
        # the base class's _run_frame stays byte-for-byte what it was.
        assert (
            ProfilingVirtualMachine._run_frame
            is not VirtualMachine._run_frame
        )
        assert "vmprofile" not in VirtualMachine.__init__.__code__.co_names

    def test_profiler_pins_the_handler_fast_path(self):
        program = compile_source("fn main(n: int) -> int { return n; }")
        vm = ProfilingVirtualMachine(translate_program(program))
        # The shared opcode handlers branch on the collector; None keeps
        # them on the same fast edge path as a measured run, which
        # meters.
        assert vm.profile is None
        assert vm.metered

    @pytest.mark.parametrize("name", sorted(APPS))
    def test_identical_outcome_steps_cycles(self, name):
        path, args = APPS[name]
        (base, ref), (prof, out) = metered_and_profiled(
            open(path).read(), args
        )
        assert observable_outcome(ref, base.state) == observable_outcome(
            out, prof.state
        )
        assert ref.steps == out.steps
        assert ref.cycles == out.cycles

    def test_identical_on_optimized_program(self):
        source = open("examples/apps/nqueens.mini").read()
        program, _ = compile_and_profile(source, "main", [[5]], DBDS)
        bytecode = translate_program(program)
        ref = VirtualMachine(bytecode).run("main", [7])
        out = ProfilingVirtualMachine(bytecode).run("main", [7])
        assert (ref.value, ref.steps, ref.cycles) == (
            out.value,
            out.steps,
            out.cycles,
        )


# ----------------------------------------------------------------------
# Reconciliation
# ----------------------------------------------------------------------
class TestReconciliation:
    @pytest.mark.parametrize("name", sorted(APPS))
    def test_opcode_sums_match_metered_totals(self, name):
        path, args = APPS[name]
        _, (prof, out) = metered_and_profiled(open(path).read(), args)
        vmprofile = prof.vmprofile
        assert vmprofile.total_steps == prof.state.steps == out.steps
        assert vmprofile.total_cycles == prof.state.cycles == out.cycles
        assert vmprofile.reconciles(out.cycles)

    def test_function_and_block_sums_match_too(self):
        path, args = APPS["nqueens"]
        _, (prof, out) = metered_and_profiled(open(path).read(), args)
        vmprofile = prof.vmprofile
        assert sum(vmprofile.func_cycles.values()) == out.cycles
        assert sum(vmprofile.func_steps.values()) == out.steps
        assert sum(c for _, _, _, c in vmprofile.top_blocks(10**6)) == out.cycles
        assert sum(vmprofile.stacks.values()) == out.cycles

    def test_trapped_run_still_reconciles(self):
        # The trapping instruction counts a step but no cycles — in the
        # metered loop and in the profiler alike.
        (base, ref), (prof, out) = metered_and_profiled(TRAP_DIV, [3])
        assert ref.trapped and out.trapped
        assert ref.steps == out.steps and ref.cycles == out.cycles
        assert prof.vmprofile.total_steps == out.steps
        assert prof.vmprofile.reconciles(out.cycles)

    def test_budget_exceeded_cycles_reconcile(self):
        source = (
            "fn main(n: int) -> int {"
            " var i: int = 0; while (true) { i = i + 1; } return i; }"
        )
        program = compile_source(source)
        bytecode = translate_program(program)
        base = VirtualMachine(bytecode, max_steps=1000)
        prof = ProfilingVirtualMachine(bytecode, max_steps=1000)
        with pytest.raises(BudgetExceeded):
            base.run("main", [0])
        with pytest.raises(BudgetExceeded):
            prof.run("main", [0])
        assert base.state.steps == prof.state.steps
        assert base.state.cycles == prof.state.cycles
        # Cycle sums stay exact; the budget-raising step is counted by
        # the machine but attributed to no opcode.
        assert prof.vmprofile.reconciles(prof.state.cycles)
        assert prof.vmprofile.total_steps == prof.state.steps - 1


# ----------------------------------------------------------------------
# Attribution content and renderers
# ----------------------------------------------------------------------
class TestAttribution:
    def test_call_stacks_are_exclusive(self):
        total, results, vmprofile = profile_run(
            compile_source(RECURSIVE), arg_sets=[(8,)]
        )
        assert results[0].value == 21
        stacks = {";".join(k): v for k, v in vmprofile.stacks.items()}
        assert any(key.startswith("main;fib") for key in stacks)
        assert any("fib;add" in key for key in stacks)
        # Exclusive weights: stack sum equals the metered total.
        assert sum(stacks.values()) == total

    def test_collapsed_format(self):
        _, _, vmprofile = profile_run(compile_source(RECURSIVE), arg_sets=[(6,)])
        lines = vmprofile.collapsed().splitlines()
        assert lines == sorted(lines)
        for line in lines:
            frames, weight = line.rsplit(" ", 1)
            assert frames and int(weight) > 0

    def test_top_tables_and_format(self):
        _, _, vmprofile = profile_run(compile_source(RECURSIVE), arg_sets=[(6,)])
        opcodes = vmprofile.top_opcodes(3)
        assert len(opcodes) == 3
        assert all(name in OPCODE_NAMES for name, _, _ in opcodes)
        cycles = [c for _, _, c in opcodes]
        assert cycles == sorted(cycles, reverse=True)
        names = [name for name, _, _, _ in vmprofile.top_functions(10)]
        assert {"main", "fib", "add"} <= set(names)
        text = vmprofile.format(top=5)
        assert "opcode" in text and "function" in text and "block" in text

    def test_profile_accumulates_across_arg_sets(self):
        program = compile_source(RECURSIVE)
        _, _, once = profile_run(program, arg_sets=[(6,)])
        total, _, twice = profile_run(program, arg_sets=[(6,), (6,)])
        assert twice.total_steps == 2 * once.total_steps
        assert twice.reconciles(total)

    def test_json_export(self):
        _, _, vmprofile = profile_run(compile_source(RECURSIVE), arg_sets=[(5,)])
        data = vmprofile.to_json()
        assert data["schema"] == 1
        assert data["total_cycles"] == vmprofile.total_cycles
        assert sum(o["cycles"] for o in data["opcodes"]) == data["total_cycles"]
        assert sum(data["stacks"].values()) == data["total_cycles"]
