"""VM execution profiler: no loop of its own, and exact attribution.

Two contracts (docs/OBSERVABILITY.md):

* **zero overhead** — the profile is derived from an ordinary
  profiling-mode run: :class:`ProfilingVirtualMachine` overrides only
  ``_call`` (to keep the call stack), no dispatch loop is copied, and
  the profiled run has the measured run's outcome and step count;
* **exact reconciliation** — on a run that returns, the cycles and
  steps derived from block entries equal the measured run's totals
  (and the steps the profiling run's), per opcode, per function, per
  block and per stack.
"""

import ast
import pathlib

import pytest

import repro
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import observable_outcome
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import DBDS
from repro.vm import VirtualMachine, translate_program
from repro.vm.bytecode import OPCODE_NAMES
from repro.vm.profiler import (
    ProfilingVirtualMachine,
    StackCollector,
    profile_run,
)

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


def metered_and_profiled(bytecode, args):
    """A metered ``vm`` run and a profiling run of ``main(*args)``."""
    base = VirtualMachine(bytecode)
    prof = ProfilingVirtualMachine(bytecode, profile=StackCollector())
    ref = base.run("main", list(args))
    return (base, ref), (prof, prof.run("main", list(args)))


# ----------------------------------------------------------------------
# Zero-overhead contract
# ----------------------------------------------------------------------
class TestZeroOverhead:
    def test_the_profiler_copies_no_dispatch_loop(self):
        # Only the engines have a dispatch loop: the reference
        # interpreter, the vm loop, megaunit's and the LIR machine's.
        loops = set()
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef)
                    and item.name == "_run_frame"
                    for item in node.body
                ):
                    loops.add(node.name)
        assert loops == {
            "Interpreter", "VirtualMachine", "MegaunitVirtualMachine",
            "Machine",
        }
        own = [n for n in vars(ProfilingVirtualMachine) if not n.startswith("__")]
        assert own == ["_call"]

    def test_the_profiling_run_does_not_meter(self):
        program = compile_source(RECURSIVE)
        (_, ref), (prof, out) = metered_and_profiled(
            translate_program(program), [6]
        )
        # A profiling-mode run: the collector sees the block entries and
        # the run adds no cycles; the measured run meters.
        assert not prof.metered
        assert prof.profile.entries and out.cycles == 0.0
        assert ref.cycles > 0

    @pytest.mark.parametrize("name", sorted(APPS))
    def test_identical_outcome_steps_cycles(self, name):
        path, args = APPS[name]
        bytecode = translate_program(compile_source(open(path).read()))
        (base, ref), (prof, out) = metered_and_profiled(bytecode, args)
        assert observable_outcome(ref, base.state) == observable_outcome(
            out, prof.state
        )
        assert ref.steps == out.steps
        total, results, _ = profile_run(arg_sets=[tuple(args)], bytecode=bytecode)
        assert (results[0].value, results[0].steps) == (ref.value, ref.steps)
        assert total == results[0].cycles == ref.cycles

    def test_identical_on_optimized_program(self):
        source = open("examples/apps/nqueens.mini").read()
        program, _ = compile_and_profile(source, "main", [[5]], DBDS)
        bytecode = translate_program(program)
        ref = VirtualMachine(bytecode).run("main", [7])
        total, results, vmprofile = profile_run(
            program, arg_sets=[(7,)], bytecode=bytecode
        )
        out = results[0]
        assert (ref.value, ref.steps, ref.cycles) == (
            out.value,
            out.steps,
            total,
        )
        assert vmprofile.run_steps == ref.steps


# ----------------------------------------------------------------------
# Reconciliation
# ----------------------------------------------------------------------
class TestReconciliation:
    @pytest.mark.parametrize("name", sorted(APPS))
    def test_opcode_sums_match_metered_totals(self, name):
        path, args = APPS[name]
        total, results, vmprofile = profile_run(
            compile_source(open(path).read()), arg_sets=[tuple(args)]
        )
        out = results[0]
        assert vmprofile.total_steps == vmprofile.run_steps == out.steps
        assert vmprofile.total_cycles == total == out.cycles
        assert vmprofile.reconciles(out.cycles, out.steps)
        assert not vmprofile.reconciles(out.cycles + 1, out.steps)
        assert not vmprofile.reconciles(out.cycles, out.steps + 1)

    def test_function_and_block_sums_match_too(self):
        path, args = APPS["nqueens"]
        _, results, vmprofile = profile_run(
            compile_source(open(path).read()), arg_sets=[tuple(args)]
        )
        out = results[0]
        assert sum(vmprofile.func_cycles.values()) == out.cycles
        assert sum(vmprofile.func_steps.values()) == out.steps
        assert sum(c for _, _, _, c in vmprofile.top_blocks(10**6)) == out.cycles
        assert sum(vmprofile.stacks.values()) == out.cycles

    def test_a_trapping_run_is_not_profiled(self):
        # Tables cover runs that return; `repro profile` exits 1 on a
        # trap before printing any.
        total, results, vmprofile = profile_run(
            compile_source(TRAP_DIV), arg_sets=[(3,)]
        )
        assert results[0].trap == "division by zero"
        assert total == results[0].cycles
        assert vmprofile.total_steps == vmprofile.run_steps == 0
        assert not vmprofile.reconciles(total, results[0].steps)


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
        # A function's calls are its entry block's entries: fib(8) makes
        # 67 fib frames and 33 add frames.
        assert vmprofile.func_calls == {"main": 1, "fib": 67, "add": 33}

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
        total, results, twice = profile_run(program, arg_sets=[(6,), (6,)])
        assert twice.total_steps == 2 * once.total_steps
        assert twice.reconciles(total, sum(r.steps for r in results))

    def test_json_export(self):
        _, _, vmprofile = profile_run(compile_source(RECURSIVE), arg_sets=[(5,)])
        data = vmprofile.to_json()
        assert data["schema"] == 1
        assert data["total_cycles"] == vmprofile.total_cycles
        assert sum(o["cycles"] for o in data["opcodes"]) == data["total_cycles"]
        assert sum(data["stacks"].values()) == data["total_cycles"]
