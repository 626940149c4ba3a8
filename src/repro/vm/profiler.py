"""Execution profiling for the bytecode VM.

Attributes metered cycles and instruction counts **per opcode**, **per
basic block** and **per function**, plus collapsed call-stack weights
consumable by standard flamegraph tooling (Brendan Gregg's
``flamegraph.pl``, speedscope, inferno).  Surfaced on the CLI as the
``repro profile`` verb.

Zero-overhead contract
----------------------
The profiled dispatch loop is a **separate specialization**:
:class:`ProfilingVirtualMachine` overrides ``_run_frame`` with its own
copy of the metered loop plus attribution.  It attaches no
``profile=`` collector, so it meters and the shared opcode handlers
keep taking their fast edge paths.
:class:`~repro.vm.machine.VirtualMachine` itself is not touched — the
default VM pays nothing for the profiler's existence.
``tests/test_vm/test_profiler.py`` pins the override and the
instruction-stream identity; the CI bench gate (≥2× median VM speedup)
re-verifies the claim end to end.

Accounting contract (mirrors the metered loop exactly)
------------------------------------------------------
* every executed instruction counts one step attributed to its opcode;
* an instruction's cycles are attributed only once it *completes* —
  a trapping instruction counts a step but no cycles, exactly like the
  metered loop (which skips ``cycles += ins[1]`` on the trap path);
* the step that raises :class:`BudgetExceeded` is counted by the
  machine but attributed to no opcode (the loop raises before
  dispatch), so per-opcode step sums reconcile with ``state.steps``
  on every run that finishes or traps, and per-opcode cycle sums
  reconcile with ``state.cycles`` always.

Block and function attribution piggyback on the same points, so their
cycle sums reconcile too; function/stack weights are **exclusive**
(callees excluded), which is what collapsed-stack format requires —
the sum over all stacks equals the metered total.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Optional

from ..interp.interpreter import BudgetExceeded, ExecutionResult
from ..ir.ops import EvaluationTrap
from .bytecode import OP_CALL, OPCODE_NAMES, BytecodeProgram
from .machine import _HANDLERS, VirtualMachine

_NOPCODES = len(OPCODE_NAMES)


class VMProfile:
    """Accumulated attribution from one or more profiled executions:
    every tally is additive across runs."""

    def __init__(self) -> None:
        self.opcode_steps: list[int] = [0] * _NOPCODES
        self.opcode_cycles: list[float] = [0.0] * _NOPCODES
        #: block object -> [function name, steps, cycles]
        self._blocks: dict[Any, list] = {}
        self.func_calls: dict[str, int] = {}
        self.func_steps: dict[str, int] = {}
        self.func_cycles: dict[str, float] = {}
        #: call-stack tuple -> exclusive cycles
        self.stacks: dict[tuple[str, ...], float] = {}

    # -- totals ---------------------------------------------------------
    @property
    def total_steps(self) -> int:
        return sum(self.opcode_steps)

    @property
    def total_cycles(self) -> float:
        return sum(self.opcode_cycles)

    def reconciles(self, cycles: float) -> bool:
        """Do the per-opcode cycle sums match a metered total exactly?

        Cost-model cycles are integer-valued, so float summation is
        order-independent and exact; the tolerance only guards custom
        fractional cost models.
        """
        return math.isclose(
            self.total_cycles, cycles, rel_tol=1e-9, abs_tol=1e-9
        )

    # -- frame flush (called by the profiled loop) ----------------------
    def _flush_frame(
        self,
        fn_name: str,
        stack_key: tuple[str, ...],
        steps: int,
        cycles: float,
    ) -> None:
        self.func_calls[fn_name] = self.func_calls.get(fn_name, 0) + 1
        self.func_steps[fn_name] = self.func_steps.get(fn_name, 0) + steps
        self.func_cycles[fn_name] = self.func_cycles.get(fn_name, 0.0) + cycles
        self.stacks[stack_key] = self.stacks.get(stack_key, 0.0) + cycles

    # -- tables ---------------------------------------------------------
    def top_opcodes(self, n: int = 10) -> list[tuple[str, int, float]]:
        rows = [
            (OPCODE_NAMES[i], self.opcode_steps[i], self.opcode_cycles[i])
            for i in range(_NOPCODES)
            if self.opcode_steps[i]
        ]
        rows.sort(key=lambda r: (-r[2], -r[1], r[0]))
        return rows[:n]

    def top_functions(self, n: int = 10) -> list[tuple[str, int, int, float]]:
        rows = [
            (
                name,
                self.func_calls.get(name, 0),
                self.func_steps.get(name, 0),
                self.func_cycles.get(name, 0.0),
            )
            for name in self.func_calls
        ]
        rows.sort(key=lambda r: (-r[3], -r[2], r[0]))
        return rows[:n]

    def top_blocks(self, n: int = 10) -> list[tuple[str, str, int, float]]:
        rows = [
            (fn_name, block.name, steps, cycles)
            for block, (fn_name, steps, cycles) in self._blocks.items()
            if steps
        ]
        rows.sort(key=lambda r: (-r[3], -r[2], r[0], r[1]))
        return rows[:n]

    # -- renderers ------------------------------------------------------
    def format(self, top: int = 10) -> str:
        """The hot-path report ``repro profile`` prints."""
        total_cycles = self.total_cycles or 1.0
        lines = [
            f"profiled: {self.total_steps} step(s), "
            f"{self.total_cycles:g} cycle(s)",
            "",
            f"{'opcode':<14} {'steps':>10} {'cycles':>12} {'share':>7}",
        ]
        for name, steps, cycles in self.top_opcodes(top):
            lines.append(
                f"{name:<14} {steps:>10} {cycles:>12g} "
                f"{100.0 * cycles / total_cycles:>6.1f}%"
            )
        lines += [
            "",
            f"{'function':<20} {'calls':>8} {'steps':>10} "
            f"{'cycles':>12} {'share':>7}",
        ]
        for name, calls, steps, cycles in self.top_functions(top):
            lines.append(
                f"{name:<20} {calls:>8} {steps:>10} {cycles:>12g} "
                f"{100.0 * cycles / total_cycles:>6.1f}%"
            )
        lines += [
            "",
            f"{'block':<26} {'steps':>10} {'cycles':>12} {'share':>7}",
        ]
        for fn_name, block_name, steps, cycles in self.top_blocks(top):
            label = f"{fn_name}:{block_name}"
            lines.append(
                f"{label:<26} {steps:>10} {cycles:>12g} "
                f"{100.0 * cycles / total_cycles:>6.1f}%"
            )
        return "\n".join(lines)

    def collapsed(self) -> str:
        """Collapsed-stack lines (``a;b;c <weight>``) for flamegraphs.

        Weights are exclusive cycles rounded to integers (the format
        requires integer weights); zero-weight stacks are dropped.
        """
        lines = []
        for key in sorted(self.stacks):
            weight = int(round(self.stacks[key]))
            if weight > 0:
                lines.append(f"{';'.join(key)} {weight}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": 1,
            "total_steps": self.total_steps,
            "total_cycles": self.total_cycles,
            "opcodes": [
                {"opcode": name, "steps": steps, "cycles": cycles}
                for name, steps, cycles in self.top_opcodes(_NOPCODES)
            ],
            "functions": [
                {
                    "function": name,
                    "calls": calls,
                    "steps": steps,
                    "cycles": cycles,
                }
                for name, calls, steps, cycles in self.top_functions(
                    len(self.func_calls)
                )
            ],
            "blocks": [
                {
                    "function": fn_name,
                    "block": block_name,
                    "steps": steps,
                    "cycles": cycles,
                }
                for fn_name, block_name, steps, cycles in self.top_blocks(
                    len(self._blocks)
                )
            ],
            "stacks": {
                ";".join(key): cycles
                for key, cycles in sorted(self.stacks.items())
            },
        }


class ProfilingVirtualMachine(VirtualMachine):
    """A :class:`VirtualMachine` whose dispatch loop attributes cycles.

    Metered, like every machine without a ``profile=`` collector
    (attribution without metering is meaningless); the shared opcode
    handlers then take the same fast edge paths as a measured run.  Use
    the base class's ``profile=`` hook
    (:class:`~repro.interp.interpreter.ProfileCollector`) when you want
    branch probabilities for the compiler instead of a runtime profile.
    """

    def __init__(
        self,
        bytecode: BytecodeProgram,
        max_steps: int = 50_000_000,
        max_call_depth: int = 200,
    ) -> None:
        super().__init__(
            bytecode, max_steps=max_steps, max_call_depth=max_call_depth
        )
        self.vmprofile = VMProfile()
        self._stack: list[str] = []

    def _run_frame(self, fn, args):
        # A line-for-line copy of the base class's metered
        # specialization with attribution added; keep the two in sync
        # (test_profiler pins step/cycle parity against the base VM).
        if self._call_depth > self.max_call_depth:
            raise EvaluationTrap("stack overflow")
        regs = fn.template[:]
        if args:
            regs[: len(args)] = args
        state = self.state
        max_steps = self.max_steps
        handlers = _HANDLERS
        code = fn.code
        prof = self.vmprofile
        op_steps = prof.opcode_steps
        op_cycles = prof.opcode_cycles
        blocks = prof._blocks
        fn_name = fn.name
        stack = self._stack
        stack.append(fn_name)
        stack_key = tuple(stack)
        f_steps = 0
        f_cycles = 0.0
        steps = state.steps
        cycles = state.cycles
        pc = 0
        try:
            while True:
                ins = code[pc]
                steps += 1
                if steps > max_steps:
                    state.steps = steps
                    state.cycles = cycles
                    raise BudgetExceeded(
                        f"exceeded {max_steps} interpreter steps"
                    )
                op = ins[0]
                op_steps[op] += 1
                f_steps += 1
                if op != OP_CALL:
                    pc = handlers[op](self, ins, regs, pc)
                    if pc < 0:
                        cost = ins[1]
                        op_cycles[op] += cost
                        f_cycles += cost
                        block = ins[2].block
                        acc = blocks.get(block)
                        if acc is None:
                            blocks[block] = [fn_name, 1, cost]
                        else:
                            acc[1] += 1
                            acc[2] += cost
                        state.steps = steps
                        state.cycles = cycles + cost
                        return self._retval
                else:
                    state.steps = steps
                    state.cycles = cycles
                    regs[ins[3]] = self._call(
                        ins[4], [regs[r] for r in ins[5]]
                    )
                    steps = state.steps
                    cycles = state.cycles
                    pc += 1
                cost = ins[1]
                cycles += cost
                op_cycles[op] += cost
                f_cycles += cost
                block = ins[2].block
                acc = blocks.get(block)
                if acc is None:
                    blocks[block] = [fn_name, 1, cost]
                else:
                    acc[1] += 1
                    acc[2] += cost
        except EvaluationTrap:
            if steps > state.steps:
                state.steps = steps
                state.cycles = cycles
            raise
        finally:
            stack.pop()
            prof._flush_frame(fn_name, stack_key, f_steps, f_cycles)


def profile_run(
    program=None,
    entry: str = "main",
    arg_sets: Iterable[tuple] = ((),),
    *,
    bytecode: Optional[BytecodeProgram] = None,
    max_steps: int = 50_000_000,
) -> tuple[float, list[ExecutionResult], VMProfile]:
    """Execute ``entry`` over ``arg_sets`` under the profiling VM.

    Returns ``(total metered cycles, per-run results, profile)``.  The
    machine is reset between argument sets (run-to-run isolation, like
    ``measure_performance``) while the profile accumulates across all
    of them.
    """
    if bytecode is None:
        if program is None:
            raise ValueError("need a program or pre-translated bytecode")
        from .translate import translate_program

        bytecode = translate_program(program)
    vm = ProfilingVirtualMachine(bytecode, max_steps=max_steps)
    total = 0.0
    results: list[ExecutionResult] = []
    for args in arg_sets:
        vm.reset()
        result = vm.run(entry, list(args))
        results.append(result)
        total += result.cycles
    return total, results, vm.vmprofile
