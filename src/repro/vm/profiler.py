"""Execution profiling for the bytecode VM.

Attributes simulated cycles and instruction counts **per opcode**, **per
basic block** and **per function**, plus collapsed call-stack weights
consumable by standard flamegraph tooling (Brendan Gregg's
``flamegraph.pl``, speedscope, inferno).  Surfaced on the CLI as the
``repro profile`` verb.

A profile is derived from block entries
---------------------------------------
In a run that returns, every block the run enters executes each of its
instructions once per entry, so a block's steps are its entries times
its length and its cycles its entries times its cost — the frequency ×
cost product DBDS's benefit model computes statically (paper §5.3).
The profile therefore needs no loop of its own: a
:class:`ProfilingVirtualMachine` is an ordinary profiling-mode
:class:`~repro.vm.machine.VirtualMachine` whose only override,
``_call``, keeps the current call stack on its
:class:`StackCollector`, and the collector's ``record_block`` — the
hook every profiling run already calls on each block entry — counts
entries per (call stack, block).  :class:`VMProfile` multiplies each
count by its block's instructions.  The measured loop is untouched.

Reconciliation
--------------
A profiling run does not meter, so :func:`profile_run` takes the
cycles and results from an ordinary measured run of the same bytecode
(``measure_performance`` on the megaunit engine: the number ``repro
run`` prints).  :meth:`VMProfile.reconciles` holds when the derived
cycles equal that run's and the derived steps equal both runs' step
counts.  Tables cover runs that return: an argument set whose measured
run traps is not profiled.

Function and stack weights are **exclusive** (callees excluded), which
is what collapsed-stack format requires — the sum over all stacks
equals the total.  A function's calls are its entry block's entries
(an entry block has no predecessors).
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Optional

from ..interp.interpreter import ExecutionResult, ProfileCollector
from ..ir.ops import MAX_STEPS
from .bytecode import OPCODE_NAMES, BytecodeProgram
from .machine import VirtualMachine

_NOPCODES = len(OPCODE_NAMES)


class StackCollector(ProfileCollector):
    """Block entries per call stack: ``entries[stack][block]``.

    Branch outcomes are not recorded; a profile needs only entries."""

    def __init__(self) -> None:
        super().__init__()
        self.entries: dict[tuple[str, ...], dict[Any, int]] = {}
        self.stack: tuple[str, ...] = ()
        self._current: dict[Any, int] = {}

    def enter(self, stack: tuple[str, ...]) -> None:
        """Make ``stack`` (``()``: outside any call) the one block
        entries count under."""
        self.stack = stack
        self._current = self.entries.setdefault(stack, {}) if stack else {}

    def record_block(self, block) -> None:
        current = self._current
        current[block] = current.get(block, 0) + 1

    def record_branch(self, branch, taken: bool) -> None:
        pass


class ProfilingVirtualMachine(VirtualMachine):
    """A profiling-mode :class:`VirtualMachine` (attach a
    :class:`StackCollector` as ``profile=``) that tells its collector
    which call stack each frame runs under."""

    def _call(self, fn, args):
        collector = self.profile
        caller = collector.stack
        collector.enter(caller + (fn.name,))
        try:
            return super()._call(fn, args)
        finally:
            collector.enter(caller)


class VMProfile:
    """Attribution derived from ``entries`` (a :class:`StackCollector`'s)
    over ``bytecode``; ``run_steps`` is the step count of the profiling
    runs the entries came from."""

    def __init__(
        self,
        bytecode: BytecodeProgram,
        entries: dict[tuple[str, ...], dict[Any, int]],
        run_steps: int,
    ) -> None:
        self.run_steps = run_steps
        self.opcode_steps: list[int] = [0] * _NOPCODES
        self.opcode_cycles: list[float] = [0.0] * _NOPCODES
        #: block object -> [function name, steps, cycles]
        self._blocks: dict[Any, list] = {}
        self.func_calls: dict[str, int] = {}
        self.func_steps: dict[str, int] = {}
        self.func_cycles: dict[str, float] = {}
        #: call-stack tuple -> exclusive cycles
        self.stacks: dict[tuple[str, ...], float] = {}
        #: block -> its instructions' (opcode, cost) pairs
        layout: dict[Any, list[tuple[int, Any]]] = {}
        for fn in bytecode.functions.values():
            for ins in fn.code:
                layout.setdefault(ins[2].block, []).append((ins[0], ins[1]))
        for stack, counts in entries.items():
            fn_name = stack[-1]
            entry_block = bytecode.functions[fn_name].entry_block
            stack_steps = 0
            stack_cycles = 0.0
            for block, n in counts.items():
                if block is entry_block:
                    self.func_calls[fn_name] = (
                        self.func_calls.get(fn_name, 0) + n
                    )
                steps = cycles = 0
                for op, cost in layout[block]:
                    self.opcode_steps[op] += n
                    self.opcode_cycles[op] += n * cost
                    steps += n
                    cycles += n * cost
                acc = self._blocks.setdefault(block, [fn_name, 0, 0])
                acc[1] += steps
                acc[2] += cycles
                stack_steps += steps
                stack_cycles += cycles
            self.func_steps[fn_name] = (
                self.func_steps.get(fn_name, 0) + stack_steps
            )
            self.func_cycles[fn_name] = (
                self.func_cycles.get(fn_name, 0.0) + stack_cycles
            )
            self.stacks[stack] = self.stacks.get(stack, 0.0) + stack_cycles

    # -- totals ---------------------------------------------------------
    @property
    def total_steps(self) -> int:
        return sum(self.opcode_steps)

    @property
    def total_cycles(self) -> float:
        return sum(self.opcode_cycles)

    def reconciles(self, cycles: float, steps: int) -> bool:
        """Do the derived totals match a measured run's ``cycles`` and
        ``steps``, and the profiling runs' steps, exactly?

        Cost-model cycles are integer-valued, so float summation is
        order-independent and exact; the tolerance only guards custom
        fractional cost models.
        """
        return self.total_steps == steps == self.run_steps and math.isclose(
            self.total_cycles, cycles, rel_tol=1e-9, abs_tol=1e-9
        )

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


def profile_run(
    program=None,
    entry: str = "main",
    arg_sets: Iterable[tuple] = ((),),
    *,
    bytecode: Optional[BytecodeProgram] = None,
    max_steps: int = MAX_STEPS,
) -> tuple[float, list[ExecutionResult], VMProfile]:
    """Execute ``entry`` over ``arg_sets``, measured and profiled.

    Returns ``(total metered cycles, per-run results, profile)``: the
    cycles and results of a measured run (see
    :func:`~repro.pipeline.front.measure_performance`), the profile of
    a :class:`ProfilingVirtualMachine` run of every argument set whose
    measured run returned.  Each run starts from fresh globals
    (run-to-run isolation) while the profile accumulates.
    """
    from ..pipeline.front import measure_performance

    if bytecode is None:
        if program is None:
            raise ValueError("need a program or pre-translated bytecode")
        from .translate import translate_program

        bytecode = translate_program(program)
    arg_sets = list(arg_sets)
    total, results = measure_performance(
        program, entry, arg_sets, max_steps=max_steps, bytecode=bytecode
    )
    collector = StackCollector()
    vm = ProfilingVirtualMachine(
        bytecode, max_steps=max_steps, profile=collector
    )
    steps = 0
    for args, result in zip(arg_sets, results):
        if not result.trapped:
            vm.reset()
            steps += vm.run(entry, list(args)).steps
    return total, results, VMProfile(bytecode, collector.entries, steps)
