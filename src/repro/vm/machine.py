"""The bytecode machine: a flat register file and a handler table.

Executes :class:`~repro.vm.bytecode.BytecodeProgram` with exactly the
reference interpreter's observable semantics:

* shared runtime types (:class:`HeapObject`, :class:`HeapArray`,
  :class:`ExecutionResult`, :class:`InterpreterState`) and identical
  trap messages, raised as :class:`EvaluationTrap`;
* identical step accounting — one step per executed instruction or
  terminator, zero for phis — and the same
  :class:`BudgetExceeded` timing (checked before executing);
* the same profile hooks (``record_block`` on every block entry,
  ``record_branch`` per ``If``) and the same
  ``observer(instruction, value)`` callback per produced value;
* metered runs accumulate the costs baked into the tuples, matching
  the reference's ``cycle_cost=cycles_of`` totals.

The dispatch loop keeps ``steps``/``cycles`` in Python locals and
flushes them to the shared :class:`InterpreterState` around calls,
returns and traps — the single biggest win over attribute traffic in
an inner loop.  Calls are the one opcode dispatched inline (they need
the flush); everything else indexes ``_HANDLERS``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..interp.interpreter import (
    BudgetExceeded,
    ExecutionResult,
    HeapArray,
    HeapObject,
    InterpreterState,
    ProfileCollector,
)
from ..ir.ops import EvaluationTrap, check_array_length
from .bytecode import OP_CALL, BytecodeFunction, BytecodeProgram

_MASK = (1 << 64) - 1
_SIGN = 1 << 63
_TWO64 = 1 << 64


# ----------------------------------------------------------------------
# Handlers.  Uniform signature (vm, ins, regs, pc) -> next pc; a
# negative pc means "return from frame" (the value is in vm._retval).
# Arithmetic inlines the wrap64/eval_binop semantics of repro.ir.ops.
# ----------------------------------------------------------------------
def _op_add(vm, ins, regs, pc):
    v = (regs[ins[4]] + regs[ins[5]]) & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_sub(vm, ins, regs, pc):
    v = (regs[ins[4]] - regs[ins[5]]) & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_mul(vm, ins, regs, pc):
    v = (regs[ins[4]] * regs[ins[5]]) & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_div(vm, ins, regs, pc):
    b = regs[ins[5]]
    if b == 0:
        raise EvaluationTrap("division by zero")
    a = regs[ins[4]]
    q = abs(a) // abs(b)  # truncate toward zero (Python's // floors)
    if (a >= 0) != (b >= 0):
        q = -q
    v = q & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_mod(vm, ins, regs, pc):
    b = regs[ins[5]]
    if b == 0:
        raise EvaluationTrap("modulo by zero")
    a = regs[ins[4]]
    r = abs(a) % abs(b)
    if a < 0:
        r = -r
    v = r & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_and(vm, ins, regs, pc):
    v = (regs[ins[4]] & regs[ins[5]]) & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_or(vm, ins, regs, pc):
    v = (regs[ins[4]] | regs[ins[5]]) & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_xor(vm, ins, regs, pc):
    v = (regs[ins[4]] ^ regs[ins[5]]) & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_shl(vm, ins, regs, pc):
    v = (regs[ins[4]] << (regs[ins[5]] & 63)) & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_shr(vm, ins, regs, pc):
    v = (regs[ins[4]] >> (regs[ins[5]] & 63)) & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_ushr(vm, ins, regs, pc):
    v = ((regs[ins[4]] & _MASK) >> (regs[ins[5]] & 63)) & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_eq(vm, ins, regs, pc):
    regs[ins[3]] = regs[ins[4]] == regs[ins[5]]
    return pc + 1


def _op_ne(vm, ins, regs, pc):
    regs[ins[3]] = regs[ins[4]] != regs[ins[5]]
    return pc + 1


def _op_lt(vm, ins, regs, pc):
    regs[ins[3]] = regs[ins[4]] < regs[ins[5]]
    return pc + 1


def _op_le(vm, ins, regs, pc):
    regs[ins[3]] = regs[ins[4]] <= regs[ins[5]]
    return pc + 1


def _op_gt(vm, ins, regs, pc):
    regs[ins[3]] = regs[ins[4]] > regs[ins[5]]
    return pc + 1


def _op_ge(vm, ins, regs, pc):
    regs[ins[3]] = regs[ins[4]] >= regs[ins[5]]
    return pc + 1


def _op_not(vm, ins, regs, pc):
    regs[ins[3]] = not regs[ins[4]]
    return pc + 1


def _op_neg(vm, ins, regs, pc):
    v = (-regs[ins[4]]) & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_new(vm, ins, regs, pc):
    regs[ins[3]] = HeapObject(ins[4], dict(ins[5]))
    return pc + 1


def _op_load_field(vm, ins, regs, pc):
    obj = regs[ins[4]]
    if obj is None:
        raise EvaluationTrap(f"null dereference reading .{ins[5]}")
    regs[ins[3]] = obj.fields[ins[5]]
    return pc + 1


def _op_store_field(vm, ins, regs, pc):
    obj = regs[ins[4]]
    if obj is None:
        raise EvaluationTrap(f"null dereference writing .{ins[5]}")
    obj.fields[ins[5]] = regs[ins[6]]
    regs[ins[3]] = None
    return pc + 1


def _op_load_global(vm, ins, regs, pc):
    regs[ins[3]] = vm.state.globals[ins[4]]
    return pc + 1


def _op_store_global(vm, ins, regs, pc):
    vm.state.globals[ins[4]] = regs[ins[5]]
    regs[ins[3]] = None
    return pc + 1


def _op_new_array(vm, ins, regs, pc):
    regs[ins[3]] = HeapArray([ins[5]] * check_array_length(regs[ins[4]]))
    return pc + 1


def _op_array_load(vm, ins, regs, pc):
    array = regs[ins[4]]
    if array is None:
        raise EvaluationTrap("null array access")
    index = regs[ins[5]]
    if 0 <= index < len(array.values):
        regs[ins[3]] = array.values[index]
        return pc + 1
    raise EvaluationTrap(f"array index {index} out of bounds")


def _op_array_store(vm, ins, regs, pc):
    array = regs[ins[4]]
    if array is None:
        raise EvaluationTrap("null array access")
    index = regs[ins[5]]
    if 0 <= index < len(array.values):
        array.values[index] = regs[ins[6]]
        regs[ins[3]] = None
        return pc + 1
    raise EvaluationTrap(f"array index {index} out of bounds")


def _op_array_length(vm, ins, regs, pc):
    array = regs[ins[4]]
    if array is None:
        raise EvaluationTrap("null dereference in len()")
    regs[ins[3]] = len(array.values)
    return pc + 1


def _op_call(vm, ins, regs, pc):  # pragma: no cover - dispatched inline
    raise AssertionError("calls are dispatched inline by the frame loop")


def _take_edge(vm, regs, edge):
    """Complete one CFG edge: profile hook, phi moves, observers."""
    if vm.profile is not None:
        vm.profile.record_block(edge[3])
    for d, s in edge[1]:
        regs[d] = regs[s]
    if vm.observer is not None:
        for phi, dreg in edge[2]:
            vm.observer(phi, regs[dreg])
    return edge[0]


def _op_goto(vm, ins, regs, pc):
    edge = ins[4]
    if vm.profile is None and vm.observer is None and not edge[1]:
        return edge[0]
    return _take_edge(vm, regs, edge)


def _op_if(vm, ins, regs, pc):
    if regs[ins[4]]:
        taken, edge = True, ins[5]
    else:
        taken, edge = False, ins[6]
    if vm.profile is not None:
        vm.profile.record_branch(ins[2], taken)
    if vm.profile is None and vm.observer is None and not edge[1]:
        return edge[0]
    return _take_edge(vm, regs, edge)


def _op_return(vm, ins, regs, pc):
    vm._retval = regs[ins[4]] if ins[4] >= 0 else None
    return -1


_HANDLERS: tuple[Callable, ...] = (
    _op_add, _op_sub, _op_mul, _op_div, _op_mod,
    _op_and, _op_or, _op_xor, _op_shl, _op_shr, _op_ushr,
    _op_eq, _op_ne, _op_lt, _op_le, _op_gt, _op_ge,
    _op_not, _op_neg, _op_new,
    _op_load_field, _op_store_field, _op_load_global, _op_store_global,
    _op_new_array, _op_array_load, _op_array_store, _op_array_length,
    _op_call, _op_goto, _op_if, _op_return,
)

class VirtualMachine:
    """Drop-in execution engine with the reference interpreter's API.

    ``run``/``reset``/``state`` mirror :class:`repro.interp.Interpreter`
    so harness code can treat both engines uniformly.  Metering is a
    boolean (costs are baked into the bytecode at translation time);
    translate with custom cost functions for a non-default model.
    """

    def __init__(
        self,
        bytecode: BytecodeProgram,
        max_steps: int = 50_000_000,
        metered: bool = False,
        profile: Optional[ProfileCollector] = None,
        max_call_depth: int = 200,
        observer: Optional[Callable[[Any, Any], None]] = None,
    ) -> None:
        self.bytecode = bytecode
        self.max_steps = max_steps
        self.metered = metered
        self.profile = profile
        self.max_call_depth = max_call_depth
        self.observer = observer
        self._call_depth = 0
        self._retval: Any = None
        self.state = InterpreterState()
        self._init_globals()

    @classmethod
    def for_program(cls, program, **kwargs) -> "VirtualMachine":
        """Translate ``program`` and build a machine for it."""
        from .translate import translate_program

        return cls(translate_program(program), **kwargs)

    def _init_globals(self) -> None:
        self.state.globals = dict(self.bytecode.globals_init)

    def reset(self) -> None:
        """Fresh globals and meters (run-to-run isolation)."""
        self.state = InterpreterState()
        self._init_globals()

    # ------------------------------------------------------------------
    def run(self, function: str, args: list[Any]) -> ExecutionResult:
        """Call ``function`` with ``args`` and capture the outcome."""
        fn = self.bytecode.functions[function]
        try:
            value = self._call(fn, list(args))
            return ExecutionResult(
                value=value, steps=self.state.steps, cycles=self.state.cycles
            )
        except EvaluationTrap as trap:
            return ExecutionResult(
                trap=str(trap), steps=self.state.steps, cycles=self.state.cycles
            )

    def _call(self, fn: BytecodeFunction, args: list[Any]) -> Any:
        if len(args) != fn.nparams:
            raise TypeError(
                f"{fn.name} expects {fn.nparams} args, got {len(args)}"
            )
        self._call_depth += 1
        try:
            return self._run_frame(fn, args)
        finally:
            self._call_depth -= 1

    def _run_frame(self, fn: BytecodeFunction, args: list[Any]) -> Any:
        if self._call_depth > self.max_call_depth:
            raise EvaluationTrap("stack overflow")
        regs = fn.template[:]
        if args:
            regs[: len(args)] = args
        if self.profile is not None:
            self.profile.record_block(fn.entry_block)
        state = self.state
        max_steps = self.max_steps
        metered = self.metered
        observer = self.observer
        handlers = _HANDLERS
        code = fn.code
        # Hot loop: steps/cycles live in locals, flushed to the shared
        # state around calls, returns and traps (see module docstring).
        # Three specializations keep per-instruction branching minimal;
        # they are line-for-line identical except for metering/observer.
        steps = state.steps
        cycles = state.cycles
        pc = 0
        try:
            if observer is None and metered:
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
                    if op != OP_CALL:
                        pc = handlers[op](self, ins, regs, pc)
                        if pc < 0:
                            # Return: charge its cost like any terminator.
                            state.steps = steps
                            state.cycles = cycles + ins[1]
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
                    cycles += ins[1]
            elif observer is None:
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
                    if op != OP_CALL:
                        pc = handlers[op](self, ins, regs, pc)
                        if pc < 0:
                            state.steps = steps
                            state.cycles = cycles
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
            else:
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
                    if op != OP_CALL:
                        pc = handlers[op](self, ins, regs, pc)
                        if pc < 0:
                            state.steps = steps
                            state.cycles = cycles + ins[1] if metered else cycles
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
                    if metered:
                        cycles += ins[1]
                    if ins[3] >= 0:
                        observer(ins[2], regs[ins[3]])
        except EvaluationTrap:
            # A trap from a nested call already flushed fresher values.
            if steps > state.steps:
                state.steps = steps
                state.cycles = cycles
            raise
