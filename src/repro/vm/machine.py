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
from ..ir.ops import EvaluationTrap, _is_ref
from .bytecode import (
    OP_CALL,
    OP_GOTO,
    OP_IF,
    OP_RETURN,
    BytecodeFunction,
    BytecodeProgram,
)

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
    a, b = regs[ins[4]], regs[ins[5]]
    regs[ins[3]] = a is b if _is_ref(a) or _is_ref(b) else a == b
    return pc + 1


def _op_ne(vm, ins, regs, pc):
    a, b = regs[ins[4]], regs[ins[5]]
    regs[ins[3]] = not (a is b if _is_ref(a) or _is_ref(b) else a == b)
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
    length = regs[ins[4]]
    if length < 0:
        raise EvaluationTrap(f"negative array length {length}")
    regs[ins[3]] = HeapArray([ins[5]] * length)
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

#: extended handler table for the fused/quickened fast stream — base
#: opcodes first, then every opcode registered by repro.vm.fusion, then
#: every one registered by repro.vm.quicken.  Both load on demand, and
#: quicken imports fusion before it registers, so the order — and with
#: it every extended opcode number — is the same in every process and
#: safe to pickle into cached artifacts.
XHANDLERS: list = list(_HANDLERS)


def register_xop(handler: Callable) -> int:
    """Append ``handler`` to the extended table; returns its opcode."""
    XHANDLERS.append(handler)
    return len(XHANDLERS) - 1


#: extended opcodes the fast loops dispatch *inline* (if/elif on the
#: opcode instead of a handler call — in CPython the call is the
#: expensive part).  Bound by repro.vm.fusion once it has registered
#: its superinstructions; -1 (never a valid opcode) until then, which
#: safely disables the inline arms.
#: (spec_base, if_lt, if_gt, if_ge) — see bind_fast_ops.  The huge
#: sentinel spec_base disables the range arm until fusion binds it.
_UNBOUND = (1 << 30, -1, -1, -1)
_X_OPS = _UNBOUND


def bind_fast_ops(spec_base: int, if_lt: int, if_gt: int, if_ge: int) -> None:
    """Tell the fast loops how to dispatch extended opcodes inline.

    ``spec_base`` routes by *range*: every opcode >= ``spec_base`` must
    be a plain compute handler — it returns a non-negative next pc and
    is never a call, return or CFG terminator — so the fast loops
    dispatch it with a single compare and skip the return-pc check.
    Fusion's specialized pair/triple superinstructions and all of
    quickening's forms satisfy this by construction; anything
    registered through :func:`register_xop` after fusion's import must
    too.  The fused compare+branch opcodes sit below ``spec_base`` and
    the hottest three get dedicated inline arms.
    """
    global _X_OPS
    _X_OPS = (spec_base, if_lt, if_gt, if_ge)


def fast_op_bindings() -> tuple:
    """The current ``(spec_base, if_lt, if_gt, if_ge)`` inline-dispatch
    bindings — read-only view for the verifier and tests."""
    return _X_OPS


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
        fused: bool = True,
    ) -> None:
        self.bytecode = bytecode
        self.max_steps = max_steps
        self.metered = metered
        self.profile = profile
        self.max_call_depth = max_call_depth
        self.observer = observer
        #: ``fused=False`` pins the flat-tuple loops even when a fused
        #: stream exists (the bench engine matrix's "vm-nofuse" row).
        self.fused = fused
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
        if (
            self.fused
            and fn.xcode is not None
            and self.profile is None
            and self.observer is None
        ):
            return self._run_frame_fast(fn, args)
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

    # ------------------------------------------------------------------
    # Fused/quickened fast stream.  Only taken when neither a profile
    # collector nor an observer is attached: hooked runs fall back to
    # the flat-tuple loops above, which keeps hook semantics untouched
    # by construction.  Every ``xcode`` tuple carries a trailing step
    # weight (``ins[-1]``); superinstructions (weight 2 or 3)
    # additionally carry the tuple of their unfused prefix halves at
    # ``ins[-2]`` so the budget slow path can stop mid-run with exact
    # reference timing.
    # ------------------------------------------------------------------
    def _run_frame_fast(self, fn: BytecodeFunction, args: list[Any]) -> Any:
        if self._call_depth > self.max_call_depth:
            raise EvaluationTrap("stack overflow")
        if not fn.quickened:
            from .quicken import quicken_function

            quicken_function(fn)
        elif _X_OPS is _UNBOUND:
            # An artifact quickened in another process: load the
            # extended handlers its stream names before dispatching it.
            from . import quicken  # noqa: F401
        code = fn.xcode
        regs = fn.template[:]
        if args:
            regs[: len(args)] = args
        state = self.state
        max_steps = self.max_steps
        handlers = XHANDLERS
        # Every opcode >= x_spec is a plain compute handler (specialized
        # pair/triple superinstructions, quickened forms): one range
        # compare dispatches it and the return-pc check is skipped.
        # The hottest fused branches below x_spec get inline arms — an
        # int compare beats a handler call by a wide margin in CPython;
        # their bodies are line-identical to the registered handlers.
        x_spec, x_if_lt, x_if_gt, x_if_ge = _X_OPS
        steps = state.steps
        cycles = state.cycles
        pc = 0
        try:
            if self.metered:
                while True:
                    ins = code[pc]
                    steps += ins[-1]
                    if steps > max_steps:
                        self._budget_stop(ins, regs, pc, steps, cycles)
                    op = ins[0]
                    if op >= x_spec:
                        pc = handlers[op](self, ins, regs, pc)
                    elif op == x_if_lt:
                        c = regs[ins[4]] < regs[ins[5]]
                        regs[ins[3]] = c
                        edge = ins[6] if c else ins[7]
                        if edge[1]:
                            for d, s in edge[1]:
                                regs[d] = regs[s]
                        pc = edge[0]
                    elif op == OP_GOTO:
                        edge = ins[4]
                        if edge[1]:
                            for d, s in edge[1]:
                                regs[d] = regs[s]
                        pc = edge[0]
                    elif op == x_if_gt:
                        c = regs[ins[4]] > regs[ins[5]]
                        regs[ins[3]] = c
                        edge = ins[6] if c else ins[7]
                        if edge[1]:
                            for d, s in edge[1]:
                                regs[d] = regs[s]
                        pc = edge[0]
                    elif op == x_if_ge:
                        c = regs[ins[4]] >= regs[ins[5]]
                        regs[ins[3]] = c
                        edge = ins[6] if c else ins[7]
                        if edge[1]:
                            for d, s in edge[1]:
                                regs[d] = regs[s]
                        pc = edge[0]
                    elif op == OP_IF:
                        edge = ins[5] if regs[ins[4]] else ins[6]
                        if edge[1]:
                            for d, s in edge[1]:
                                regs[d] = regs[s]
                        pc = edge[0]
                    elif op == OP_RETURN:
                        state.steps = steps
                        state.cycles = cycles + ins[1]
                        return regs[ins[4]] if ins[4] >= 0 else None
                    elif op != OP_CALL:
                        pc = handlers[op](self, ins, regs, pc)
                        if pc < 0:
                            state.steps = steps
                            state.cycles = cycles + ins[1]
                            return self._retval
                    else:
                        # Direct frame dispatch: skips the _call and
                        # _run_frame layers.  Arity is correct by
                        # construction in translated bytecode, and the
                        # fast-frame preconditions (fused, no hooks)
                        # are invariant across frames of one run.
                        state.steps = steps
                        state.cycles = cycles
                        callee = ins[4]
                        self._call_depth += 1
                        try:
                            if callee.xcode is not None:
                                regs[ins[3]] = self._run_frame_fast(
                                    callee, [regs[r] for r in ins[5]]
                                )
                            else:
                                regs[ins[3]] = self._run_frame(
                                    callee, [regs[r] for r in ins[5]]
                                )
                        finally:
                            self._call_depth -= 1
                        steps = state.steps
                        cycles = state.cycles
                        pc += 1
                    cycles += ins[1]
            else:
                while True:
                    ins = code[pc]
                    steps += ins[-1]
                    if steps > max_steps:
                        self._budget_stop(ins, regs, pc, steps, cycles)
                    op = ins[0]
                    if op >= x_spec:
                        pc = handlers[op](self, ins, regs, pc)
                    elif op == x_if_lt:
                        c = regs[ins[4]] < regs[ins[5]]
                        regs[ins[3]] = c
                        edge = ins[6] if c else ins[7]
                        if edge[1]:
                            for d, s in edge[1]:
                                regs[d] = regs[s]
                        pc = edge[0]
                    elif op == OP_GOTO:
                        edge = ins[4]
                        if edge[1]:
                            for d, s in edge[1]:
                                regs[d] = regs[s]
                        pc = edge[0]
                    elif op == x_if_gt:
                        c = regs[ins[4]] > regs[ins[5]]
                        regs[ins[3]] = c
                        edge = ins[6] if c else ins[7]
                        if edge[1]:
                            for d, s in edge[1]:
                                regs[d] = regs[s]
                        pc = edge[0]
                    elif op == x_if_ge:
                        c = regs[ins[4]] >= regs[ins[5]]
                        regs[ins[3]] = c
                        edge = ins[6] if c else ins[7]
                        if edge[1]:
                            for d, s in edge[1]:
                                regs[d] = regs[s]
                        pc = edge[0]
                    elif op == OP_IF:
                        edge = ins[5] if regs[ins[4]] else ins[6]
                        if edge[1]:
                            for d, s in edge[1]:
                                regs[d] = regs[s]
                        pc = edge[0]
                    elif op == OP_RETURN:
                        state.steps = steps
                        state.cycles = cycles
                        return regs[ins[4]] if ins[4] >= 0 else None
                    elif op != OP_CALL:
                        pc = handlers[op](self, ins, regs, pc)
                        if pc < 0:
                            state.steps = steps
                            state.cycles = cycles
                            return self._retval
                    else:
                        # Same direct frame dispatch as the metered loop.
                        state.steps = steps
                        state.cycles = cycles
                        callee = ins[4]
                        self._call_depth += 1
                        try:
                            if callee.xcode is not None:
                                regs[ins[3]] = self._run_frame_fast(
                                    callee, [regs[r] for r in ins[5]]
                                )
                            else:
                                regs[ins[3]] = self._run_frame(
                                    callee, [regs[r] for r in ins[5]]
                                )
                        finally:
                            self._call_depth -= 1
                        steps = state.steps
                        cycles = state.cycles
                        pc += 1
        except EvaluationTrap:
            # Fused handlers never trap (fusion only combines
            # non-trapping ops), so a trapping instruction here always
            # has weight 1 — identical accounting to the base loops.
            if steps > state.steps:
                state.steps = steps
                state.cycles = cycles
            raise

    def _budget_stop(self, ins, regs, pc, steps, cycles) -> None:
        """Stop a fast-stream run with exact unfused budget timing.

        ``steps`` already includes the current tuple's full weight
        ``w``.  A weight-``w`` superinstruction carries its ``w - 1``
        unfused prefix halves at ``ins[-2]``; however many of them
        still fit the budget execute here through the base table
        (fusion guarantees they cannot trap), charging their steps and
        cycles, and only then the budget trips — bit-identical to the
        flat-tuple loop stopping inside the run.
        """
        state = self.state
        w = ins[-1]
        allowed = self.max_steps - (steps - w)
        if w == 1 or allowed <= 0:
            # The very first op of the tuple already lapses the budget:
            # nothing executes, exactly one step past the limit counts.
            state.steps = steps - w + 1
            state.cycles = cycles
        else:
            extra = 0
            for half in ins[-2][:allowed]:
                _HANDLERS[half[0]](self, half, regs, pc)
                extra += half[1]
            state.steps = steps - w + allowed + 1
            state.cycles = cycles + extra if self.metered else cycles
        raise BudgetExceeded(f"exceeded {self.max_steps} interpreter steps")
