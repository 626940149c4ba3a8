"""An executor for LIR: the back end's correctness oracle.

Runs lowered functions — before or after register allocation (operands
are virtual registers, physical registers or stack slots; all are
hashable keys into the frame) — with the same trap semantics as the IR
interpreter, so whole-backend differential tests are one comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..ir.ops import EvaluationTrap, check_array_length, eval_binop, eval_cmp, wrap64
from ..interp.interpreter import HeapArray, HeapObject
from .lir import (
    Immediate,
    LirArrayLength,
    LirArrayLoad,
    LirArrayStore,
    LirBinOp,
    LirBranch,
    LirCall,
    LirCmp,
    LirFunction,
    LirJump,
    LirLoadField,
    LirLoadGlobal,
    LirMove,
    LirNeg,
    LirNewArray,
    LirNewObject,
    LirNot,
    LirProgram,
    LirReturn,
    LirStoreField,
    LirStoreGlobal,
    Operand,
)


class MachineBudgetExceeded(Exception):
    """The machine hit its step budget."""


@dataclass
class MachineResult:
    value: Any = None
    trap: Optional[str] = None
    steps: int = 0

    @property
    def trapped(self) -> bool:
        return self.trap is not None


@dataclass
class Machine:
    """Executes a :class:`LirProgram`."""

    program: LirProgram
    max_steps: int = 50_000_000
    max_call_depth: int = 200
    globals: dict[str, Any] = field(default_factory=dict)
    _steps: int = 0
    _depth: int = 0

    def __post_init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.globals = {
            name: ty.default_value() for name, ty in self.program.globals.items()
        }
        self._steps = 0
        self._depth = 0

    # ------------------------------------------------------------------
    def run(self, function: str, args: list[Any]) -> MachineResult:
        try:
            value = self._call(self.program.function(function), args)
            return MachineResult(value=value, steps=self._steps)
        except EvaluationTrap as trap:
            return MachineResult(trap=str(trap), steps=self._steps)

    def _call(self, function: LirFunction, args: list[Any]) -> Any:
        if len(args) != len(function.param_regs):
            raise TypeError(
                f"{function.name} expects {len(function.param_regs)} args"
            )
        self._depth += 1
        try:
            if self._depth > self.max_call_depth:
                raise EvaluationTrap("stack overflow")
            return self._run_frame(function, args)
        finally:
            self._depth -= 1

    def _run_frame(self, function: LirFunction, args: list[Any]) -> Any:
        frame: dict[Operand, Any] = {}
        for reg, value in zip(function.param_regs, args):
            frame[reg] = value
        block = function.blocks[function.entry]
        index = 0
        while True:
            self._steps += 1
            if self._steps > self.max_steps:
                raise MachineBudgetExceeded(
                    f"exceeded {self.max_steps} machine steps"
                )
            ins = block.instructions[index]
            index += 1
            transfer = self._execute(ins, frame, function)
            if transfer is None:
                continue
            kind, payload = transfer
            if kind == "jump":
                block = function.blocks[payload]
                index = 0
            else:  # return
                return payload

    # ------------------------------------------------------------------
    def _value(self, operand: Operand, frame: dict) -> Any:
        if isinstance(operand, Immediate):
            return operand.value
        return frame[operand]

    def _execute(self, ins, frame: dict, function: LirFunction):
        val = self._value
        if isinstance(ins, LirMove):
            frame[ins.dst] = val(ins.src, frame)
            return None
        if isinstance(ins, LirBinOp):
            frame[ins.dst] = eval_binop(
                ins.op, val(ins.lhs, frame), val(ins.rhs, frame)
            )
            return None
        if isinstance(ins, LirCmp):
            frame[ins.dst] = eval_cmp(
                ins.op, val(ins.lhs, frame), val(ins.rhs, frame)
            )
            return None
        if isinstance(ins, LirNot):
            frame[ins.dst] = not val(ins.src, frame)
            return None
        if isinstance(ins, LirNeg):
            frame[ins.dst] = wrap64(-val(ins.src, frame))
            return None
        if isinstance(ins, LirNewObject):
            decl = self.program.class_table.lookup(ins.class_name)
            frame[ins.dst] = HeapObject(
                decl.name, {f.name: f.type.default_value() for f in decl.fields}
            )
            return None
        if isinstance(ins, LirLoadField):
            obj = val(ins.obj, frame)
            if obj is None:
                raise EvaluationTrap(f"null dereference reading .{ins.field_name}")
            frame[ins.dst] = obj.fields[ins.field_name]
            return None
        if isinstance(ins, LirStoreField):
            obj = val(ins.obj, frame)
            if obj is None:
                raise EvaluationTrap(f"null dereference writing .{ins.field_name}")
            obj.fields[ins.field_name] = val(ins.src, frame)
            return None
        if isinstance(ins, LirLoadGlobal):
            frame[ins.dst] = self.globals[ins.global_name]
            return None
        if isinstance(ins, LirStoreGlobal):
            self.globals[ins.global_name] = val(ins.src, frame)
            return None
        if isinstance(ins, LirNewArray):
            length = check_array_length(val(ins.length, frame))
            frame[ins.dst] = HeapArray(
                [ins.element_type.default_value()] * length
            )
            return None
        if isinstance(ins, LirArrayLoad):
            array, idx = val(ins.array, frame), val(ins.index, frame)
            self._check_array(array, idx)
            frame[ins.dst] = array.values[idx]
            return None
        if isinstance(ins, LirArrayStore):
            array, idx = val(ins.array, frame), val(ins.index, frame)
            self._check_array(array, idx)
            array.values[idx] = val(ins.src, frame)
            return None
        if isinstance(ins, LirArrayLength):
            array = val(ins.array, frame)
            if array is None:
                raise EvaluationTrap("null dereference in len()")
            frame[ins.dst] = len(array.values)
            return None
        if isinstance(ins, LirCall):
            callee = self.program.function(ins.callee)
            result = self._call(callee, [val(a, frame) for a in ins.args])
            if ins.dst is not None:
                frame[ins.dst] = result
            return None
        if isinstance(ins, LirJump):
            return ("jump", ins.target)
        if isinstance(ins, LirBranch):
            taken = bool(val(ins.condition, frame))
            return ("jump", ins.true_target if taken else ins.false_target)
        if isinstance(ins, LirReturn):
            return ("return", val(ins.src, frame) if ins.src is not None else None)
        raise AssertionError(f"cannot execute {type(ins).__name__}")

    @staticmethod
    def _check_array(array: Any, index: Any) -> None:
        if array is None:
            raise EvaluationTrap("null array access")
        if not 0 <= index < len(array.values):
            raise EvaluationTrap(f"array index {index} out of bounds")
