"""Reference interpreter for IR programs.

Three roles:

* **Semantics oracle** — optimized and unoptimized programs must produce
  identical observable results (return value, reachable heap, globals,
  traps); the test suite runs both and compares.
* **Profile oracle** — the ``profile=`` hook records branch-taken
  counts and block entries.  The compiler's profile (consumed exactly
  like Graal consumes HotSpot profiles, Section 5.3) is collected on
  the bytecode VM by :func:`repro.interp.profile.profile_program`; the
  parity tests demand it equal this hook's counts.
* **Performance simulator** — executions can be charged node-cost-model
  cycles per executed instruction, giving the "peak performance" metric
  of the evaluation (see DESIGN.md for why this substitution is sound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..ir.block import Block
from ..ir.graph import Graph, Program
from ..ir.nodes import (
    ArithOp,
    ArrayLength,
    ArrayLoad,
    ArrayStore,
    Call,
    Compare,
    Constant,
    Goto,
    If,
    Instruction,
    LoadField,
    LoadGlobal,
    Neg,
    New,
    NewArray,
    Not,
    Parameter,
    Phi,
    Return,
    StoreField,
    StoreGlobal,
    Value,
)
from ..ir.ops import (
    EvaluationTrap,
    check_array_length,
    eval_binop,
    eval_cmp,
    wrap64,
)


class BudgetExceeded(Exception):
    """The interpreter hit its step budget (runaway loop guard)."""


class HeapObject:
    """A runtime object instance."""

    __slots__ = ("class_name", "fields")

    def __init__(self, class_name: str, fields: dict[str, Any]) -> None:
        self.class_name = class_name
        self.fields = fields

    def __repr__(self) -> str:
        return f"<{self.class_name}@{id(self):#x}>"


class HeapArray:
    """A runtime array instance."""

    __slots__ = ("values",)

    def __init__(self, values: list[Any]) -> None:
        self.values = values

    def __repr__(self) -> str:
        return f"<array[{len(self.values)}]>"


@dataclass
class ExecutionResult:
    """Outcome of one interpreted call."""

    value: Any = None
    trap: Optional[str] = None
    steps: int = 0
    cycles: float = 0.0

    @property
    def trapped(self) -> bool:
        return self.trap is not None


@dataclass
class InterpreterState:
    """Mutable cross-call state: globals, step counter, cycle meter."""

    globals: dict[str, Any] = field(default_factory=dict)
    steps: int = 0
    cycles: float = 0.0


class Interpreter:
    """Executes IR programs; see module docstring for the three roles."""

    def __init__(
        self,
        program: Program,
        max_steps: int = 50_000_000,
        cycle_cost: Optional[Callable[[Instruction], float]] = None,
        terminator_cost: Optional[Callable[[Any], float]] = None,
        profile: Optional["ProfileCollector"] = None,
        max_call_depth: int = 200,
        observer: Optional[Callable[[Instruction, Any], None]] = None,
    ) -> None:
        self.program = program
        self.max_steps = max_steps
        self.cycle_cost = cycle_cost
        self.terminator_cost = terminator_cost
        self.profile = profile
        self.max_call_depth = max_call_depth
        #: called with (instruction, produced value) after every
        #: execution step — the hook dynamic stamp checking plugs into
        self.observer = observer
        self._call_depth = 0
        self.state = InterpreterState()
        self._init_globals()

    def _init_globals(self) -> None:
        self.state.globals = {
            name: ty.default_value() for name, ty in self.program.globals.items()
        }

    def reset(self) -> None:
        """Fresh globals and meters (run-to-run isolation)."""
        self.state = InterpreterState()
        self._init_globals()

    # ------------------------------------------------------------------
    def run(self, function: str, args: list[Any]) -> ExecutionResult:
        """Call ``function`` with ``args`` and capture the outcome."""
        graph = self.program.function(function)
        try:
            value = self._call(graph, args)
            return ExecutionResult(
                value=value, steps=self.state.steps, cycles=self.state.cycles
            )
        except EvaluationTrap as trap:
            return ExecutionResult(
                trap=str(trap), steps=self.state.steps, cycles=self.state.cycles
            )

    def _call(self, graph: Graph, args: list[Any]) -> Any:
        if len(args) != len(graph.parameters):
            raise TypeError(
                f"{graph.name} expects {len(graph.parameters)} args, got {len(args)}"
            )
        self._call_depth += 1
        try:
            return self._run_frame(graph, args)
        finally:
            self._call_depth -= 1

    def _run_frame(self, graph: Graph, args: list[Any]) -> Any:
        if self._call_depth > self.max_call_depth:
            raise EvaluationTrap("stack overflow")
        env: dict[Value, Any] = {}
        for param, arg in zip(graph.parameters, args):
            env[param] = arg

        block = graph.entry
        pred: Optional[Block] = None
        while True:
            self._charge_block_entry(block, pred, env)
            for instruction in block.instructions:
                self._step()
                env[instruction] = self._execute(instruction, env)
                if self.observer is not None:
                    self.observer(instruction, env[instruction])
                if self.cycle_cost is not None:
                    self.state.cycles += self.cycle_cost(instruction)
            terminator = block.terminator
            self._step()
            if self.terminator_cost is not None:
                self.state.cycles += self.terminator_cost(terminator)
            if isinstance(terminator, Return):
                if terminator.value is None:
                    return None
                return self._value_of(terminator.value, env)
            if isinstance(terminator, Goto):
                pred, block = block, terminator.target
                continue
            if isinstance(terminator, If):
                taken = bool(self._value_of(terminator.condition, env))
                if self.profile is not None:
                    self.profile.record_branch(terminator, taken)
                pred, block = (
                    block,
                    terminator.true_target if taken else terminator.false_target,
                )
                continue
            raise AssertionError(f"unknown terminator {terminator!r}")

    def _charge_block_entry(
        self, block: Block, pred: Optional[Block], env: dict[Value, Any]
    ) -> None:
        if self.profile is not None:
            self.profile.record_block(block)
        if not block.phis:
            return
        assert pred is not None, "phis in entry block"
        index = block.predecessor_index(pred)
        # Parallel phi semantics: read all inputs before writing any.
        values = [self._value_of(phi.input(index), env) for phi in block.phis]
        for phi, value in zip(block.phis, values):
            env[phi] = value
            if self.observer is not None:
                self.observer(phi, value)
            if self.cycle_cost is not None:
                self.state.cycles += self.cycle_cost(phi)

    def _step(self) -> None:
        self.state.steps += 1
        if self.state.steps > self.max_steps:
            raise BudgetExceeded(f"exceeded {self.max_steps} interpreter steps")

    def _value_of(self, value: Value, env: dict[Value, Any]) -> Any:
        if isinstance(value, Constant):
            return value.value
        return env[value]

    # ------------------------------------------------------------------
    # Execution is dispatched through a type-keyed handler table (the
    # _exec_* methods below); _resolve_handler walks the MRO once so
    # downstream node subclasses inherit their base class's handler.
    # ------------------------------------------------------------------
    def _execute(self, ins: Instruction, env: dict[Value, Any]) -> Any:
        cls = type(ins)
        handler = _EXEC_HANDLERS.get(cls)
        if handler is None:
            handler = _resolve_handler(cls)
        return handler(self, ins, env)

    def _exec_arith(self, ins: ArithOp, env) -> Any:
        return eval_binop(
            ins.op, self._value_of(ins.x, env), self._value_of(ins.y, env)
        )

    def _exec_compare(self, ins: Compare, env) -> Any:
        return eval_cmp(
            ins.op, self._value_of(ins.x, env), self._value_of(ins.y, env)
        )

    def _exec_not(self, ins: Not, env) -> Any:
        return not self._value_of(ins.x, env)

    def _exec_neg(self, ins: Neg, env) -> Any:
        return wrap64(-self._value_of(ins.x, env))

    def _exec_new(self, ins: New, env) -> Any:
        decl = self.program.class_table.lookup(ins.object_type.class_name)
        return HeapObject(
            decl.name, {f.name: f.type.default_value() for f in decl.fields}
        )

    def _exec_load_field(self, ins: LoadField, env) -> Any:
        obj = self._value_of(ins.obj, env)
        if obj is None:
            raise EvaluationTrap(f"null dereference reading .{ins.field}")
        return obj.fields[ins.field]

    def _exec_store_field(self, ins: StoreField, env) -> Any:
        obj = self._value_of(ins.obj, env)
        if obj is None:
            raise EvaluationTrap(f"null dereference writing .{ins.field}")
        obj.fields[ins.field] = self._value_of(ins.value, env)
        return None

    def _exec_load_global(self, ins: LoadGlobal, env) -> Any:
        return self.state.globals[ins.global_name]

    def _exec_store_global(self, ins: StoreGlobal, env) -> Any:
        self.state.globals[ins.global_name] = self._value_of(ins.value, env)
        return None

    def _exec_new_array(self, ins: NewArray, env) -> Any:
        length = check_array_length(self._value_of(ins.length, env))
        return HeapArray([ins.element_type.default_value()] * length)

    def _exec_array_load(self, ins: ArrayLoad, env) -> Any:
        array = self._value_of(ins.array, env)
        index = self._value_of(ins.index, env)
        self._check_array(array, index)
        return array.values[index]

    def _exec_array_store(self, ins: ArrayStore, env) -> Any:
        array = self._value_of(ins.array, env)
        index = self._value_of(ins.index, env)
        self._check_array(array, index)
        array.values[index] = self._value_of(ins.value, env)
        return None

    def _exec_array_length(self, ins: ArrayLength, env) -> Any:
        array = self._value_of(ins.array, env)
        if array is None:
            raise EvaluationTrap("null dereference in len()")
        return len(array.values)

    def _exec_call(self, ins: Call, env) -> Any:
        callee = self.program.function(ins.callee)
        return self._call(callee, [self._value_of(a, env) for a in ins.args])

    def _exec_phi(self, ins: Phi, env) -> Any:  # pragma: no cover
        raise AssertionError("phi reached instruction loop")

    @staticmethod
    def _check_array(array: Any, index: Any) -> None:
        if array is None:
            raise EvaluationTrap("null array access")
        if not 0 <= index < len(array.values):
            raise EvaluationTrap(f"array index {index} out of bounds")


#: type-keyed dispatch table; _resolve_handler fills in subclasses lazily
_EXEC_HANDLERS: dict[type, Callable] = {
    ArithOp: Interpreter._exec_arith,
    Compare: Interpreter._exec_compare,
    Not: Interpreter._exec_not,
    Neg: Interpreter._exec_neg,
    New: Interpreter._exec_new,
    LoadField: Interpreter._exec_load_field,
    StoreField: Interpreter._exec_store_field,
    LoadGlobal: Interpreter._exec_load_global,
    StoreGlobal: Interpreter._exec_store_global,
    NewArray: Interpreter._exec_new_array,
    ArrayLoad: Interpreter._exec_array_load,
    ArrayStore: Interpreter._exec_array_store,
    ArrayLength: Interpreter._exec_array_length,
    Call: Interpreter._exec_call,
    Phi: Interpreter._exec_phi,
}


def _resolve_handler(cls: type) -> Callable:
    """MRO-walking fallback for node subclasses; memoizes the result."""
    for base in cls.__mro__:
        handler = _EXEC_HANDLERS.get(base)
        if handler is not None:
            _EXEC_HANDLERS[cls] = handler
            return handler
    raise AssertionError(f"cannot execute {cls.__name__}")


class ProfileCollector:
    """Branch and block counters recorded during a profiling run."""

    def __init__(self) -> None:
        self.branch_counts: dict[If, list[int]] = {}
        self.block_counts: dict[Block, int] = {}

    def record_branch(self, branch: If, taken: bool) -> None:
        counts = self.branch_counts.setdefault(branch, [0, 0])
        counts[0 if taken else 1] += 1

    def record_block(self, block: Block) -> None:
        self.block_counts[block] = self.block_counts.get(block, 0) + 1

    def merge(self, other: "ProfileCollector") -> None:
        """Add ``other``'s counts to this collector's."""
        blocks = self.block_counts
        for block, n in other.block_counts.items():
            blocks[block] = blocks.get(block, 0) + n
        for branch, (taken, not_taken) in other.branch_counts.items():
            counts = self.branch_counts.setdefault(branch, [0, 0])
            counts[0] += taken
            counts[1] += not_taken

    def true_probability(self, branch: If) -> Optional[float]:
        counts = self.branch_counts.get(branch)
        if not counts or (counts[0] + counts[1]) == 0:
            return None
        return counts[0] / (counts[0] + counts[1])


def deep_value(value: Any, _seen: Optional[dict[int, int]] = None) -> Any:
    """Structural snapshot of a runtime value for differential testing.

    Objects/arrays become nested tuples; cycles are encoded as back
    references so isomorphic heaps compare equal.
    """
    if _seen is None:
        _seen = {}
    if isinstance(value, HeapObject):
        if id(value) in _seen:
            return ("backref", _seen[id(value)])
        _seen[id(value)] = len(_seen)
        return (
            "object",
            value.class_name,
            tuple(
                (name, deep_value(v, _seen)) for name, v in sorted(value.fields.items())
            ),
        )
    if isinstance(value, HeapArray):
        if id(value) in _seen:
            return ("backref", _seen[id(value)])
        _seen[id(value)] = len(_seen)
        return ("array", tuple(deep_value(v, _seen) for v in value.values))
    return value


def observable_outcome(result: ExecutionResult, state: InterpreterState) -> tuple:
    """Everything a program run can observe: result/trap + global state."""
    return (
        deep_value(result.value),
        result.trap,
        tuple((name, deep_value(v)) for name, v in sorted(state.globals.items())),
    )
