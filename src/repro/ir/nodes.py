"""IR values, instructions and terminators.

The IR is a block-structured SSA program representation:

* Every :class:`Value` produces at most one result (Graal IR property).
* :class:`Constant` and :class:`Parameter` are block-less values owned by
  the graph; all other values are :class:`Instruction` objects appended
  to a basic block, except :class:`Phi` which lives in a merge block's
  phi list with one input per ordered predecessor.
* Terminators (:class:`Goto`, :class:`If`, :class:`Return`) end a block
  and are *users* of values but not values themselves.

Use-def chains are maintained eagerly: ``value.uses`` maps each user to
the number of operand slots it occupies, which makes
``replace_all_uses`` and dead-code detection O(uses).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from . import stamps as st
from .ops import BinOp, CmpOp
from .types import BOOL, INT, VOID, ArrayType, ObjectType, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .block import Block

_ids = itertools.count()


class Value:
    """Anything that can be used as an operand: it has a stamp and uses."""

    def __init__(self, stamp: st.Stamp) -> None:
        self.id: int = next(_ids)
        self.stamp: st.Stamp = stamp
        self.uses: dict[User, int] = {}

    @property
    def type(self) -> Type:
        """Static type derived from the stamp kind."""
        s = self.stamp
        if isinstance(s, st.IntStamp):
            return INT
        if isinstance(s, st.BoolStamp):
            return BOOL
        if isinstance(s, st.ObjectStamp):
            return s.type
        return VOID

    @property
    def name(self) -> str:
        return f"v{self.id}"

    def _add_use(self, user: "User") -> None:
        self.uses[user] = self.uses.get(user, 0) + 1

    def _remove_use(self, user: "User") -> None:
        n = self.uses.get(user, 0)
        if n <= 1:
            self.uses.pop(user, None)
        else:
            self.uses[user] = n - 1

    def has_uses(self) -> bool:
        return bool(self.uses)

    def replace_all_uses(self, replacement: "Value") -> None:
        """Rewrite every user of this value to use ``replacement``."""
        if replacement is self:
            return
        for user in list(self.uses):
            user.replace_input(self, replacement)

    def __repr__(self) -> str:
        return self.name


class User:
    """Base for everything holding operand slots (instructions, phis,
    terminators). Manages use-def bookkeeping for its inputs, and logs
    each input edit of a user placed in a block to its graph's
    :class:`~repro.ir.graph.ChangeLog`."""

    #: the block holding this user (None while detached)
    block: Optional["Block"] = None

    def __init__(self, inputs: list[Value]) -> None:
        self._inputs: list[Value] = list(inputs)
        for v in self._inputs:
            v._add_use(self)

    @property
    def inputs(self) -> tuple[Value, ...]:
        return tuple(self._inputs)

    def input(self, index: int) -> Value:
        return self._inputs[index]

    def set_input(self, index: int, new: Value) -> None:
        old = self._inputs[index]
        if old is new:
            return
        old._remove_use(self)
        self._inputs[index] = new
        new._add_use(self)
        if self.block is not None:
            self.block.graph.changes.edited(self, old)

    def replace_input(self, old: Value, new: Value) -> None:
        """Replace *all* operand slots holding ``old`` with ``new``."""
        for i, v in enumerate(self._inputs):
            if v is old:
                self.set_input(i, new)

    def drop_inputs(self) -> list[Value]:
        """Deregister all uses; called when the user is deleted (the
        caller logs the deletion).  Returns the former inputs."""
        dropped = self._inputs
        for v in dropped:
            v._remove_use(self)
        self._inputs = []
        return dropped

    def _append_input(self, v: Value) -> None:
        self._inputs.append(v)
        v._add_use(self)
        if self.block is not None:
            self.block.graph.changes.edited(self)

    def _remove_input_at(self, index: int) -> None:
        lost = self._inputs.pop(index)
        lost._remove_use(self)
        if self.block is not None:
            self.block.graph.changes.edited(self, lost)


class Constant(Value):
    """A literal constant (int, bool or null). Interned per graph."""

    def __init__(self, value, ty: Type) -> None:
        super().__init__(st.stamp_for_constant(value, ty))
        self.value = value
        self._type = ty

    @property
    def type(self) -> Type:
        return self._type

    def __repr__(self) -> str:
        if self.value is None:
            return "null"
        if self._type == BOOL:
            return "true" if self.value else "false"
        return f"c{self.value}"


class Parameter(Value):
    """A function parameter, identified by its position."""

    def __init__(self, index: int, pname: str, ty: Type) -> None:
        super().__init__(st.stamp_for_type(ty))
        self.index = index
        self.param_name = pname

    def __repr__(self) -> str:
        return f"p{self.index}:{self.param_name}"


class Instruction(User, Value):
    """An SSA instruction scheduled inside a basic block."""

    def __init__(self, inputs: list[Value], stamp: st.Stamp) -> None:
        Value.__init__(self, stamp)
        User.__init__(self, inputs)
        self.block: Optional["Block"] = None

    #: Whether executing the instruction writes memory / allocates / calls.
    has_side_effect: bool = False
    #: Whether the instruction may raise a runtime trap.
    can_trap: bool = False

    @property
    def is_removable(self) -> bool:
        """Dead-code eliminable when unused."""
        return not self.has_side_effect and not self.can_trap

    def op_name(self) -> str:
        return type(self).__name__

    def describe(self) -> str:
        operands = " ".join(repr(v) for v in self._inputs)
        return f"{self.name} = {self.op_name()} {operands}".rstrip()


class ArithOp(Instruction):
    """Binary integer arithmetic/bitwise operation."""

    def __init__(self, op: BinOp, x: Value, y: Value) -> None:
        super().__init__([x, y], st.ANY_INT)
        self.op = op

    @property
    def can_trap(self) -> bool:  # type: ignore[override]
        return self.op.can_trap

    @property
    def x(self) -> Value:
        return self._inputs[0]

    @property
    def y(self) -> Value:
        return self._inputs[1]

    def op_name(self) -> str:
        return self.op.name.capitalize()


class Compare(Instruction):
    """Comparison producing a boolean; EQ/NE also compare references."""

    def __init__(self, op: CmpOp, x: Value, y: Value) -> None:
        super().__init__([x, y], st.ANY_BOOL)
        self.op = op

    @property
    def x(self) -> Value:
        return self._inputs[0]

    @property
    def y(self) -> Value:
        return self._inputs[1]

    def op_name(self) -> str:
        return f"Cmp{self.op.name}"


class Not(Instruction):
    """Boolean negation."""

    def __init__(self, x: Value) -> None:
        super().__init__([x], st.ANY_BOOL)

    @property
    def x(self) -> Value:
        return self._inputs[0]


class Neg(Instruction):
    """Integer negation (wraps on INT_MIN)."""

    def __init__(self, x: Value) -> None:
        super().__init__([x], st.ANY_INT)

    @property
    def x(self) -> Value:
        return self._inputs[0]


class Phi(Instruction):
    """An SSA phi: one input per ordered predecessor of its merge block."""

    def __init__(self, block: "Block", ty: Type, inputs: list[Value]) -> None:
        super().__init__(inputs, st.stamp_for_type(ty))
        self.block = block
        self._declared_type = ty

    @property
    def type(self) -> Type:
        return self._declared_type

    def describe(self) -> str:
        pairs = " ".join(
            f"[{pred.name}: {v!r}]"
            for pred, v in zip(self.block.predecessors, self._inputs)
        )
        return f"{self.name} = Phi {pairs}"


class New(Instruction):
    """Allocate an object of a declared class; fields start at defaults."""

    has_side_effect = True

    def __init__(self, ty: ObjectType) -> None:
        super().__init__([], st.ObjectStamp(ty, non_null=True))
        self.object_type = ty

    def op_name(self) -> str:
        return f"New {self.object_type.class_name}"


class LoadField(Instruction):
    """Read ``obj.field``; traps when obj is null."""

    can_trap = True

    def __init__(self, obj: Value, field: str, ty: Type) -> None:
        super().__init__([obj], st.stamp_for_type(ty))
        self.field = field
        self._declared_type = ty

    @property
    def type(self) -> Type:
        return self._declared_type

    @property
    def obj(self) -> Value:
        return self._inputs[0]

    def op_name(self) -> str:
        return f"LoadField .{self.field}"


class StoreField(Instruction):
    """Write ``obj.field = value``; traps when obj is null."""

    has_side_effect = True
    can_trap = True

    def __init__(self, obj: Value, field: str, value: Value) -> None:
        super().__init__([obj, value], st.VOID_STAMP)
        self.field = field

    @property
    def obj(self) -> Value:
        return self._inputs[0]

    @property
    def value(self) -> Value:
        return self._inputs[1]

    def op_name(self) -> str:
        return f"StoreField .{self.field}"


class LoadGlobal(Instruction):
    """Read a program-level global variable."""

    def __init__(self, gname: str, ty: Type) -> None:
        super().__init__([], st.stamp_for_type(ty))
        self.global_name = gname
        self._declared_type = ty

    @property
    def type(self) -> Type:
        return self._declared_type

    def op_name(self) -> str:
        return f"LoadGlobal {self.global_name}"


class StoreGlobal(Instruction):
    """Write a program-level global variable."""

    has_side_effect = True

    def __init__(self, gname: str, value: Value) -> None:
        super().__init__([value], st.VOID_STAMP)
        self.global_name = gname

    @property
    def value(self) -> Value:
        return self._inputs[0]

    def op_name(self) -> str:
        return f"StoreGlobal {self.global_name}"


class NewArray(Instruction):
    """Allocate an array of the given length; traps on negative length."""

    has_side_effect = True
    can_trap = True

    def __init__(self, element: Type, length: Value) -> None:
        super().__init__([length], st.ObjectStamp(ArrayType(element), non_null=True))
        self.element_type = element

    @property
    def length(self) -> Value:
        return self._inputs[0]

    def op_name(self) -> str:
        return f"NewArray {self.element_type!r}"


class ArrayLoad(Instruction):
    """Read ``arr[index]``; traps on null array / out-of-bounds index."""

    can_trap = True

    def __init__(self, array: Value, index: Value, ty: Type) -> None:
        super().__init__([array, index], st.stamp_for_type(ty))
        self._declared_type = ty

    @property
    def type(self) -> Type:
        return self._declared_type

    @property
    def array(self) -> Value:
        return self._inputs[0]

    @property
    def index(self) -> Value:
        return self._inputs[1]


class ArrayStore(Instruction):
    """Write ``arr[index] = value``; traps like :class:`ArrayLoad`."""

    has_side_effect = True
    can_trap = True

    def __init__(self, array: Value, index: Value, value: Value) -> None:
        super().__init__([array, index, value], st.VOID_STAMP)

    @property
    def array(self) -> Value:
        return self._inputs[0]

    @property
    def index(self) -> Value:
        return self._inputs[1]

    @property
    def value(self) -> Value:
        return self._inputs[2]


class ArrayLength(Instruction):
    """Length of an array; traps when the array is null."""

    can_trap = True

    def __init__(self, array: Value) -> None:
        super().__init__([array], st.IntStamp(0, st.INT_MAX))

    @property
    def array(self) -> Value:
        return self._inputs[0]


class Call(Instruction):
    """Direct call to a named function of the same program."""

    has_side_effect = True
    can_trap = True

    def __init__(self, callee: str, args: list[Value], return_type: Type) -> None:
        super().__init__(list(args), st.stamp_for_type(return_type))
        self.callee = callee
        self._declared_type = return_type

    @property
    def type(self) -> Type:
        return self._declared_type

    @property
    def args(self) -> tuple[Value, ...]:
        return self.inputs

    def op_name(self) -> str:
        return f"Call {self.callee}"


class Terminator(User):
    """Block-ending control transfer. Not a value."""

    def __init__(self, inputs: list[Value], targets: list["Block"]) -> None:
        super().__init__(inputs)
        self.block: Optional["Block"] = None
        self._targets: list["Block"] = list(targets)

    @property
    def targets(self) -> tuple["Block", ...]:
        return tuple(self._targets)

    def set_target(self, slot: int, new: "Block") -> None:
        """Retarget one successor slot, maintaining predecessor lists.

        The caller is responsible for providing phi inputs when the new
        target has phis (normally it has none: critical edges are split).
        """
        old = self._targets[slot]
        if old is new:
            return
        if self.block is not None:
            old.remove_predecessor(self.block)
        self._targets[slot] = new
        if self.block is not None:
            new.add_predecessor(self.block)

    def describe(self) -> str:
        raise NotImplementedError


class Goto(Terminator):
    """Unconditional jump."""

    def __init__(self, target: "Block") -> None:
        super().__init__([], [target])

    @property
    def target(self) -> "Block":
        return self._targets[0]

    def describe(self) -> str:
        return f"Goto {self.target.name}"


class If(Terminator):
    """Two-way conditional branch with a profiled probability of taking
    the true successor (HotSpot-profile stand-in, see DESIGN.md)."""

    def __init__(
        self,
        condition: Value,
        true_target: "Block",
        false_target: "Block",
        true_probability: float = 0.5,
    ) -> None:
        super().__init__([condition], [true_target, false_target])
        self.true_probability = true_probability

    @property
    def condition(self) -> Value:
        return self._inputs[0]

    @property
    def true_target(self) -> "Block":
        return self._targets[0]

    @property
    def false_target(self) -> "Block":
        return self._targets[1]

    def probability_of(self, target: "Block") -> float:
        """Edge probability toward ``target`` (targets are distinct)."""
        return self.true_probability if target is self.true_target else 1.0 - self.true_probability

    def describe(self) -> str:
        return (
            f"If {self.condition!r} ? {self.true_target.name} "
            f": {self.false_target.name} (p={self.true_probability:.2f})"
        )


class Return(Terminator):
    """Return from the function, optionally with a value."""

    def __init__(self, value: Optional[Value]) -> None:
        super().__init__([value] if value is not None else [], [])

    @property
    def value(self) -> Optional[Value]:
        return self._inputs[0] if self._inputs else None

    def describe(self) -> str:
        return f"Return {self.value!r}" if self.value is not None else "Return"


#: Instructions whose result depends only on their operands, making them
#: safe targets for global value numbering and speculative simulation.
PURE_VALUE_CLASSES = (ArithOp, Compare, Not, Neg)
