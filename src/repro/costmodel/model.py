"""IR node cost model: abstract cycles and code size per node kind.

This is the reproduction of Section 5.3 / Listing 7: in Graal every node
class carries a ``@NodeInfo(cycles=…, size=…)`` annotation; here a
registry maps node classes (and, for :class:`ArithOp`, operators) to a
:class:`NodeCost`.  The concrete numbers are anchored to the paper's own
worked examples:

* Figure 3: a division costs **32 cycles**, a shift **1 cycle**, so the
  Div→Shift strength reduction saves 31 cycles.
* Figure 4: ``Mul`` = 2 cycles, a store = **10 cycles**, ``Return`` = 2
  cycles, constants/phis are free — making the constant-folding example
  evaluate to 14 vs. 12.2 cycles.
* Listing 7: object allocation is ``CYCLES_8`` / ``SIZE_8``.
"""

from __future__ import annotations

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
)
from ..ir.ops import BinOp


class NodeCost:
    """Abstract run-time (cycles) and machine-code size of one node.

    Immutable: the cost tables hand the same instance to every caller.
    """

    __slots__ = ("cycles", "size")

    def __init__(self, cycles: float, size: float) -> None:
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "size", size)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"NodeCost is immutable (cannot set {name!r})")


_CLASS_COSTS: dict[type, NodeCost] = {}
_ARITH_COSTS: dict[BinOp, NodeCost] = {}


def node_cost(cycles: float, size: float):
    """Class decorator mirroring Graal's ``@NodeInfo`` annotation.

    Usable by downstream extensions defining new node classes::

        @node_cost(cycles=8, size=8)
        class MyAllocationNode(Instruction): ...
    """

    def register(cls: type) -> type:
        _CLASS_COSTS[cls] = NodeCost(cycles, size)
        return cls

    return register


def register_cost(cls: type, cycles: float, size: float) -> None:
    _CLASS_COSTS[cls] = NodeCost(cycles, size)


def register_arith_cost(op: BinOp, cycles: float, size: float) -> None:
    _ARITH_COSTS[op] = NodeCost(cycles, size)


# ----------------------------------------------------------------------
# The cost table (see module docstring for the paper anchors).
# ----------------------------------------------------------------------
register_cost(Constant, 0, 1)
register_cost(Parameter, 0, 0)
register_cost(Phi, 0, 0)

register_arith_cost(BinOp.ADD, 1, 1)
register_arith_cost(BinOp.SUB, 1, 1)
register_arith_cost(BinOp.MUL, 2, 1)
register_arith_cost(BinOp.DIV, 32, 1)
register_arith_cost(BinOp.MOD, 32, 1)
register_arith_cost(BinOp.AND, 1, 1)
register_arith_cost(BinOp.OR, 1, 1)
register_arith_cost(BinOp.XOR, 1, 1)
register_arith_cost(BinOp.SHL, 1, 1)
register_arith_cost(BinOp.SHR, 1, 1)
register_arith_cost(BinOp.USHR, 1, 1)

register_cost(Compare, 1, 1)
register_cost(Not, 1, 1)
register_cost(Neg, 1, 1)

register_cost(New, 8, 8)  # Listing 7: tlab alloc + header init
register_cost(NewArray, 8, 8)
register_cost(LoadField, 2, 1)
register_cost(StoreField, 10, 2)  # Figure 4: Store = 10 cycles
register_cost(LoadGlobal, 2, 1)
register_cost(StoreGlobal, 10, 2)
register_cost(ArrayLoad, 2, 1)
register_cost(ArrayStore, 10, 2)
register_cost(ArrayLength, 2, 1)
register_cost(Call, 4, 2)

register_cost(Goto, 0, 1)
register_cost(If, 1, 2)
register_cost(Return, 2, 1)


def cost_of(node) -> NodeCost:
    """Cost of an instruction, value or terminator."""
    if isinstance(node, ArithOp):
        return _ARITH_COSTS[node.op]
    for cls in type(node).__mro__:
        cost = _CLASS_COSTS.get(cls)
        if cost is not None:
            return cost
    raise KeyError(f"no cost registered for {type(node).__name__}")


def cycles_of(node) -> float:
    return cost_of(node).cycles


def size_of(node) -> float:
    return cost_of(node).size
