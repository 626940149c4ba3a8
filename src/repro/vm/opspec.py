"""Machine-readable instruction specifications for the 32 base opcodes.

The flat-tuple encoding (:mod:`repro.vm.bytecode`) documents its tuple
layouts in prose; the static bytecode verifier
(:mod:`repro.analysis.bcverify`) and megaunit's budget-exit live-in
analysis need them as data.  Every opcode has an :class:`OpSpec`
describing its tuple *shape*: the family, the operand signature and
whether it terminates a basic block.

======================  ====================================================
family                  layout
======================  ====================================================
``base``                ``(op, cost, node, dest, *operands)`` — the
                        operand kinds are in :attr:`OpSpec.sig`
``call``                ``(op, cost, node, dest, callee, argregs)``
``goto``                ``(op, cost, node, -1, edge)``
``if``                  ``(op, cost, node, -1, rcond, tedge, fedge)``
``return``              ``(op, cost, node, -1, rval_or_-1)``
======================  ====================================================

``sig`` characters (``base`` family, operands from slot 4): ``r`` a
register read, ``k`` a non-register literal operand.
"""

from __future__ import annotations

from .bytecode import (
    OP_ADD,
    OP_ARRAY_LENGTH,
    OP_ARRAY_LOAD,
    OP_ARRAY_STORE,
    OP_CALL,
    OP_GE,
    OP_GOTO,
    OP_IF,
    OP_LOAD_FIELD,
    OP_LOAD_GLOBAL,
    OP_NEG,
    OP_NEW,
    OP_NEW_ARRAY,
    OP_NOT,
    OP_RETURN,
    OP_STORE_FIELD,
    OP_STORE_GLOBAL,
    OPCODE_NAMES,
)

#: families that end a basic block
TERMINATOR_FAMILIES = frozenset(("goto", "if", "return"))


class OpSpec:
    """Shape of one opcode's instruction tuple; ``sig`` is the operand
    signature after the dest slot (``base`` family only)."""

    __slots__ = ("name", "family", "sig")

    def __init__(self, name: str, family: str, sig: str = "") -> None:
        self.name = name
        self.family = family
        self.sig = sig

    @property
    def terminator(self) -> bool:
        return self.family in TERMINATOR_FAMILIES

    def code_length(self) -> int:
        """Expected tuple length in the ``fn.code`` stream."""
        if self.family == "base":
            return 4 + len(self.sig)
        return {"call": 6, "goto": 5, "if": 7, "return": 5}[self.family]


#: opcode -> spec for every opcode of the handler table
OPCODE_SPECS: dict[int, OpSpec] = {}


def _base(opcode: int, family: str = "base", sig: str = "rr") -> None:
    OPCODE_SPECS[opcode] = OpSpec(OPCODE_NAMES[opcode], family, sig=sig)


# Binary arithmetic and compares all read two registers; the rest are
# spelled out per layout in bytecode.py.
for _op in range(OP_ADD, OP_GE + 1):
    _base(_op)
_base(OP_NOT, sig="r")
_base(OP_NEG, sig="r")
_base(OP_NEW, sig="kk")
_base(OP_LOAD_FIELD, sig="rk")
_base(OP_STORE_FIELD, sig="rkr")
_base(OP_LOAD_GLOBAL, sig="k")
_base(OP_STORE_GLOBAL, sig="kr")
_base(OP_NEW_ARRAY, sig="rk")
_base(OP_ARRAY_LOAD, sig="rr")
_base(OP_ARRAY_STORE, sig="rrr")
_base(OP_ARRAY_LENGTH, sig="r")
_base(OP_CALL, family="call", sig="")
_base(OP_GOTO, family="goto", sig="")
_base(OP_IF, family="if", sig="")
_base(OP_RETURN, family="return", sig="")
del _op


__all__ = ["OPCODE_SPECS", "OpSpec", "TERMINATOR_FAMILIES"]
