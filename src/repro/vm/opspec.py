"""Machine-readable instruction specifications for the full opcode space.

The flat-tuple encoding (:mod:`repro.vm.bytecode`) and the extended
fused/quickened opcode space (:mod:`repro.vm.fusion`,
:mod:`repro.vm.quicken`) document their tuple layouts in prose; the
static bytecode verifier (:mod:`repro.analysis.bcverify`) needs them as
data.  Every opcode — the 32 base opcodes plus every extended opcode
appended through :func:`~repro.vm.machine.register_xop` — registers an
:class:`OpSpec` here describing its tuple *shape*: the operand
signature or family, the step weight its fast-stream tuple must carry,
whether it terminates a basic block, and (for fused/quickened forms)
the base opcodes it was derived from.

Registration happens next to handler registration, in the same
pickle-stable order — fusion's opcodes first, then quickening's, since
:mod:`repro.vm.quicken` imports :mod:`repro.vm.fusion` before it
registers — so ``OPCODE_SPECS`` always covers exactly
``range(len(XHANDLERS))``, whichever module a process imported first;
the opcode-space exhaustiveness test asserts this.

Families and their fast-stream tuple layouts (``h`` = the tuple of
unfused prefix halves at slot ``-2``, ``w`` = step weight at ``-1``):

======================  ====================================================
family                  layout
======================  ====================================================
``base``                ``(op, cost, node, dest, *operands[, w])`` — the
                        operand kinds are in :attr:`OpSpec.sig`
``call``                ``(op, cost, node, dest, callee, argregs[, w])``
``goto``                ``(op, cost, node, -1, edge[, w])``
``if``                  ``(op, cost, node, -1, rcond, tedge, fedge[, w])``
``return``              ``(op, cost, node, -1, rval_or_-1[, w])``
``fused-if``            ``(op, cost, node, dest, rx, ry, tedge, fedge, h, 2)``
``fused-pair``          ``(op, cost, node, dA, xA, yA, dB, xB, yB, h, 2)``
``fused-goto``          ``(op, cost, node, dA, xA, yA, edge, h, 2)``
``fused-triple``        ``(op, cost, node, dA, xA, yA, dB, xB, yB,
                        dC, xC, yC, h, 3)``
``fused2``              ``(op, cost, node, -1, tupleA, tupleB, h, 2)``
                        (the embedded second half may itself be a
                        terminator — decoding recurses)
``fused2-goto``         ``(op, cost, node, -1, tupleA, edge, h, 2)``
``quick-const``         ``(op, cost, node, dest, rx, const_value, 1)``
``quick-guard``         ``(op, cost, node, dest, rx, ry, xcode, generic, 1)``
======================  ====================================================

``sig`` characters (``base`` family, operands from slot 4): ``r`` a
register read, ``k`` a non-register literal operand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

#: families whose opcodes may appear in the plain ``fn.code`` stream
BASE_FAMILIES = frozenset(("base", "call", "goto", "if", "return"))

#: families that end a basic block unconditionally ("fused2" is
#: *dynamic*: it terminates iff its embedded second half does)
TERMINATOR_FAMILIES = frozenset(("goto", "if", "return", "fused-if",
                                 "fused-goto", "fused2-goto"))


@dataclass(frozen=True)
class OpSpec:
    """Shape of one opcode's instruction tuple."""

    name: str
    family: str
    #: operand signature after the dest slot (``base`` family only)
    sig: str = ""
    #: required trailing step weight in the fast stream
    weight: int = 1
    #: constituent base opcodes: the exact unfused sequence for fused
    #: forms, the generic origin opcode(s) for quickened forms
    origin: tuple = ()

    @property
    def terminator(self) -> bool:
        return self.family in TERMINATOR_FAMILIES

    def code_length(self) -> int:
        """Expected tuple length in the plain ``fn.code`` stream."""
        if self.family == "base":
            return 4 + len(self.sig)
        return {"call": 6, "goto": 5, "if": 7, "return": 5}[self.family]

    def xcode_length(self) -> int:
        """Expected tuple length in the fused ``fn.xcode`` stream."""
        if self.family in BASE_FAMILIES:
            return self.code_length() + 1  # plain tuple + step weight
        return {
            "fused-if": 10,
            "fused-pair": 11,
            "fused-goto": 9,
            "fused-triple": 14,
            "fused2": 8,
            "fused2-goto": 8,
            "quick-const": 7,
            "quick-guard": 9,
        }[self.family]


#: opcode -> spec; covers every entry of ``machine.XHANDLERS``, since
#: each extended handler registers its spec right after it (the
#: exhaustiveness test asserts the two tables never drift apart)
OPCODE_SPECS: dict[int, OpSpec] = {}


def register_opspec(opcode: int, spec: OpSpec) -> int:
    """Record ``spec`` for ``opcode``; rejects double registration."""
    if opcode in OPCODE_SPECS:
        raise ValueError(
            f"opcode {opcode} already registered as "
            f"{OPCODE_SPECS[opcode].name!r}"
        )
    OPCODE_SPECS[opcode] = spec
    return opcode


def _base(opcode: int, family: str = "base", sig: str = "rr") -> None:
    register_opspec(opcode, OpSpec(OPCODE_NAMES[opcode], family, sig=sig))


# The 32 base opcodes.  Binary arithmetic and compares all read two
# registers; the rest are spelled out per layout in bytecode.py.
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


__all__ = [
    "BASE_FAMILIES",
    "OPCODE_SPECS",
    "OpSpec",
    "TERMINATOR_FAMILIES",
    "register_opspec",
]
