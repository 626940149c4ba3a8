"""Operator kinds and their evaluation semantics.

The same evaluation functions are used by the interpreter (to execute
programs), by the constant folder (to fold at compile time) and by the
DBDS simulator (to evaluate action steps without mutating the IR), so
compile-time and run-time semantics cannot drift apart.

Integers are 64-bit two's complement, Java-style: arithmetic wraps,
division truncates toward zero, and division/modulo by zero traps.
"""

from __future__ import annotations

import enum

_MASK = (1 << 64) - 1
_SIGN = 1 << 63


class EvaluationTrap(Exception):
    """A runtime trap: division by zero, null dereference, bad index."""


#: the longest array ``new T[n]`` allocates (2^24 elements): a longer
#: one traps on every engine, as a negative length does, instead of
#: failing to allocate or exhausting memory
MAX_ARRAY_LENGTH = 1 << 24

#: the deepest MiniLang call stack: the call that would nest one frame
#: deeper traps with ``stack overflow`` on every engine
MAX_CALL_DEPTH = 200

#: the default step budget of a run: the step that would exceed it
#: stops the run with ``BudgetExceeded`` on every engine (the megaunit
#: engine sizes its packed meter from the budget)
MAX_STEPS = 50_000_000


def check_array_length(length: int) -> int:
    """``length``, if ``new T[length]`` can allocate it; a negative
    length or one past :data:`MAX_ARRAY_LENGTH` traps."""
    if length < 0:
        raise EvaluationTrap(f"negative array length {length}")
    if length > MAX_ARRAY_LENGTH:
        raise EvaluationTrap(
            f"array length {length} exceeds the maximum {MAX_ARRAY_LENGTH}"
        )
    return length


def wrap64(value: int) -> int:
    """Wrap a Python int to signed 64-bit two's complement."""
    value &= _MASK
    if value & _SIGN:
        value -= 1 << 64
    return value


class BinOp(enum.Enum):
    """Binary arithmetic/bitwise operators on 64-bit integers."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    AND = "&"
    OR = "|"
    XOR = "^"
    SHL = "<<"
    SHR = ">>"
    USHR = ">>>"

    @property
    def commutative(self) -> bool:
        return self in _COMMUTATIVE

    @property
    def can_trap(self) -> bool:
        """Operators that may raise a runtime trap (so cannot be hoisted
        or removed unless the divisor is provably non-zero)."""
        return self in (BinOp.DIV, BinOp.MOD)


_COMMUTATIVE = frozenset({BinOp.ADD, BinOp.MUL, BinOp.AND, BinOp.OR, BinOp.XOR})


class CmpOp(enum.Enum):
    """Comparison operators; EQ/NE also apply to references."""

    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def negate(self) -> "CmpOp":
        """The operator computing the logical negation."""
        return _NEGATIONS[self]

    def swap(self) -> "CmpOp":
        """The operator with the operands exchanged: a OP b == b OP' a."""
        return _SWAPS[self]


_NEGATIONS = {
    CmpOp.EQ: CmpOp.NE,
    CmpOp.NE: CmpOp.EQ,
    CmpOp.LT: CmpOp.GE,
    CmpOp.LE: CmpOp.GT,
    CmpOp.GT: CmpOp.LE,
    CmpOp.GE: CmpOp.LT,
}

_SWAPS = {
    CmpOp.EQ: CmpOp.EQ,
    CmpOp.NE: CmpOp.NE,
    CmpOp.LT: CmpOp.GT,
    CmpOp.LE: CmpOp.GE,
    CmpOp.GT: CmpOp.LT,
    CmpOp.GE: CmpOp.LE,
}


def eval_binop(op: BinOp, a: int, b: int) -> int:
    """Evaluate an integer binary operation with Java-like semantics."""
    if op is BinOp.ADD:
        return wrap64(a + b)
    if op is BinOp.SUB:
        return wrap64(a - b)
    if op is BinOp.MUL:
        return wrap64(a * b)
    if op is BinOp.DIV:
        if b == 0:
            raise EvaluationTrap("division by zero")
        # Truncate toward zero (Python's // floors).
        q = abs(a) // abs(b)
        return wrap64(q if (a >= 0) == (b >= 0) else -q)
    if op is BinOp.MOD:
        if b == 0:
            raise EvaluationTrap("modulo by zero")
        r = abs(a) % abs(b)
        return wrap64(r if a >= 0 else -r)
    if op is BinOp.AND:
        return wrap64(a & b)
    if op is BinOp.OR:
        return wrap64(a | b)
    if op is BinOp.XOR:
        return wrap64(a ^ b)
    if op is BinOp.SHL:
        return wrap64(a << (b & 63))
    if op is BinOp.SHR:
        return wrap64(a >> (b & 63))
    if op is BinOp.USHR:
        return wrap64((a & _MASK) >> (b & 63))
    raise AssertionError(f"unknown op {op}")


def eval_cmp(op: CmpOp, a, b) -> bool:
    """Evaluate a comparison (ints, bools, or references for EQ/NE).

    EQ/NE on references is identity: the heap classes define no
    ``__eq__``/``__ne__``, so Python's ``==``/``!=`` fall back to ``is``
    whenever either operand is an object or an array."""
    if op is CmpOp.EQ:
        return a == b
    if op is CmpOp.NE:
        return a != b
    if op is CmpOp.LT:
        return a < b
    if op is CmpOp.LE:
        return a <= b
    if op is CmpOp.GT:
        return a > b
    if op is CmpOp.GE:
        return a >= b
    raise AssertionError(f"unknown op {op}")
