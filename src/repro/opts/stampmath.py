"""Stamp arithmetic: range propagation and symbolic compare evaluation.

Shared by canonicalization (fold what stamps prove), conditional
elimination (derive facts from dominating branches) and the DBDS
simulator (evaluate ACs under branch-refined stamps).
"""

from __future__ import annotations

from typing import Optional

from ..ir.ops import BinOp, CmpOp
from ..ir.stamps import (
    ANY_INT,
    BoolStamp,
    INT_MAX,
    INT_MIN,
    IntStamp,
    ObjectStamp,
    Stamp,
)


def _saturate(lo: int, hi: int) -> IntStamp:
    """Clamp a candidate range to i64; widen to top on wrap ambiguity."""
    if lo < INT_MIN or hi > INT_MAX:
        return ANY_INT
    return IntStamp(lo, hi)


def arith_stamp(op: BinOp, x: IntStamp, y: IntStamp) -> IntStamp:
    """Forward range propagation for a binary arithmetic op."""
    if x.is_empty() or y.is_empty():
        return IntStamp(1, 0)  # empty
    if op is BinOp.ADD:
        return _saturate(x.lo + y.lo, x.hi + y.hi)
    if op is BinOp.SUB:
        return _saturate(x.lo - y.hi, x.hi - y.lo)
    if op is BinOp.MUL:
        corners = [a * b for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
        return _saturate(min(corners), max(corners))
    if op is BinOp.DIV:
        if y.lo > 0 or y.hi < 0:  # divisor never zero
            corners = []
            for a in (x.lo, x.hi):
                for b in (y.lo, y.hi):
                    if b != 0:
                        q = abs(a) // abs(b)
                        corners.append(q if (a >= 0) == (b >= 0) else -q)
            if corners:
                return _saturate(min(corners), max(corners))
        return ANY_INT
    if op is BinOp.MOD:
        if y.lo > 0:
            bound = y.hi - 1
            lo = 0 if x.lo >= 0 else -bound
            return _saturate(lo, bound if x.hi > 0 else 0)
        return ANY_INT
    if op is BinOp.AND:
        if x.lo >= 0 or y.lo >= 0:
            # Non-negative mask bounds the result.
            hi = min(x.hi if x.lo >= 0 else INT_MAX, y.hi if y.lo >= 0 else INT_MAX)
            return IntStamp(0, hi)
        return ANY_INT
    if op in (BinOp.SHR,):
        if x.lo >= 0 and 0 <= y.lo == y.hi <= 63:
            return IntStamp(x.lo >> y.lo, x.hi >> y.lo)
        if x.lo >= 0:
            return IntStamp(0, x.hi)
        return ANY_INT
    if op is BinOp.USHR:
        if x.lo >= 0 and 0 <= y.lo == y.hi <= 63:
            return IntStamp(x.lo >> y.lo, x.hi >> y.lo)
        return IntStamp(0, INT_MAX) if x.lo >= 0 else ANY_INT
    if op is BinOp.SHL:
        if 0 <= y.lo == y.hi <= 63:
            return _saturate(x.lo << y.lo, x.hi << y.lo) if x.lo >= 0 else ANY_INT
        return ANY_INT
    return ANY_INT


def compare_stamps(op: CmpOp, x: Stamp, y: Stamp) -> Optional[bool]:
    """Statically evaluate ``x OP y`` from stamps; None when unknown."""
    if isinstance(x, IntStamp) and isinstance(y, IntStamp):
        return _compare_int(op, x, y)
    if isinstance(x, BoolStamp) and isinstance(y, BoolStamp):
        cx, cy = x.as_constant(), y.as_constant()
        if cx is not None and cy is not None:
            return (cx[0] == cy[0]) if op is CmpOp.EQ else (cx[0] != cy[0])
        return None
    if isinstance(x, ObjectStamp) and isinstance(y, ObjectStamp):
        if op not in (CmpOp.EQ, CmpOp.NE):
            return None
        if x.always_null and y.always_null:
            return op is CmpOp.EQ
        if (x.always_null and y.non_null) or (y.always_null and x.non_null):
            return op is CmpOp.NE
        return None
    return None


def _compare_int(op: CmpOp, x: IntStamp, y: IntStamp) -> Optional[bool]:
    if x.is_empty() or y.is_empty():
        return None
    if op is CmpOp.EQ:
        if x.lo == x.hi == y.lo == y.hi:
            return True
        if x.hi < y.lo or y.hi < x.lo:
            return False
        return None
    if op is CmpOp.NE:
        result = _compare_int(CmpOp.EQ, x, y)
        return None if result is None else not result
    if op is CmpOp.LT:
        if x.hi < y.lo:
            return True
        if x.lo >= y.hi:
            return False
        return None
    if op is CmpOp.LE:
        if x.hi <= y.lo:
            return True
        if x.lo > y.hi:
            return False
        return None
    if op is CmpOp.GT:
        return _compare_int(CmpOp.LT, y, x)
    if op is CmpOp.GE:
        return _compare_int(CmpOp.LE, y, x)
    return None


def refine_by_compare(
    op: CmpOp, x: IntStamp, y: IntStamp, outcome: bool
) -> tuple[IntStamp, IntStamp]:
    """Narrow both operand stamps assuming ``x OP y == outcome``.

    This is how a dominating condition adds information for conditional
    elimination: inside the true branch of ``x < y`` we may assume
    ``x <= y.hi - 1`` and ``y >= x.lo + 1``.
    """
    if not outcome:
        op = op.negate()
    if op is CmpOp.EQ:
        joined = x.join(y)
        return joined, joined
    if op is CmpOp.NE:
        # Only narrows when one side is a constant at a range edge.
        cx, cy = x.as_constant(), y.as_constant()
        nx, ny = x, y
        if cy is not None:
            if y.lo == x.lo:
                nx = IntStamp(x.lo + 1, x.hi)
            elif y.hi == x.hi:
                nx = IntStamp(x.lo, x.hi - 1)
        if cx is not None:
            if x.lo == y.lo:
                ny = IntStamp(y.lo + 1, y.hi)
            elif x.hi == y.hi:
                ny = IntStamp(y.lo, y.hi - 1)
        return nx, ny
    if op is CmpOp.LT:
        return (
            x.join(IntStamp(INT_MIN, min(y.hi - 1, INT_MAX))),
            y.join(IntStamp(max(x.lo + 1, INT_MIN), INT_MAX)),
        )
    if op is CmpOp.LE:
        return x.join(IntStamp(INT_MIN, y.hi)), y.join(IntStamp(x.lo, INT_MAX))
    if op is CmpOp.GT:
        ny, nx = refine_by_compare(CmpOp.LT, y, x, True)
        return nx, ny
    if op is CmpOp.GE:
        ny, nx = refine_by_compare(CmpOp.LE, y, x, True)
        return nx, ny
    return x, y


def power_of_two_exponent(value: int) -> Optional[int]:
    """k such that value == 2**k, or None."""
    if value <= 0 or value & (value - 1):
        return None
    return value.bit_length() - 1
