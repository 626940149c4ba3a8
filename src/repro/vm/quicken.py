"""Quickening: first-execution rewriting of generic ops in place.

CPython-3.11-style adaptive specialization for the fast stream built
by :mod:`repro.vm.fusion`.  The first time a function's frame runs
(:meth:`VirtualMachine._run_frame_fast` checks ``fn.quickened``),
:func:`quicken_function` rewrites eligible weight-1 sites of
``fn.xcode`` in place:

* **const-operand baking** — an arithmetic/compare operand living in
  the interned-constant register range is replaced by its value inside
  the tuple (``regs[x] + K`` instead of ``regs[x] + regs[y]``);
  commutative ops and mirrored compares also bake a constant *left*
  operand.  Constant registers are immutable at runtime by
  construction, so baked sites never deoptimize.  Division and modulo
  by a **non-zero** constant additionally drop the zero check.
* **guarded int fast paths** — ``add``/``sub``/``mul`` skip the wrap64
  mask while the Python result stays inside the signed 64-bit range,
  and ``eq``/``ne`` skip the reference-identity check while both
  operands are exactly ``int``.  A failed guard **deoptimizes**: the
  site is rewritten back to its generic tuple (permanently — the
  quickened tuple carries both the stream and the generic form) and
  the generic handler executes *this* occurrence, so values, metered
  cycles, steps and traps stay bit-identical to the reference
  interpreter on either side of the escape.

Every rewritten tuple keeps the original baked cycle cost and step
weight 1, so metering and budget timing are unaffected by design.
Deopts and quickened-site counts feed the ambient metrics registry
(``repro_vm_quickened_sites_total``, ``repro_vm_deopts_total``).
"""

from __future__ import annotations

from ..obs.metrics import current_registry
from .bytecode import (
    OP_ADD,
    OP_AND,
    OP_DIV,
    OP_EQ,
    OP_GE,
    OP_GT,
    OP_LE,
    OP_LT,
    OP_MOD,
    OP_MUL,
    OP_NE,
    OP_OR,
    OP_SUB,
    OP_XOR,
    OPCODE_NAMES,
    BytecodeFunction,
)
from .machine import _HANDLERS, _MASK, _SIGN, _TWO64, _is_ref, register_xop
from .opspec import OpSpec, register_opspec

# Fusion registers its extended opcodes first, quickening after it:
# importing it here, before any registration below, pins the numbering
# whichever of the two modules a process imports first.
from . import fusion  # noqa: F401


# ----------------------------------------------------------------------
# Deopt escape shared by every guarded handler.  Layout of a guarded
# tuple: (op, cost, node, dest, rx, ry, xcode_list, generic_tuple, 1).
# ----------------------------------------------------------------------
def _deopt(vm, ins, regs, pc):
    generic = ins[7]
    ins[6][pc] = generic
    current_registry().inc(
        "repro_vm_deopts_total", opcode=OPCODE_NAMES[generic[0]]
    )
    return _HANDLERS[generic[0]](vm, generic, regs, pc)


# -- guarded int fast paths --------------------------------------------
def _op_add_q(vm, ins, regs, pc):
    v = regs[ins[4]] + regs[ins[5]]
    if -9223372036854775808 <= v <= 9223372036854775807:
        regs[ins[3]] = v
        return pc + 1
    return _deopt(vm, ins, regs, pc)


def _op_sub_q(vm, ins, regs, pc):
    v = regs[ins[4]] - regs[ins[5]]
    if -9223372036854775808 <= v <= 9223372036854775807:
        regs[ins[3]] = v
        return pc + 1
    return _deopt(vm, ins, regs, pc)


def _op_mul_q(vm, ins, regs, pc):
    v = regs[ins[4]] * regs[ins[5]]
    if -9223372036854775808 <= v <= 9223372036854775807:
        regs[ins[3]] = v
        return pc + 1
    return _deopt(vm, ins, regs, pc)


def _op_eq_ii(vm, ins, regs, pc):
    a, b = regs[ins[4]], regs[ins[5]]
    if a.__class__ is int and b.__class__ is int:
        regs[ins[3]] = a == b
        return pc + 1
    return _deopt(vm, ins, regs, pc)


def _op_ne_ii(vm, ins, regs, pc):
    a, b = regs[ins[4]], regs[ins[5]]
    if a.__class__ is int and b.__class__ is int:
        regs[ins[3]] = a != b
        return pc + 1
    return _deopt(vm, ins, regs, pc)


# -- const-operand forms (never deoptimize; constants are immutable) ---
# Layout: (op, cost, node, dest, rx, const_value, 1).
def _op_add_rc(vm, ins, regs, pc):
    v = (regs[ins[4]] + ins[5]) & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_sub_rc(vm, ins, regs, pc):
    v = (regs[ins[4]] - ins[5]) & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_mul_rc(vm, ins, regs, pc):
    v = (regs[ins[4]] * ins[5]) & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_and_rc(vm, ins, regs, pc):
    v = (regs[ins[4]] & ins[5]) & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_or_rc(vm, ins, regs, pc):
    v = (regs[ins[4]] | ins[5]) & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_xor_rc(vm, ins, regs, pc):
    v = (regs[ins[4]] ^ ins[5]) & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_div_rc(vm, ins, regs, pc):
    # Only installed for a non-zero constant divisor: no zero check.
    a, b = regs[ins[4]], ins[5]
    q = abs(a) // abs(b)
    if (a >= 0) != (b >= 0):
        q = -q
    v = q & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_mod_rc(vm, ins, regs, pc):
    a, b = regs[ins[4]], ins[5]
    r = abs(a) % abs(b)
    if a < 0:
        r = -r
    v = r & _MASK
    regs[ins[3]] = v - _TWO64 if v & _SIGN else v
    return pc + 1


def _op_eq_rc(vm, ins, regs, pc):
    a = regs[ins[4]]
    regs[ins[3]] = a is ins[5] if _is_ref(a) else a == ins[5]
    return pc + 1


def _op_ne_rc(vm, ins, regs, pc):
    a = regs[ins[4]]
    regs[ins[3]] = not (a is ins[5] if _is_ref(a) else a == ins[5])
    return pc + 1


def _op_lt_rc(vm, ins, regs, pc):
    regs[ins[3]] = regs[ins[4]] < ins[5]
    return pc + 1


def _op_le_rc(vm, ins, regs, pc):
    regs[ins[3]] = regs[ins[4]] <= ins[5]
    return pc + 1


def _op_gt_rc(vm, ins, regs, pc):
    regs[ins[3]] = regs[ins[4]] > ins[5]
    return pc + 1


def _op_ge_rc(vm, ins, regs, pc):
    regs[ins[3]] = regs[ins[4]] >= ins[5]
    return pc + 1


OP_ADD_Q = register_xop(_op_add_q)
OP_SUB_Q = register_xop(_op_sub_q)
OP_MUL_Q = register_xop(_op_mul_q)
OP_EQ_II = register_xop(_op_eq_ii)
OP_NE_II = register_xop(_op_ne_ii)
OP_ADD_RC = register_xop(_op_add_rc)
OP_SUB_RC = register_xop(_op_sub_rc)
OP_MUL_RC = register_xop(_op_mul_rc)
OP_AND_RC = register_xop(_op_and_rc)
OP_OR_RC = register_xop(_op_or_rc)
OP_XOR_RC = register_xop(_op_xor_rc)
OP_DIV_RC = register_xop(_op_div_rc)
OP_MOD_RC = register_xop(_op_mod_rc)
OP_EQ_RC = register_xop(_op_eq_rc)
OP_NE_RC = register_xop(_op_ne_rc)
OP_LT_RC = register_xop(_op_lt_rc)
OP_LE_RC = register_xop(_op_le_rc)
OP_GT_RC = register_xop(_op_gt_rc)
OP_GE_RC = register_xop(_op_ge_rc)

#: generic opcode -> const-right-operand form
_RC_OPS = {
    OP_ADD: OP_ADD_RC, OP_SUB: OP_SUB_RC, OP_MUL: OP_MUL_RC,
    OP_AND: OP_AND_RC, OP_OR: OP_OR_RC, OP_XOR: OP_XOR_RC,
    OP_DIV: OP_DIV_RC, OP_MOD: OP_MOD_RC,
    OP_EQ: OP_EQ_RC, OP_NE: OP_NE_RC,
    OP_LT: OP_LT_RC, OP_LE: OP_LE_RC, OP_GT: OP_GT_RC, OP_GE: OP_GE_RC,
}

#: generic opcode -> const-LEFT-operand form: commutative ops reuse the
#: right-const form directly; ordered compares use the mirrored one
#: (``K < y`` == ``y > K``).
_SWAP_RC = {
    OP_ADD: OP_ADD_RC, OP_MUL: OP_MUL_RC,
    OP_AND: OP_AND_RC, OP_OR: OP_OR_RC, OP_XOR: OP_XOR_RC,
    OP_EQ: OP_EQ_RC, OP_NE: OP_NE_RC,
    OP_LT: OP_GT_RC, OP_LE: OP_GE_RC, OP_GT: OP_LT_RC, OP_GE: OP_LE_RC,
}

#: generic opcode -> guarded fast-path form (reg-reg operands)
_GUARD_OPS = {
    OP_ADD: OP_ADD_Q, OP_SUB: OP_SUB_Q, OP_MUL: OP_MUL_Q,
    OP_EQ: OP_EQ_II, OP_NE: OP_NE_II,
}

_CANDIDATES = frozenset(_RC_OPS) | frozenset(_SWAP_RC) | frozenset(_GUARD_OPS)

# Instruction specs for the verifier.  A const form's origin lists
# every generic opcode that may quicken into it (right-const plus the
# mirrored/commutative left-const mappings); a guarded form always has
# exactly one generic origin.
for _xop, _name in (
    (OP_ADD_Q, "add_q"), (OP_SUB_Q, "sub_q"), (OP_MUL_Q, "mul_q"),
    (OP_EQ_II, "eq_ii"), (OP_NE_II, "ne_ii"),
):
    _origin = tuple(g for g, x in sorted(_GUARD_OPS.items()) if x == _xop)
    register_opspec(_xop, OpSpec(_name, "quick-guard", origin=_origin))
for _g, _xop in sorted(_RC_OPS.items()):
    _origin = tuple(sorted(
        {g for g, x in _RC_OPS.items() if x == _xop}
        | {g for g, x in _SWAP_RC.items() if x == _xop}
    ))
    register_opspec(_xop, OpSpec(
        OPCODE_NAMES[_g] + "_rc", "quick-const", origin=_origin,
    ))
del _g, _xop, _name, _origin


def quicken_function(fn: BytecodeFunction) -> dict[str, int]:
    """Rewrite ``fn.xcode`` specializations in place; returns counts.

    Called on the function's first fast-stream execution.  Only plain
    weight-1 sites are touched — superinstructions already bake their
    costs, and their embedded halves execute through the base table.
    """
    code = fn.xcode
    lo = fn.const_base
    hi = lo + fn.const_count
    template = fn.template
    stats: dict[str, int] = {}
    n = len(code)
    pc = 0
    while pc < n:
        ins = code[pc]
        w = ins[-1]
        if w > 1:
            pc += w  # skip the superinstruction and its padding slots
            continue
        op = ins[0]
        if op in _CANDIDATES:
            rx, ry = ins[4], ins[5]
            new = None
            kind = None
            if lo <= ry < hi and op in _RC_OPS:
                value = template[ry]
                if not (op in (OP_DIV, OP_MOD) and value == 0):
                    new = (_RC_OPS[op], ins[1], ins[2], ins[3], rx, value, 1)
                    kind = "const"
            elif lo <= rx < hi and op in _SWAP_RC:
                value = template[rx]
                new = (_SWAP_RC[op], ins[1], ins[2], ins[3], ry, value, 1)
                kind = "const"
            elif op in _GUARD_OPS:
                new = (
                    _GUARD_OPS[op], ins[1], ins[2], ins[3], rx, ry,
                    code, ins, 1,
                )
                kind = "guard"
            if new is not None:
                code[pc] = new
                stats[kind] = stats.get(kind, 0) + 1
        pc += 1
    fn.quickened = True
    if stats:
        registry = current_registry()
        if registry.enabled:
            for kind, count in stats.items():
                registry.inc(
                    "repro_vm_quickened_sites_total", count, kind=kind
                )
    return stats


__all__ = [
    "OP_ADD_Q",
    "OP_ADD_RC",
    "OP_DIV_RC",
    "OP_EQ_II",
    "OP_EQ_RC",
    "OP_MUL_Q",
    "OP_SUB_Q",
    "quicken_function",
]
