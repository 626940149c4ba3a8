"""Canonicalization: constant folding, algebraic simplification and
strength reduction as applicability checks + action steps.

This reproduces Graal's ``Canonicalizable`` interface, which the paper
extends into ACs (Section 5.2, "Applicability Checks in Graal").  The
single entry point :func:`canonicalize_instruction` is shared verbatim
between the real phase below and the DBDS simulation tier.

The phase is incremental, like Graal's ``IncrementalCanonicalizerPhase``:
it revisits only what the graph's :class:`~repro.ir.graph.ChangeLog`
names, which on a graph that never reached a fixpoint is everything.
"""

from __future__ import annotations

from typing import Optional

from ..ir.block import Block
from ..ir.cfgutils import canonical_cfg_cleanup
from ..ir.graph import Graph
from ..ir.nodes import (
    ArithOp,
    ArrayLength,
    Compare,
    Goto,
    If,
    Instruction,
    Neg,
    NewArray,
    Not,
    Phi,
    Value,
)
from ..ir.ops import BinOp, CmpOp, EvaluationTrap, eval_binop, eval_cmp
from ..ir.stamps import BoolStamp, IntStamp
from .base import OptimizationContext, Phase, Rewrite
from .stampmath import compare_stamps, power_of_two_exponent


def canonicalize_instruction(
    ins: Instruction, ctx: OptimizationContext
) -> Optional[Rewrite]:
    """AC + action step for one instruction; ``None`` when nothing fires."""
    if isinstance(ins, ArithOp):
        return _canonicalize_arith(ins, ctx)
    if isinstance(ins, Compare):
        return _canonicalize_compare(ins, ctx)
    if isinstance(ins, Not):
        return _canonicalize_not(ins, ctx)
    if isinstance(ins, Neg):
        return _canonicalize_neg(ins, ctx)
    if isinstance(ins, ArrayLength):
        return _canonicalize_array_length(ins, ctx)
    return None


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def _canonicalize_arith(ins: ArithOp, ctx: OptimizationContext) -> Optional[Rewrite]:
    graph = ctx.graph
    x, y = ctx.resolve(ins.x), ctx.resolve(ins.y)
    cx, cy = ctx.constant_value(ins.x), ctx.constant_value(ins.y)

    # Constant folding — the CF opportunity of Figure 1.
    if cx is not None and cy is not None:
        try:
            folded = eval_binop(ins.op, cx[0], cy[0])
        except EvaluationTrap:
            return None  # division by a constant zero must still trap
        return Rewrite.redundant(graph.const_int(folded), "constant-fold")

    # Normalize constant to the right for commutative ops.
    if ins.op.commutative and cx is not None and cy is None:
        x, y = y, x
        cx, cy = cy, cx

    if cy is not None:
        rewrite = _arith_identity_with_constant(ins, x, cy[0], ctx)
        if rewrite is not None:
            return rewrite
        rewrite = _reassociate_constant(ins, x, cy[0], ctx)
        if rewrite is not None:
            return rewrite

    # x - x == 0, x ^ x == 0, x & x == x, x | x == x
    if x is y:
        if ins.op in (BinOp.SUB, BinOp.XOR):
            return Rewrite.redundant(graph.const_int(0), "self-cancel")
        if ins.op in (BinOp.AND, BinOp.OR):
            return Rewrite.redundant(x, "self-identity")
    return None


def _arith_identity_with_constant(
    ins: ArithOp, x: Value, c: int, ctx: OptimizationContext
) -> Optional[Rewrite]:
    graph = ctx.graph
    op = ins.op
    if op in (BinOp.ADD, BinOp.SUB, BinOp.OR, BinOp.XOR, BinOp.SHL, BinOp.SHR, BinOp.USHR):
        if c == 0:
            return Rewrite.redundant(x, "identity-zero")
    if op is BinOp.AND:
        if c == 0:
            return Rewrite.redundant(graph.const_int(0), "and-zero")
        if c == -1:
            return Rewrite.redundant(x, "and-ones")
    if op is BinOp.MUL:
        if c == 0:
            return Rewrite.redundant(graph.const_int(0), "mul-zero")
        if c == 1:
            return Rewrite.redundant(x, "mul-one")
        k = power_of_two_exponent(c)
        if k is not None:
            shift = ArithOp(BinOp.SHL, x, graph.const_int(k))
            return Rewrite.with_new([shift], "strength-reduce-mul")
    if op is BinOp.DIV:
        if c == 1:
            return Rewrite.redundant(x, "div-one")
        k = power_of_two_exponent(c)
        if k is not None:
            stamp = ctx.stamp(ins.x)
            if isinstance(stamp, IntStamp) and stamp.lo >= 0:
                # Figure 3's Div → Shift: exact for non-negative x.
                shift = ArithOp(BinOp.SHR, x, graph.const_int(k))
                return Rewrite.with_new([shift], "strength-reduce-div")
            # Signed division by 2^k needs the rounding fix-up
            # (x + ((x >> 63) >>> (64-k))) >> k — still far cheaper
            # than a hardware divide.
            sign = ArithOp(BinOp.SHR, x, graph.const_int(63))
            bias = ArithOp(BinOp.USHR, sign, graph.const_int(64 - k))
            adjusted = ArithOp(BinOp.ADD, x, bias)
            shift = ArithOp(BinOp.SHR, adjusted, graph.const_int(k))
            return Rewrite.with_new([sign, bias, adjusted, shift], "strength-reduce-div-signed")
    if op is BinOp.MOD:
        if c == 1:
            return Rewrite.redundant(graph.const_int(0), "mod-one")
        k = power_of_two_exponent(c)
        if k is not None:
            stamp = ctx.stamp(ins.x)
            if isinstance(stamp, IntStamp) and stamp.lo >= 0:
                mask = ArithOp(BinOp.AND, x, graph.const_int(c - 1))
                return Rewrite.with_new([mask], "strength-reduce-mod")
    return None


def _reassociate_constant(
    ins: ArithOp, x: Value, c: int, ctx: OptimizationContext
) -> Optional[Rewrite]:
    """``(x OP c1) OP c2 -> x OP (c1 OP c2)`` for ADD/MUL/AND/OR/XOR.

    Two's-complement add and mul are associative even under wrapping,
    so folding the constants is exact; it also exposes the inner value
    to further identities and lets DCE drop the inner operation.
    """
    op = ins.op
    if op not in (BinOp.ADD, BinOp.MUL, BinOp.AND, BinOp.OR, BinOp.XOR):
        return None
    if not isinstance(x, ArithOp) or x.op is not op:
        return None
    inner_const = ctx.constant_value(x.y)
    if inner_const is None:
        return None
    folded = eval_binop(op, inner_const[0], c)
    combined = ArithOp(op, ctx.resolve(x.x), ctx.graph.const_int(folded))
    return Rewrite.with_new([combined], "reassociate-constants")


# ----------------------------------------------------------------------
# Comparisons / booleans
# ----------------------------------------------------------------------
def _canonicalize_compare(ins: Compare, ctx: OptimizationContext) -> Optional[Rewrite]:
    graph = ctx.graph
    x, y = ctx.resolve(ins.x), ctx.resolve(ins.y)
    cx, cy = ctx.constant_value(ins.x), ctx.constant_value(ins.y)

    if cx is not None and cy is not None:
        return Rewrite.redundant(
            graph.const_bool(eval_cmp(ins.op, cx[0], cy[0])), "constant-fold"
        )

    sx, sy = ctx.stamp(ins.x), ctx.stamp(ins.y)
    outcome = compare_stamps(ins.op, sx, sy)
    if outcome is not None:
        return Rewrite.redundant(graph.const_bool(outcome), "stamp-fold")

    # Normalize constants to the right: ``5 < x`` becomes ``x > 5``
    # (gives value numbering one canonical spelling).
    if cx is not None and cy is None:
        swapped = Compare(ins.op.swap(), y, x)
        return Rewrite.with_new([swapped], "canonical-operand-order")

    if x is y:
        if ins.op in (CmpOp.EQ, CmpOp.LE, CmpOp.GE):
            return Rewrite.redundant(graph.const_bool(True), "self-compare")
        if ins.op in (CmpOp.NE, CmpOp.LT, CmpOp.GT):
            return Rewrite.redundant(graph.const_bool(False), "self-compare")

    # bool == true  →  bool;  bool == false  →  !bool (and NE duals)
    if isinstance(sx, BoolStamp) and ins.op in (CmpOp.EQ, CmpOp.NE):
        for operand, const in ((ins.x, cy), (ins.y, cx)):
            if const is not None and isinstance(const[0], bool):
                wants_true = const[0] == (ins.op is CmpOp.EQ)
                resolved = ctx.resolve(operand)
                if wants_true:
                    return Rewrite.redundant(resolved, "bool-unwrap")
                return Rewrite.with_new([Not(resolved)], "bool-unwrap-negated")
    return None


def _canonicalize_not(ins: Not, ctx: OptimizationContext) -> Optional[Rewrite]:
    graph = ctx.graph
    c = ctx.constant_value(ins.x)
    if c is not None:
        return Rewrite.redundant(graph.const_bool(not c[0]), "constant-fold")
    x = ctx.resolve(ins.x)
    if isinstance(x, Not):
        return Rewrite.redundant(x.input(0), "double-negation")
    if isinstance(x, Compare):
        negated = Compare(x.op.negate(), x.x, x.y)
        return Rewrite.with_new([negated], "push-not-into-compare")
    return None


def _canonicalize_neg(ins: Neg, ctx: OptimizationContext) -> Optional[Rewrite]:
    c = ctx.constant_value(ins.x)
    if c is not None:
        from ..ir.ops import wrap64

        return Rewrite.redundant(ctx.graph.const_int(wrap64(-c[0])), "constant-fold")
    x = ctx.resolve(ins.x)
    if isinstance(x, Neg):
        return Rewrite.redundant(x.input(0), "double-negation")
    return None


def _canonicalize_array_length(
    ins: ArrayLength, ctx: OptimizationContext
) -> Optional[Rewrite]:
    array = ctx.resolve(ins.array)
    if isinstance(array, NewArray):
        stamp = ctx.stamp(array.length)
        if isinstance(stamp, IntStamp) and stamp.lo >= 0:
            # len(new T[n]) == n once n is known non-negative.
            return Rewrite.redundant(array.length, "length-of-new-array")
    return None


# ----------------------------------------------------------------------
# The destructive phase
# ----------------------------------------------------------------------
def apply_rewrite(ins: Instruction, rewrite: Rewrite) -> None:
    """Destructively apply an action-step result to the graph."""
    block = ins.block
    if rewrite.new_instructions:
        index = block.instructions.index(ins)
        for offset, new_ins in enumerate(rewrite.new_instructions):
            block.insert(index + offset, new_ins)
    if rewrite.replacement is not None:
        ins.replace_all_uses(rewrite.replacement)
    else:
        assert not ins.has_uses(), "removing a used value without replacement"
    block.remove_instruction(ins)


def fold_constant_branches(
    graph: Graph,
    ctx: Optional[OptimizationContext] = None,
    blocks: Optional[list[Block]] = None,
) -> int:
    """Turn ``If`` with a statically known condition into ``Goto``, in
    ``blocks`` (default: every block)."""
    ctx = ctx or OptimizationContext(graph)
    folded = 0
    for block in list(graph.blocks if blocks is None else blocks):
        term = block.terminator
        if not isinstance(term, If):
            continue
        known = ctx.constant_value(term.condition)
        if known is None:
            continue
        target = term.true_target if known[0] else term.false_target
        block.set_terminator(Goto(target))
        folded += 1
    return folded


def simplify_negated_branches(
    graph: Graph,
    ctx: Optional[OptimizationContext] = None,
    blocks: Optional[list[Block]] = None,
) -> int:
    """Rewrite ``If !c ? t : f`` to ``If c ? f : t`` (swapping the
    profiled probability along), erasing the negation, in ``blocks``
    (default: every block)."""
    ctx = ctx or OptimizationContext(graph)
    simplified = 0
    for block in list(graph.blocks if blocks is None else blocks):
        term = block.terminator
        if not isinstance(term, If):
            continue
        condition = ctx.resolve(term.condition)
        if not isinstance(condition, Not):
            continue
        block.set_terminator(
            If(
                condition.input(0),
                term.false_target,
                term.true_target,
                1.0 - term.true_probability,
            )
        )
        simplified += 1
    return simplified


def remove_dead_instructions(graph: Graph) -> int:
    """DCE over the change log's candidates: drop unused, effect-free
    instructions and phis, then whatever their removal leaves unused.

    Every dead instruction is a candidate: it was added dead or lost
    its last use since the log was last emptied here.  (Which one goes
    first changes nothing: a removal only drops uses.)
    """
    log = graph.changes
    if log.dead is None:
        log.track(graph.blocks)
    candidates = list(log.dead)
    removed = 0
    while candidates:
        value = candidates.pop()
        block = getattr(value, "block", None)  # constants have none
        if block is None or value.uses:
            continue
        if isinstance(value, Phi) or value.is_removable:
            inputs = value.inputs
            block.remove_instruction(value)
            removed += 1
            candidates.extend(inputs)
    log.dead.clear()
    return removed


class CanonicalizerPhase(Phase):
    """Fixpoint application of all canonicalization ACs + CFG cleanup,
    over what the graph's change log names.

    Each round does what a full sweep would, in the same order, but
    skips what cannot answer differently since the last fixpoint:

    * applicability checks run on logged instructions only, in block
      order and then instruction order, as the sweep meets them (one
      logged during the round is still met if the sweep has not passed
      it yet);
    * branch folding looks at logged terminators only;
    * DCE starts from the logged candidates;
    * the CFG cleanup runs only when an edge, terminator or phi changed
      (its own changes included).

    A run on a graph with nothing logged since its last fixpoint
    returns at once.
    """

    name = "canonicalize"

    def run(self, graph: Graph) -> int:
        """Run to fixpoint; returns the number of rewrites applied."""
        log = graph.changes
        if log.fixpoint == log.serial:
            return 0
        if log.fixpoint is None:
            log.track(graph.blocks)
        revisit = log.revisit
        total = 0
        ctx = OptimizationContext(graph)
        changed = True
        while changed:
            changed = False
            for block in list(graph.blocks):
                if revisit.isdisjoint(block.instructions):
                    continue
                for ins in list(block.instructions):
                    if ins not in revisit or ins.block is not block:
                        continue  # unchanged, or removed by a rewrite
                    revisit.discard(ins)
                    rewrite = canonicalize_instruction(ins, ctx)
                    if rewrite is None:
                        continue
                    apply_rewrite(ins, rewrite)
                    total += 1
                    changed = True
            branches = [b for b in graph.blocks if b.terminator in revisit]
            if branches:
                revisit.difference_update([b.terminator for b in branches])
                if fold_constant_branches(graph, ctx, branches):
                    changed = True
                if simplify_negated_branches(graph, ctx, branches):
                    changed = True
            if remove_dead_instructions(graph):
                changed = True
            # A merged block or a folded phi can expose new rewrites.
            if log.cfg:
                log.cfg = False
                if canonical_cfg_cleanup(graph):
                    changed = True
        log.reached_fixpoint()
        return total
