"""Loop-invariant code motion.

Pure, non-trapping instructions whose operands are defined outside a
loop (or were themselves hoisted) move to the loop's pre-header — they
compute the same value on every iteration and cannot fault, so
executing them once is both safe and cheaper.  Graal gets this effect
from its global code motion / scheduling; here it is an explicit phase
in the cleanup pipeline.

Loops are processed innermost-first so invariants bubble outward
through nested loops.
"""

from __future__ import annotations

from ..ir.block import Block
from ..ir.cfgutils import reverse_post_order
from ..ir.graph import Graph
from ..ir.loops import Loop
from ..ir.nodes import ArithOp, Compare, Goto, Instruction, Neg, Not
from .base import Phase


def _is_hoistable(instruction: Instruction) -> bool:
    if isinstance(instruction, (Compare, Not, Neg)):
        return True
    if isinstance(instruction, ArithOp):
        return not instruction.op.can_trap
    return False


class LoopInvariantCodeMotionPhase(Phase):
    """Hoist loop-invariant pure computations to pre-headers."""

    name = "loop-invariant-code-motion"

    def run(self, graph: Graph) -> int:
        loops = graph.loop_forest().loops
        if not loops:
            return 0
        # Hoisting moves instructions, never edges: one order serves
        # every loop and pass.
        order = reverse_post_order(graph)
        hoisted = 0
        # Innermost loops first: larger depth first.
        for loop in sorted(loops, key=lambda l: -l.depth):
            hoisted += self._hoist_loop(order, loop)
        return hoisted

    # ------------------------------------------------------------------
    def _preheader(self, loop: Loop) -> Block | None:
        """The unique non-back-edge predecessor of the loop header,
        which (by the critical-edge invariant) ends in a Goto."""
        entries = [
            pred
            for pred in loop.header.predecessors
            if pred not in loop.back_edge_predecessors
        ]
        if len(entries) != 1:
            return None
        preheader = entries[0]
        if not isinstance(preheader.terminator, Goto):
            return None
        if preheader in loop.blocks:
            return None
        return preheader

    def _hoist_loop(self, order: list[Block], loop: Loop) -> int:
        preheader = self._preheader(loop)
        if preheader is None:
            return 0
        blocks = [block for block in order if block in loop.blocks]
        hoisted = 0
        changed = True
        while changed:
            changed = False
            for block in blocks:
                for ins in list(block.instructions):
                    if not _is_hoistable(ins):
                        continue
                    if not self._operands_invariant(ins, loop):
                        continue
                    self._move(ins, preheader)
                    hoisted += 1
                    changed = True
        return hoisted

    @staticmethod
    def _operands_invariant(ins: Instruction, loop: Loop) -> bool:
        for operand in ins.inputs:
            block = getattr(operand, "block", None)
            if block is not None and block in loop.blocks:
                return False
        return True

    @staticmethod
    def _move(ins: Instruction, preheader: Block) -> None:
        ins.block.move_instructions([ins], preheader)
