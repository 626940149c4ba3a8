"""LIR-level checkers: structure, liveness, register allocation.

The back end has its own invariants — block/terminator shape over
integer block ids, every virtual register defined before use, and an
allocation that never assigns one physical register to two overlapping
live intervals.  These run through the same registry/report machinery
as the IR checkers, under the ``lir`` scope.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..backend.lir import (
    Immediate,
    LirBranch,
    LirFunction,
    LirJump,
    LirReturn,
    PReg,
    StackSlot,
    VReg,
)
from ..backend.liveness import compute_liveness
from ..backend.regalloc import AllocationResult
from .core import (
    SCOPE_LIR,
    CheckReport,
    _ContextBase,
    _execute,
    _select,
    checker,
)

_TERMINATORS = (LirJump, LirBranch, LirReturn)


class LirCheckerContext(_ContextBase):
    """One LIR check run: the function plus the allocation (if any)."""

    def __init__(
        self,
        function: LirFunction,
        allocation: Optional[AllocationResult] = None,
    ) -> None:
        super().__init__(function.name)
        self.function = function
        self.allocation = allocation


def _successor_ids(instruction) -> list[int]:
    if isinstance(instruction, LirJump):
        return [instruction.target]
    if isinstance(instruction, LirBranch):
        return [instruction.true_target, instruction.false_target]
    return []


@checker("lir-structure", scope=SCOPE_LIR, description="LIR block/edge shape")
def check_lir_structure(ctx: LirCheckerContext) -> None:
    function = ctx.function
    if function.entry not in function.blocks:
        ctx.report(f"entry block L{function.entry} does not exist")
        return
    for block_id, block in function.blocks.items():
        where = f"L{block_id}"
        if block.id != block_id:
            ctx.report(f"{where} stored under mismatched id {block.id}", block=where)
        if not block.instructions:
            ctx.report(f"{where} is empty (no terminator)", block=where)
            continue
        if not isinstance(block.terminator, _TERMINATORS):
            ctx.report(
                f"{where} does not end in a terminator "
                f"({block.terminator!r})",
                block=where,
            )
        for ins in block.instructions[:-1]:
            if isinstance(ins, _TERMINATORS):
                ctx.report(
                    f"terminator {ins!r} in the middle of {where}", block=where
                )
        targets = _successor_ids(block.terminator)
        if sorted(targets) != sorted(block.successors):
            ctx.report(
                f"{where} successors {block.successors} disagree with its "
                f"terminator targets {targets}",
                block=where,
            )
        for succ_id in block.successors:
            succ = function.blocks.get(succ_id)
            if succ is None:
                ctx.report(
                    f"{where} targets missing block L{succ_id}", block=where
                )
            elif block_id not in succ.predecessors:
                ctx.report(
                    f"edge {where}->L{succ_id} missing from predecessors",
                    block=where,
                )
        for pred_id in block.predecessors:
            pred = function.blocks.get(pred_id)
            if pred is None or block_id not in pred.successors:
                ctx.report(
                    f"L{pred_id} listed as predecessor of {where} but has "
                    "no such edge",
                    block=where,
                )


def _structure_ok(function: LirFunction) -> bool:
    """Precondition probe for the dataflow checkers: when the block
    graph itself is broken, lir-structure owns the failure and liveness
    over dangling edges would only crash or produce noise."""
    if function.entry not in function.blocks:
        return False
    for block in function.blocks.values():
        if not block.instructions:
            return False
        if not isinstance(block.terminator, _TERMINATORS):
            return False
        for neighbour in (*block.successors, *block.predecessors):
            if neighbour not in function.blocks:
                return False
    return True


@checker("lir-liveness", scope=SCOPE_LIR, description="vregs defined before use")
def check_lir_liveness(ctx: LirCheckerContext) -> None:
    """Backward liveness must not carry any virtual register into the
    entry block except the parameters: a vreg live-in at entry is a use
    without a reaching definition."""
    function = ctx.function
    if not _structure_ok(function):
        return
    has_vregs = any(
        isinstance(op, VReg)
        for block in function.blocks.values()
        for ins in block.instructions
        for op in (*ins.uses(), *ins.defs())
    )
    if not has_vregs:
        return  # post-allocation code: lir-allocation owns this shape
    live_in, _ = compute_liveness(function)
    params = set(function.param_regs)
    for vreg in sorted(
        live_in.get(function.entry, ()), key=lambda v: v.id
    ):
        if vreg not in params:
            ctx.report(
                f"virtual register {vreg!r} is used but never defined "
                "(live into the entry block)",
                block=f"L{function.entry}",
            )


@checker("lir-allocation", scope=SCOPE_LIR, description="allocation consistency")
def check_lir_allocation(ctx: LirCheckerContext) -> None:
    function = ctx.function
    allocation = ctx.allocation
    if allocation is not None:
        # No interval may be left without a location.
        for interval in allocation.intervals:
            if interval.vreg not in allocation.mapping:
                ctx.report(
                    f"virtual register {interval.vreg!r} has a live interval "
                    "but no allocated location"
                )
        # Two overlapping intervals must not share a physical register.
        by_register: dict[int, list] = {}
        for interval in allocation.intervals:
            location = allocation.mapping.get(interval.vreg)
            if isinstance(location, PReg):
                by_register.setdefault(location.index, []).append(interval)
        for index, intervals in sorted(by_register.items()):
            intervals.sort(key=lambda i: i.start)
            for first, second in zip(intervals, intervals[1:]):
                if first.overlaps(second):
                    ctx.report(
                        f"overlapping live intervals {first!r} and {second!r} "
                        f"share register r{index}"
                    )
        # Frame accounting must cover every assigned stack slot.
        for vreg, location in allocation.mapping.items():
            if (
                isinstance(location, StackSlot)
                and location.index >= function.frame_slots
            ):
                ctx.report(
                    f"{vreg!r} spilled to {location!r} beyond the recorded "
                    f"frame size {function.frame_slots}"
                )
        # Allocated code must not mention virtual registers any more.
        for block in function.blocks.values():
            for ins in block.instructions:
                for op in (*ins.uses(), *ins.defs()):
                    if isinstance(op, VReg):
                        ctx.report(
                            f"unallocated virtual register {op!r} remains "
                            f"in {ins!r}",
                            block=f"L{block.id}",
                        )
    else:
        # Without an allocation result the only checkable property is
        # that operands are still uniformly virtual (pre-allocation).
        for block in function.blocks.values():
            for ins in block.instructions:
                kinds = {
                    type(op)
                    for op in (*ins.uses(), *ins.defs())
                    if not isinstance(op, Immediate)
                }
                if VReg in kinds and (PReg in kinds or StackSlot in kinds):
                    ctx.report(
                        f"{ins!r} mixes virtual and allocated operands",
                        block=f"L{block.id}",
                    )


def run_lir_checkers(
    function: LirFunction,
    allocation: Optional[AllocationResult] = None,
    *,
    checkers: Optional[Iterable[str]] = None,
) -> CheckReport:
    """Run LIR checkers (``checkers`` by name, None = all) over one
    lowered function, keep-going."""
    selected = _select(checkers, SCOPE_LIR)
    ctx = LirCheckerContext(function, allocation)
    return _execute(ctx, selected, False, CheckReport(graph=function.name))
