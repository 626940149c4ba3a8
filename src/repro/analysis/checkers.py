"""The IR checker suite.

Ported-and-extended versions of the historical ``repro.ir.verifier``
checks (message texts are preserved — :func:`repro.ir.verifier.verify_graph`
is now a thin shim over this registry) plus checkers the monolith never
had: per-slot phi/predecessor ordering, static stamp soundness,
loop-structure integrity and block-frequency sanity.

Checker disjointness is deliberate: each invariant has exactly one
owner, so a corrupted graph names the checker that guards the broken
property instead of producing a cascade.  Derived-state checkers
(loop-structure, block-frequency) guard on the structural invariants
they assume and stay silent when a structural checker already owns the
failure.
"""

from __future__ import annotations

import math
from typing import Optional

from ..interp.interpreter import _EXEC_HANDLERS, Interpreter, _resolve_handler
from ..ir.block import Block
from ..ir.nodes import (
    ArithOp,
    Compare,
    Constant,
    Goto,
    If,
    Instruction,
    Parameter,
    Phi,
    Terminator,
    Value,
)
from ..ir.stamps import BoolStamp, IntStamp, ObjectStamp, VoidStamp
from ..opts.stampmath import arith_stamp, compare_stamps
from .core import CheckerContext, Severity, checker

#: checkers equivalent to the historical ``verify_graph`` (shim set)
CORE_CHECKERS = (
    "block-structure",
    "edge-consistency",
    "phi-inputs",
    "phi-ordering",
    "ssa-dominance",
    "use-lists",
)


# ----------------------------------------------------------------------
# Structural checkers (ported from the old verifier)
# ----------------------------------------------------------------------
@checker("block-structure", description="terminators, block links, If shape")
def check_block_structure(ctx: CheckerContext) -> None:
    graph = ctx.graph
    if graph.entry.predecessors:
        ctx.report("entry block has predecessors", block=graph.entry)
    block_set = set(graph.blocks)
    for block in graph.blocks:
        if block.terminator is None:
            ctx.report(f"{block.name} has no terminator", block=block)
            continue
        if block.terminator.block is not block:
            ctx.report(
                f"terminator of {block.name} has wrong block link", block=block
            )
        for target in block.terminator.targets:
            if target not in block_set:
                ctx.report(
                    f"{block.name} targets removed block {target.name}",
                    block=block,
                )
        term = block.terminator
        if isinstance(term, If):
            if term.true_target is term.false_target:
                ctx.report(f"If in {block.name} has identical targets", block=block)
            if not (0.0 <= term.true_probability <= 1.0):
                ctx.report(
                    f"If in {block.name} has probability {term.true_probability}",
                    block=block,
                )
        for ins in block.instructions:
            if ins.block is not block:
                ctx.report(
                    f"{ins!r} in {block.name} has wrong block link", block=block
                )
            if isinstance(ins, Phi):
                ctx.report(
                    f"phi {ins!r} stored in instruction list of {block.name}",
                    block=block,
                )
        for phi in block.phis:
            if phi.block is not block:
                ctx.report(
                    f"{phi!r} in {block.name} has wrong block link", block=block
                )


@checker("edge-consistency", description="pred/succ symmetry, split critical edges")
def check_edge_consistency(ctx: CheckerContext) -> None:
    for block in ctx.reachable:
        # Every successor must list this block as predecessor exactly
        # once per edge (targets are distinct, so once).
        for succ in block.successors:
            count = sum(1 for p in succ.predecessors if p is block)
            if count != 1:
                ctx.report(
                    f"edge {block.name}->{succ.name} recorded {count} times "
                    "in predecessors",
                    block=block,
                )
        for pred in block.predecessors:
            if block not in pred.successors:
                ctx.report(
                    f"{pred.name} listed as predecessor of {block.name} "
                    "but has no such edge",
                    block=block,
                )
        # Critical-edge invariant: predecessors of merges end in Goto.
        if block.is_merge():
            for pred in block.predecessors:
                if not isinstance(pred.terminator, Goto):
                    ctx.report(
                        f"merge {block.name} has non-Goto predecessor "
                        f"{pred.name} (critical edge not split)",
                        block=block,
                    )


@checker("phi-inputs", description="one phi input per ordered predecessor")
def check_phi_inputs(ctx: CheckerContext) -> None:
    for block in ctx.reachable:
        for phi in block.phis:
            if len(phi.inputs) != len(block.predecessors):
                ctx.report(
                    f"{phi!r} has {len(phi.inputs)} inputs but {block.name} "
                    f"has {len(block.predecessors)} predecessors",
                    block=block,
                )


# ----------------------------------------------------------------------
# Data-flow checkers
# ----------------------------------------------------------------------
def _operand_def_ok(
    ctx: CheckerContext, operand: Value, user_desc: str, block: Block
) -> Optional[Block]:
    """Shared preamble of a use check: the operand must be an
    instruction defined in a reachable block.  Returns its defining
    block, or None when the operand is exempt or already reported."""
    if isinstance(operand, (Constant, Parameter)):
        return None
    if not isinstance(operand, Instruction):
        ctx.report(f"{user_desc} uses non-instruction {operand!r}", block=block)
        return None
    def_block = operand.block
    if def_block is None or def_block not in ctx.reachable:
        ctx.report(
            f"{user_desc} uses {operand!r} from removed/unreachable block",
            block=block,
        )
        return None
    return def_block


@checker("phi-ordering", description="phi inputs match predecessor order")
def check_phi_ordering(ctx: CheckerContext) -> None:
    """A phi input is consumed at the *end* of its slot's predecessor,
    so each input must be defined in a block dominating that
    predecessor.  Mis-ordered predecessor lists surface here: the input
    built for one incoming edge is suddenly checked against another."""
    for block in ctx.reachable:
        for phi in block.phis:
            if len(phi.inputs) != len(block.predecessors):
                continue  # phi-inputs owns the arity violation
            for slot, operand in enumerate(phi.inputs):
                pred = block.predecessors[slot]
                user_desc = f"{phi!r} (input {slot})"
                def_block = _operand_def_ok(ctx, operand, user_desc, block)
                if def_block is None:
                    continue
                if def_block is pred:
                    continue  # every def of pred is visible at its end
                if not ctx.dom.dominates(def_block, pred):
                    ctx.report(
                        f"{user_desc} in {pred.name} uses {operand!r} defined "
                        f"in {def_block.name} which does not dominate it",
                        block=block,
                    )


@checker("ssa-dominance", description="defs dominate uses")
def check_ssa_dominance(ctx: CheckerContext) -> None:
    """Schedule-order and dominance checks for instruction and
    terminator operands (phi operands are owned by phi-ordering)."""
    position: dict[Instruction, int] = {}
    for block in ctx.reachable:
        for i, ins in enumerate(block.instructions):
            position[ins] = i

    def check_use(user, operand: Value, use_block: Block, user_desc: str) -> None:
        def_block = _operand_def_ok(ctx, operand, user_desc, use_block)
        if def_block is None:
            return
        if def_block is use_block:
            if isinstance(operand, Phi):
                return  # phis precede all instructions of the block
            if isinstance(user, Terminator):
                return  # terminators come last and see every def
            if position[operand] >= position.get(user, 1 << 30):
                ctx.report(
                    f"{user_desc} uses {operand!r} before its definition",
                    block=use_block,
                )
            return
        if not ctx.dom.dominates(def_block, use_block):
            ctx.report(
                f"{user_desc} in {use_block.name} uses {operand!r} defined in "
                f"{def_block.name} which does not dominate it",
                block=use_block,
            )

    for block in ctx.reachable:
        for ins in block.instructions:
            for operand in ins.inputs:
                check_use(ins, operand, block, repr(ins))
        if block.terminator is None:
            continue  # block-structure owns the missing terminator
        for operand in block.terminator.inputs:
            check_use(
                block.terminator, operand, block, f"terminator of {block.name}"
            )


@checker("use-lists", description="use-def bookkeeping consistency")
def check_use_lists(ctx: CheckerContext) -> None:
    """Both directions of the eager use-def chains: every operand slot
    must be recorded in the operand's use map with the right count, and
    every recorded use must correspond to live operand slots."""
    graph = ctx.graph

    def users_of(block: Block):
        yield from block.phis
        yield from block.instructions
        if block.terminator is not None:
            yield block.terminator

    # Forward: user slots -> recorded counts.
    for block in ctx.reachable:
        for user in users_of(block):
            for operand in set(user.inputs):
                actual = sum(1 for v in user.inputs if v is operand)
                if operand.uses.get(user, 0) != actual:
                    ctx.report(
                        f"use-count bookkeeping broken for {operand!r}",
                        block=block,
                    )

    # Reverse: recorded users -> actual slots.
    def check_value(value: Value, block: Optional[Block]) -> None:
        for recorded_user, count in value.uses.items():
            actual = sum(1 for v in recorded_user.inputs if v is value)
            if actual != count:
                ctx.report(
                    f"use-count bookkeeping broken for {value!r}", block=block
                )
            elif getattr(recorded_user, "block", None) is None:
                ctx.report(
                    f"{value!r} is recorded as used by {recorded_user!r} "
                    "which is not attached to any block",
                    block=block,
                    severity=Severity.WARNING,
                )

    for param in graph.parameters:
        check_value(param, None)
    for const in graph._constants.values():
        check_value(const, None)
    for block in ctx.reachable:
        for ins in block.all_instructions():
            check_value(ins, block)


# ----------------------------------------------------------------------
# Stamp soundness
# ----------------------------------------------------------------------
def stamp_admits(stamp, value) -> bool:
    """Whether a runtime ``value`` is within what ``stamp`` declares."""
    if isinstance(stamp, IntStamp):
        return (
            isinstance(value, int)
            and not isinstance(value, bool)
            and stamp.contains(value)
        )
    if isinstance(stamp, BoolStamp):
        if not isinstance(value, bool):
            return False
        return stamp.can_be_true if value else stamp.can_be_false
    if isinstance(stamp, ObjectStamp):
        if value is None:
            return not stamp.non_null
        return not stamp.always_null
    if isinstance(stamp, VoidStamp):
        return value is None
    return True


def check_stamp_dynamic(instruction: Instruction, value) -> Optional[str]:
    """Dynamic stamp check of one produced value: the declared stamp
    must admit the value actually produced."""
    if stamp_admits(instruction.stamp, value):
        return None
    return (
        f"{instruction!r} produced {value!r} outside its declared "
        f"stamp {instruction.stamp!r}"
    )


class StampCheckingInterpreter(Interpreter):
    """The reference interpreter, checking every value an instruction or
    phi produces with :func:`check_stamp_dynamic` (the reference run of
    :func:`~repro.analysis.validate.differential`); the messages
    collect in ``problems``."""

    def __init__(self, program, **kwargs) -> None:
        super().__init__(program, **kwargs)
        self.problems: list[str] = []

    def observe(self, instruction: Instruction, value) -> None:
        message = check_stamp_dynamic(instruction, value)
        if message is not None:
            self.problems.append(message)

    def _execute(self, ins, env):
        # Dispatch as Interpreter._execute does rather than through it:
        # no extra Python frame per nested call, so a run as deep as
        # MAX_CALL_DEPTH fits CPython's default recursion limit.
        cls = type(ins)
        value = (_EXEC_HANDLERS.get(cls) or _resolve_handler(cls))(
            self, ins, env
        )
        self.observe(ins, value)
        return value

    def _charge_block_entry(self, block, pred, env) -> None:
        super()._charge_block_entry(block, pred, env)
        for phi in block.phis:
            self.observe(phi, env[phi])


@checker("stamp-soundness", description="declared stamps over-approximate values")
def check_stamp_soundness(ctx: CheckerContext) -> None:
    """Static over-approximation checks.  No phase in this compiler
    narrows a stamp in place, so a declared stamp narrower than what
    forward propagation proves reachable is always corruption."""
    graph = ctx.graph

    for const in graph._constants.values():
        if const.has_uses() and not stamp_admits(const.stamp, const.value):
            ctx.report(
                f"constant {const!r} has stamp {const.stamp!r} which does "
                f"not admit its value {const.value!r}"
            )

    for block in ctx.reachable:
        for ins in block.all_instructions():
            stamp = ins.stamp
            if stamp.is_empty():
                ctx.report(
                    f"{ins!r} in reachable code has empty stamp {stamp!r}",
                    block=block,
                )
                continue
            if isinstance(ins, ArithOp) and isinstance(stamp, IntStamp):
                xs, ys = ins.x.stamp, ins.y.stamp
                if isinstance(xs, IntStamp) and isinstance(ys, IntStamp):
                    computed = arith_stamp(ins.op, xs, ys)
                    if not computed.is_empty() and not (
                        stamp.lo <= computed.lo and computed.hi <= stamp.hi
                    ):
                        ctx.report(
                            f"{ins!r} has stamp {stamp!r} which does not "
                            f"cover the computed range {computed!r}",
                            block=block,
                        )
            elif isinstance(ins, Compare) and isinstance(stamp, BoolStamp):
                known = compare_stamps(ins.op, ins.x.stamp, ins.y.stamp)
                if known is not None and not stamp_admits(stamp, known):
                    ctx.report(
                        f"{ins!r} has stamp {stamp!r} but its operand stamps "
                        f"prove the result is {known}",
                        block=block,
                    )
            elif isinstance(ins, Phi) and isinstance(stamp, IntStamp):
                input_stamps = [v.stamp for v in ins.inputs]
                if input_stamps and all(
                    isinstance(s, IntStamp) for s in input_stamps
                ):
                    merged = input_stamps[0]
                    for s in input_stamps[1:]:
                        merged = merged.meet(s)
                    if not merged.is_empty() and not (
                        stamp.lo <= merged.lo and merged.hi <= stamp.hi
                    ):
                        ctx.report(
                            f"{ins!r} has stamp {stamp!r} which does not "
                            f"cover the merge of its inputs {merged!r}",
                            block=block,
                        )


# ----------------------------------------------------------------------
# Loop structure and frequencies
# ----------------------------------------------------------------------
def _edges_look_consistent(ctx: CheckerContext) -> bool:
    """Precondition probe for derived-state checkers: when the CFG's
    edge bookkeeping is broken, edge-consistency owns the failure and
    analyses built on top would only produce noise."""
    for block in ctx.reachable:
        if block.terminator is None:
            return False
        for succ in block.successors:
            if sum(1 for p in succ.predecessors if p is block) != 1:
                return False
        for pred in block.predecessors:
            if block not in pred.successors:
                return False
    return True


@checker("loop-structure", description="reducible loops, entries, back edges")
def check_loop_structure(ctx: CheckerContext) -> None:
    if not _edges_look_consistent(ctx):
        return
    graph = ctx.graph

    # Reducibility: every retreating edge of a DFS must target a block
    # dominating its source (i.e. be a true back edge).  LoopForest and
    # BlockFrequencies both silently assume this.
    state: dict[Block, int] = {}  # 1 = on stack, 2 = done
    stack: list[tuple[Block, int]] = [(graph.entry, 0)]
    state[graph.entry] = 1
    while stack:
        block, index = stack.pop()
        succs = block.successors
        if index < len(succs):
            stack.append((block, index + 1))
            succ = succs[index]
            seen = state.get(succ)
            if seen is None:
                state[succ] = 1
                stack.append((succ, 0))
            elif seen == 1 and not ctx.dom.dominates(succ, block):
                ctx.report(
                    f"irreducible loop: retreating edge {block.name}->"
                    f"{succ.name} whose target does not dominate its source",
                    block=block,
                )
        else:
            state[block] = 2

    for loop in ctx.loops.loops:
        header = loop.header
        back_edges = set(loop.back_edge_predecessors)
        if not any(p not in back_edges for p in header.predecessors):
            ctx.report(
                f"loop at {header.name} has no entry edge "
                "(every predecessor is a back edge)",
                block=header,
            )
        for pred in loop.back_edge_predecessors:
            if pred not in loop.blocks:
                ctx.report(
                    f"back-edge predecessor {pred.name} lies outside the "
                    f"loop body of {header.name}",
                    block=header,
                )
        has_exit = any(
            succ not in loop.blocks
            for body_block in loop.blocks
            for succ in body_block.successors
        )
        if not has_exit:
            ctx.report(
                f"loop at {header.name} has no exit edge",
                block=header,
                severity=Severity.WARNING,
            )


@checker("block-frequency", description="trip counts and frequency estimates")
def check_block_frequency(ctx: CheckerContext) -> None:
    if not _edges_look_consistent(ctx):
        return
    # Probability ranges are owned by block-structure; frequency math
    # on out-of-range probabilities would only duplicate that blame.
    for block in ctx.reachable:
        term = block.terminator
        if isinstance(term, If) and not (0.0 <= term.true_probability <= 1.0):
            return

    for loop in ctx.loops.loops:
        trips = loop.trip_count
        if not math.isfinite(trips) or trips <= 0.0:
            ctx.report(
                f"loop at {loop.header.name} has invalid trip count {trips!r}",
                block=loop.header,
            )

    frequencies = ctx.frequencies
    for block in ctx.reachable:
        freq = frequencies.frequency.get(block, 0.0)
        if not math.isfinite(freq) or freq < 0.0:
            ctx.report(
                f"{block.name} has invalid estimated frequency {freq!r}",
                block=block,
            )
        elif freq == 0.0:
            ctx.report(
                f"reachable block {block.name} has zero estimated frequency",
                block=block,
                severity=Severity.WARNING,
            )
