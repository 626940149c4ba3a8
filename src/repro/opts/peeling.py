"""Loop peeling: duplicate the first iteration before the loop.

DBDS excludes loop headers from tail duplication because duplicating a
merge with a back edge *is* loop peeling (DESIGN.md).  This module
provides that missing transformation explicitly: the whole loop body is
cloned as a straight "iteration zero" executed on entry, with the
original loop handling iterations 1+.  Entry-specific values (e.g. phi
inputs that are constants on the entry edge) then specialize the peeled
copy — the same enabling effect duplication has at ordinary merges.

The machinery mirrors ``dbds.duplicate``: value cloning with positional
phi bookkeeping, on-demand SSA repair for values escaping the loop, and
invariant restoration afterwards.
"""

from __future__ import annotations

from typing import Optional

from ..ir.block import Block
from ..ir.cfgutils import (
    fold_redundant_ifs,
    remove_unreachable_blocks,
    reverse_post_order,
    simplify_degenerate_phis,
    split_critical_edges,
)
from ..ir.copy import clone_instruction, clone_terminator
from ..ir.graph import Graph
from .base import Phase
from ..ir.loops import Loop, LoopForest
from ..ir.nodes import Constant, Goto, Phi, Value
from ..ir.ssa_repair import repair_value

#: the loops one :class:`LoopPeelingPhase` run peels at most
MAX_PEELS = 4


class PeelingError(Exception):
    """The loop cannot be peeled."""


def can_peel(graph: Graph, loop: Loop) -> bool:
    """Peelable: a natural loop whose entry predecessors all end in
    Goto (the merge invariant guarantees this) and whose header is not
    also the entry block."""
    header = loop.header
    if header is graph.entry:
        return False
    entries = [
        p for p in header.predecessors if p not in loop.back_edge_predecessors
    ]
    if not entries or not loop.back_edge_predecessors:
        return False
    return all(isinstance(e.terminator, Goto) for e in entries)


def peel_loop(graph: Graph, loop: Loop) -> dict[Value, Value]:
    """Peel one iteration; returns the original→peeled value map."""
    if not can_peel(graph, loop):
        raise PeelingError(f"cannot peel loop at {loop.header.name}")

    header = loop.header
    entries = [
        p for p in header.predecessors if p not in loop.back_edge_predecessors
    ]
    # ``loop.blocks`` is a set, whose order follows object addresses:
    # walk the body in graph order, so block ids and predecessor order
    # of the peel do not depend on what the process allocated before.
    ordered_blocks = [block for block in graph.blocks if block in loop.blocks]
    loop_blocks = set(ordered_blocks)

    # ------------------------------------------------------------------
    # A. Capture positional information before any edges move.
    # ------------------------------------------------------------------
    entry_inputs: dict[Phi, list[Value]] = {
        phi: [phi.input(header.predecessor_index(e)) for e in entries]
        for phi in header.phis
    }
    original_header_preds = list(header.predecessors)
    external_targets_snapshot: dict[Block, int] = {}

    # ------------------------------------------------------------------
    # B. Create peeled blocks; seed the value map.
    # ------------------------------------------------------------------
    block_map: dict[Block, Block] = {
        block: graph.new_block(f"peel_{block.name}") for block in ordered_blocks
    }
    reverse_map = {copy: orig for orig, copy in block_map.items()}
    value_map: dict[Value, Value] = {}

    def mapped(value: Value) -> Value:
        return value_map.get(value, value)

    peeled_header = block_map[header]
    multi_entry = len(entries) > 1
    pending_header_phis: list[tuple[Phi, Phi]] = []
    for phi in header.phis:
        if multi_entry:
            clone = Phi(peeled_header, phi.type, [])
            peeled_header.add_phi(clone)
            value_map[phi] = clone
            pending_header_phis.append((phi, clone))
        else:
            # Single entry: the peeled iteration sees the entry value
            # directly — no phi needed.
            value_map[phi] = entry_inputs[phi][0]

    pending_inner_phis: list[tuple[Block, Phi, Phi]] = []
    for block in ordered_blocks:
        if block is header:
            continue
        for phi in block.phis:
            clone = Phi(block_map[block], phi.type, [])
            block_map[block].add_phi(clone)
            value_map[phi] = clone
            pending_inner_phis.append((block, phi, clone))

    # Instructions in RPO so definitions map before uses.
    for block in reverse_post_order(graph):
        if block not in loop_blocks:
            continue
        for ins in block.instructions:
            copy = clone_instruction(ins, mapped)
            block_map[block].append(copy)
            value_map[ins] = copy

    # ------------------------------------------------------------------
    # C. Terminators. Loop-internal targets map to the peeled copies,
    #    except the header: the peeled back edge enters the *original*
    #    loop (iteration 1+). External targets (exits) stay.
    # ------------------------------------------------------------------
    def target_of(block: Block) -> Block:
        if block is header:
            return header
        return block_map.get(block, block)

    external_gainers: list[Block] = []
    for block in ordered_blocks:
        for succ in block.successors:
            if succ not in loop_blocks or succ is header:
                if succ not in external_targets_snapshot:
                    external_targets_snapshot[succ] = len(succ.predecessors)
                    external_gainers.append(succ)
    for block in ordered_blocks:
        copy = block_map[block]
        copy.set_terminator(
            clone_terminator(block.terminator, mapped, target_of)
        )

    # Every external block that gained predecessors (the original header
    # included) extends its phis positionally for the new edges.
    for target in external_gainers:
        base = external_targets_snapshot[target]
        for new_pred in target.predecessors[base:]:
            origin = reverse_map[new_pred]
            origin_index = target.predecessor_index(origin)
            for phi in target.phis:
                phi._append_input(mapped(phi.input(origin_index)))

    # ------------------------------------------------------------------
    # D. Entries now enter the peeled iteration.
    # ------------------------------------------------------------------
    for entry in entries:
        slot = list(entry.terminator.targets).index(header)
        entry.terminator.set_target(slot, peeled_header)

    # E. Multi-entry header phis in the peel get their entry inputs in
    #    the (new) predecessor order of the peeled header.
    if multi_entry:
        order = {entry: i for i, entry in enumerate(entries)}
        for pred in peeled_header.predecessors:
            for original_phi, clone in pending_header_phis:
                clone._append_input(entry_inputs[original_phi][order[pred]])

    # F. Inner merge phis: inputs per the peeled block's predecessor
    #    order, mapped from the original edge's input.
    for block, phi, clone in pending_inner_phis:
        for pred in block_map[block].predecessors:
            origin = reverse_map[pred]
            index = block.predecessor_index(origin)
            clone._append_input(mapped(phi.input(index)))

    # ------------------------------------------------------------------
    # G. SSA repair for loop-defined values used beyond the loop.
    # ------------------------------------------------------------------
    dom = graph.dominator_tree()
    peeled_blocks = set(block_map.values())

    for block in ordered_blocks:
        for value in list(block.phis) + list(block.instructions):
            uses = _uses_outside(value, loop_blocks | peeled_blocks)
            if not uses:
                continue
            peeled_value = value_map[value]
            definitions = {block: value, _defining_block(peeled_value, block_map, block): peeled_value}
            repair_value(graph, dom, definitions, uses, value.type)

    # ------------------------------------------------------------------
    # H. Restore invariants.
    # ------------------------------------------------------------------
    if hasattr(header, "profile_trip_count"):
        header.profile_trip_count = max(header.profile_trip_count - 1.0, 1.0)
    simplify_degenerate_phis(graph)
    fold_redundant_ifs(graph)
    remove_unreachable_blocks(graph)
    split_critical_edges(graph)
    return value_map


def _defining_block(value: Value, block_map: dict[Block, Block], fallback_origin: Block) -> Block:
    """Block claiming the peeled definition for SSA repair purposes.

    A peeled instruction lives in its copy block; a specialized header
    phi may be an outside value, which dominates the peeled header and
    can be claimed there.
    """
    block = getattr(value, "block", None)
    if block is not None:
        return block
    return block_map[fallback_origin]


def _uses_outside(value: Value, region: set[Block]) -> list:
    """(user, slot) pairs consumed outside ``region`` (phi inputs belong
    to their predecessor edge)."""
    result = []
    for user in list(value.uses):
        for slot, operand in enumerate(user.inputs):
            if operand is not value:
                continue
            if isinstance(user, Phi):
                use_block = user.block.predecessors[slot]
            else:
                use_block = user.block
            if use_block not in region:
                result.append((user, slot))
    return result


class LoopPeelingPhase(Phase):
    """Peel loops whose first iteration specializes.

    Heuristic: a loop is worth peeling when some header phi has a
    constant input on the entry edge (the peeled iteration then folds),
    at most :data:`MAX_PEELS` loops per run.  This is an experimental
    extension, not part of the default pipeline — see DESIGN.md.
    """

    name = "loop-peeling"

    def run(self, graph: Graph) -> int:
        peeled = 0
        while peeled < MAX_PEELS:
            forest = graph.loop_forest()
            candidate = self._pick(graph, forest)
            if candidate is None:
                break
            peel_loop(graph, candidate)
            peeled += 1
        return peeled

    def _pick(self, graph: Graph, forest: LoopForest) -> Optional[Loop]:
        for loop in forest.loops:
            if not can_peel(graph, loop):
                continue
            if getattr(loop.header, "_peeled_once", False):
                continue
            entries = [
                p
                for p in loop.header.predecessors
                if p not in loop.back_edge_predecessors
            ]
            for phi in loop.header.phis:
                for entry in entries:
                    value = phi.input(loop.header.predecessor_index(entry))
                    if isinstance(value, Constant):
                        loop.header._peeled_once = True
                        return loop
        return None
