"""The tail-duplication transformation (optimization tier, Section 4.3).

``duplicate_into(graph, pred, merge)`` specializes one merge block into
one predecessor — the paper's predecessor-merge pair granularity:

1. the merge's instructions are appended to the predecessor, with every
   phi replaced by its input along the duplicated edge;
2. the merge's terminator is cloned onto the predecessor, whose edge to
   the merge disappears;
3. phi inputs on the merge's successors are extended for the new edges;
4. uses of merge-defined values in dominated blocks are rewired through
   on-demand SSA repair (phis on the iterated dominance frontier) —
   the costly step the simulation tier never has to perform;
5. structural invariants are restored (critical edges, degenerate phis).
"""

from __future__ import annotations

from ..ir.block import Block
from ..ir.cfgutils import (
    fold_redundant_ifs,
    remove_unreachable_blocks,
    simplify_degenerate_phis,
    split_critical_edges,
)
from ..ir.copy import clone_instruction, clone_terminator
from ..ir.graph import Graph
from ..ir.loops import LoopForest
from ..ir.nodes import Goto, Value
from ..ir.ssa_repair import collect_external_uses, repair_value


class DuplicationError(Exception):
    """The requested predecessor-merge pair cannot be duplicated."""


def can_duplicate(graph: Graph, pred: Block, merge: Block, loops: LoopForest | None = None) -> bool:
    """Whether ``merge`` may be specialized into ``pred``.

    Requirements: a real merge, reached from ``pred`` via Goto (the
    critical-edge invariant guarantees this), not a loop header (that
    would be loop peeling), and not a self-loop.
    """
    if not merge.is_merge() or pred is merge:
        return False
    if pred not in merge.predecessors:
        return False
    if not isinstance(pred.terminator, Goto) or pred.terminator.target is not merge:
        return False
    forest = loops or graph.loop_forest()
    if forest.is_loop_header(merge):
        return False
    return True


def duplicate_into(graph: Graph, pred: Block, merge: Block) -> dict[Value, Value]:
    """Perform the duplication; returns the original→copy value map."""
    if not can_duplicate(graph, pred, merge):
        raise DuplicationError(
            f"cannot duplicate {merge.name} into {pred.name}"
        )

    pred_index = merge.predecessor_index(pred)

    # ------------------------------------------------------------------
    # 1. Value mapping: phis specialize to their input along this edge;
    #    instructions are cloned in order.
    # ------------------------------------------------------------------
    mapping: dict[Value, Value] = {}
    for phi in merge.phis:
        mapping[phi] = phi.input(pred_index)

    def mapped(value: Value) -> Value:
        return mapping.get(value, value)

    copies = []
    for ins in merge.instructions:
        copy = clone_instruction(ins, mapped)
        mapping[ins] = copy
        copies.append(copy)

    new_terminator = clone_terminator(merge.terminator, mapped, lambda b: b)

    # ------------------------------------------------------------------
    # 2. Capture external uses of merge-defined values *before* rewiring
    #    (the phi inputs dropped by remove_predecessor must not linger).
    # ------------------------------------------------------------------
    defined = list(merge.phis) + list(merge.instructions)

    # ------------------------------------------------------------------
    # 3. Rewire: pred stops jumping to merge and adopts the copies.
    #    set_terminator drops pred from merge.predecessors, which also
    #    deletes the phi inputs for this edge.
    # ------------------------------------------------------------------
    for copy in copies:
        pred.append(copy)
    pred.set_terminator(new_terminator)

    # 4. Successor phi inputs for the new edges: the new terminator's
    #    targets each gained `pred` as predecessor (appended last); the
    #    corresponding phi input is the mapped value of the input they
    #    receive along the existing edge from `merge`.
    for target in new_terminator.targets:
        if not target.phis:
            continue
        merge_edge_index = target.predecessor_index(merge)
        for phi in target.phis:
            phi._append_input(mapped(phi.input(merge_edge_index)))

    # ------------------------------------------------------------------
    # 5. SSA repair for uses in dominated blocks.
    # ------------------------------------------------------------------
    dom = graph.dominator_tree()
    for value in defined:
        uses = collect_external_uses(value, within=merge)
        if not uses:
            continue
        definitions = {merge: value, pred: mapping[value]}
        repair_value(graph, dom, definitions, uses, value.type)

    # ------------------------------------------------------------------
    # 6. Restore invariants. The merge may have collapsed to a single
    #    predecessor (degenerate phis), the pred's new If may have
    #    created critical edges, and constant-folded Ifs may leave
    #    unreachable regions.
    # ------------------------------------------------------------------
    simplify_degenerate_phis(graph)
    fold_redundant_ifs(graph)
    remove_unreachable_blocks(graph)
    split_critical_edges(graph)
    return mapping
