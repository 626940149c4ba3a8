"""Partial escape analysis and scalar replacement (Section 2, Listing 3/4).

An allocation whose only uses are field accesses on itself (plus
comparisons against ``null``, which fold — a fresh object is never null)
does not escape and can be *scalar replaced*: loads become the values
that reach them, stores and the allocation itself disappear.

The paper's key observation is the φ case: an allocation flowing into a
phi escapes (someone downstream sees "an object"), so Listing 3 cannot
be optimized — until duplication eliminates the phi, after which this
phase removes the allocation in the constant branch.  We therefore treat
phi uses as escapes, which is precisely the opportunity class the DBDS
simulation detects.

Field values are tracked flow-sensitively along single-predecessor
edges; if any load of the candidate sits beyond a merge, the allocation
is kept (a full PEA would materialize at the merge — a documented
simplification, see DESIGN.md).
"""

from __future__ import annotations

from typing import Optional

from ..ir.block import Block
from ..ir.graph import Graph, Program
from .base import Phase
from ..ir.nodes import Compare, Constant, LoadField, New, StoreField, Value
from ..ir.ops import CmpOp
from .canonicalize import remove_dead_instructions


class PartialEscapeAnalysisPhase(Phase):
    """Scalar replacement of non-escaping allocations."""

    name = "partial-escape-analysis"

    def __init__(self, program: Program) -> None:
        self.program = program

    def run(self, graph: Graph) -> int:
        replaced = 0
        for block in list(graph.blocks):
            for ins in list(block.instructions):
                if isinstance(ins, New) and ins.block is block:
                    if self._try_scalar_replace(graph, ins):
                        replaced += 1
        if replaced:
            remove_dead_instructions(graph)
        return replaced

    # ------------------------------------------------------------------
    def _classify_uses(
        self, alloc: New
    ) -> Optional[tuple[list[LoadField], list[StoreField], list[Compare]]]:
        """Partition the uses of ``alloc``; None when any use escapes."""
        loads: list[LoadField] = []
        stores: list[StoreField] = []
        null_compares: list[Compare] = []
        for user in alloc.uses:
            if isinstance(user, LoadField) and user.obj is alloc:
                loads.append(user)
            elif (
                isinstance(user, StoreField)
                and user.obj is alloc
                and user.value is not alloc
            ):
                stores.append(user)
            elif isinstance(user, Compare) and user.op in (CmpOp.EQ, CmpOp.NE):
                other = user.y if user.x is alloc else user.x
                if isinstance(other, Constant) and other.value is None:
                    null_compares.append(user)
                else:
                    return None  # compared against an arbitrary object
            else:
                return None  # phi, call argument, return, store value, …
        return loads, stores, null_compares

    def _try_scalar_replace(self, graph: Graph, alloc: New) -> bool:
        classified = self._classify_uses(alloc)
        if classified is None:
            return False
        loads, stores, null_compares = classified

        resolutions = self._resolve_loads(graph, alloc, loads)
        if resolutions is None:
            return False

        # Action: fold null comparisons (a fresh allocation is non-null),
        # forward load values, drop stores and the allocation.
        for cmp_ins in null_compares:
            cmp_ins.replace_all_uses(graph.const_bool(cmp_ins.op is CmpOp.NE))
            cmp_ins.block.remove_instruction(cmp_ins)
        for load, value in resolutions.items():
            load.replace_all_uses(value)
            load.block.remove_instruction(load)
        for store in stores:
            store.block.remove_instruction(store)
        alloc.block.remove_instruction(alloc)
        return True

    # ------------------------------------------------------------------
    def _resolve_loads(
        self, graph: Graph, alloc: New, loads: list[LoadField]
    ) -> Optional[dict[LoadField, Value]]:
        """Map each load of ``alloc`` to the value that reaches it, or
        None when some load cannot be resolved flow-sensitively."""
        decl = self.program.class_table.lookup(alloc.object_type.class_name)
        initial = {
            f.name: graph.constant(f.type.default_value(), f.type)
            for f in decl.fields
        }
        resolutions: dict[LoadField, Value] = {}
        pending = set(loads)

        # Walk from the allocation onward; state follows single-pred
        # edges only (merges lose precision and force a bail-out for
        # loads beyond them).
        start_index = alloc.block.instructions.index(alloc) + 1
        states: list[tuple[Block, int, dict[str, Value]]] = [
            (alloc.block, start_index, initial)
        ]
        visited: set[Block] = {alloc.block}
        while states:
            block, index, state = states.pop()
            for ins in block.instructions[index:]:
                if isinstance(ins, StoreField) and ins.obj is alloc:
                    state = dict(state)
                    state[ins.field] = ins.value
                elif isinstance(ins, LoadField) and ins.obj is alloc:
                    resolutions[ins] = state[ins.field]
                    pending.discard(ins)
            for succ in block.successors:
                if len(succ.predecessors) == 1 and succ not in visited:
                    visited.add(succ)
                    states.append((succ, 0, dict(state)))

        if pending:
            return None  # some load lives beyond a merge: keep the object

        def chase(value: Value) -> Value:
            # A load may resolve to another load of the same allocation
            # (p.y = p.x; … = p.y); follow the chain so no replacement
            # points at an instruction that is itself being removed.
            while isinstance(value, LoadField) and value in resolutions:
                value = resolutions[value]
            return value

        return {load: chase(value) for load, value in resolutions.items()}
