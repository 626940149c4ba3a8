"""Size-budgeted direct-call inlining.

The Graal front end inlines before DBDS runs (Section 5.1) — many
duplication opportunities (boxing, accessors) only exist after inlining,
which is why the workload generators lean on small helper functions.

Inlining splices a clone of the callee between the call block and a
continuation block.  :func:`~repro.ir.copy.clone_blocks` makes the
clone, probabilities and trip counts included, and turns each return
into a jump to the continuation; multiple returns merge there with a
phi over the returned values.
"""

from __future__ import annotations

from ..ir.cfgutils import canonical_cfg_cleanup
from ..ir.copy import clone_blocks
from ..ir.graph import Graph, Program
from .base import Phase
from ..ir.nodes import Call, Goto, Phi, Return
from ..ir.types import VOID

#: callees with more instructions than this are not inlined
MAX_CALLEE_SIZE = 80
#: inlining passes over a caller's calls (each inlines what the last
#: one exposed)
MAX_ROUNDS = 4
#: a caller stops inlining at this multiple of its initial size ...
CALLER_GROWTH_FACTOR = 4.0
#: ... or at this many instructions, whichever is smaller
CALLER_SIZE_CAP = 2000


class InliningPhase(Phase):
    """Iteratively inline small callees into a caller graph."""

    name = "inlining"

    def __init__(self, program: Program) -> None:
        self.program = program

    def run(self, graph: Graph) -> int:
        initial_size = max(graph.instruction_count(), 1)
        budget = min(initial_size * CALLER_GROWTH_FACTOR, CALLER_SIZE_CAP)
        inlined = 0
        for _ in range(MAX_ROUNDS):
            calls = [
                ins
                for block in graph.blocks
                for ins in block.instructions
                if isinstance(ins, Call)
            ]
            progress = False
            for call in calls:
                if call.block is None:
                    continue
                if graph.instruction_count() >= budget:
                    break
                if self._should_inline(graph, call):
                    self.inline_call(graph, call)
                    inlined += 1
                    progress = True
            if not progress:
                break
        if inlined:
            canonical_cfg_cleanup(graph)
        return inlined

    def _should_inline(self, graph: Graph, call: Call) -> bool:
        if call.callee == graph.name:
            return False  # direct recursion
        callee = self.program.functions.get(call.callee)
        if callee is None:
            return False
        if callee.instruction_count() > MAX_CALLEE_SIZE:
            return False
        # A callee that never returns would leave the continuation
        # unreachable and the call result undefined; keep the call.
        if not any(isinstance(b.terminator, Return) for b in callee.blocks):
            return False
        return True

    # ------------------------------------------------------------------
    def inline_call(self, graph: Graph, call: Call) -> None:
        """Replace one call site by a clone of the callee body."""
        callee = self.program.function(call.callee)
        call_block = call.block
        call_index = call_block.instructions.index(call)

        # 1. Split the call block: everything after the call moves into a
        #    fresh continuation block, which inherits the terminator.
        continuation = graph.new_block(f"inl_{call.callee}_ret")
        call_block.move_instructions(
            call_block.instructions[call_index + 1 :], continuation
        )
        call_block.move_terminator(continuation)

        # 2. Clone the callee body into the caller; its returns jump to
        #    the continuation.
        block_map = {
            src: graph.new_block(f"inl_{call.callee}_{src.name}")
            for src in callee.blocks
        }
        return_sites = clone_blocks(
            callee,
            graph,
            block_map,
            dict(zip(callee.parameters, call.args)),
            returns=continuation,
        )

        # 3. Jump into the callee entry and wire the return value.
        call_block.set_terminator(Goto(block_map[callee.entry]))
        if call.type != VOID and call.has_uses():
            if len(return_sites) == 1:
                replacement = return_sites[0][1]
            else:
                # The return sites' Gotos are the continuation's only
                # predecessors.
                returned = dict(return_sites)
                inputs = [returned[pred] for pred in continuation.predecessors]
                phi = Phi(continuation, call.type, inputs)
                continuation.add_phi(phi)
                replacement = phi
            call.replace_all_uses(replacement)
        call_block.remove_instruction(call)
