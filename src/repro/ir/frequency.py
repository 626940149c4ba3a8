"""Profile-driven relative block execution frequencies.

The DBDS trade-off tier scales a candidate's benefit by "the relative
probability of an instruction with respect to the entire compilation
unit" (Section 5.4).  This module computes exactly that: propagate edge
probabilities through the acyclic CFG, multiply loop bodies by their
trip counts, and normalize by the maximum frequency in the unit.
"""

from __future__ import annotations

from .block import Block
from .graph import Graph
from .loops import LoopForest
from .nodes import If


class BlockFrequencies:
    """Absolute and relative execution frequency estimates per block."""

    def __init__(self, graph: Graph, loops: LoopForest | None = None) -> None:
        self.graph = graph
        self.loops = loops or LoopForest(graph)
        self.frequency: dict[Block, float] = {}
        self._compute()
        self.max_frequency = max(self.frequency.values(), default=1.0) or 1.0

    def _edge_probability(self, pred: Block, succ: Block) -> float:
        term = pred.terminator
        if isinstance(term, If):
            return term.probability_of(succ)
        return 1.0

    def _compute(self) -> None:
        dom = self.loops.dom
        freq = self.frequency
        for block in dom.rpo:
            if block is self.graph.entry:
                freq[block] = 1.0
                continue
            loop = self.loops.innermost_loop(block)
            if loop is not None and loop.header is block:
                # Entry flow only (back edges excluded), scaled by trips.
                inflow = sum(
                    freq.get(p, 0.0) * self._edge_probability(p, block)
                    for p in block.predecessors
                    if p not in loop.back_edge_predecessors
                )
                freq[block] = inflow * max(loop.trip_count, 1.0)
            else:
                # Back edges only enter loop headers, so every
                # predecessor of a non-header precedes it in RPO of a
                # reducible CFG and its frequency is already available.
                freq[block] = sum(
                    freq.get(p, 0.0) * self._edge_probability(p, block)
                    for p in block.predecessors
                )
        # Guard against pathological profiles producing zero everywhere.
        if all(f == 0.0 for f in freq.values()):
            for b in freq:
                freq[b] = 1.0

    def relative(self, block: Block) -> float:
        """Frequency of ``block`` relative to the hottest block (0..1]."""
        return self.frequency.get(block, 0.0) / self.max_frequency
