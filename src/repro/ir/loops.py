"""Natural-loop detection.

Loops matter to DBDS twice: loop headers are merge blocks that must not
be tail-duplicated (that would be loop peeling, which the paper's
optimization tier does not perform), and loop bodies multiply block
frequencies, which scale duplication benefits in the trade-off tier.
"""

from __future__ import annotations

from .block import Block
from .dominators import DominatorTree
from .graph import Graph

#: Trip-count estimate used when no profile information is available.
DEFAULT_TRIP_COUNT = 10.0


class Loop:
    """A natural loop: header plus body, with its nesting parent.

    ``trip_count`` estimates the iterations per entry; profiles set it
    when available.
    """

    __slots__ = ("header", "blocks", "back_edge_predecessors", "parent", "trip_count")

    def __init__(self, header: Block, blocks: set[Block]) -> None:
        self.header = header
        self.blocks = blocks
        self.back_edge_predecessors: list[Block] = []
        self.parent: "Loop | None" = None
        self.trip_count = DEFAULT_TRIP_COUNT

    @property
    def depth(self) -> int:
        d, cur = 1, self.parent
        while cur is not None:
            d += 1
            cur = cur.parent
        return d

    def __repr__(self) -> str:
        return f"<Loop header={self.header.name} blocks={len(self.blocks)}>"


class LoopForest:
    """All natural loops of a graph, with block → innermost-loop lookup."""

    def __init__(self, graph: Graph, dom: DominatorTree | None = None) -> None:
        self.graph = graph
        self.dom = dom or DominatorTree(graph)
        self.loops: list[Loop] = []
        self._innermost: dict[Block, Loop] = {}
        self._build()

    def _build(self) -> None:
        by_header: dict[Block, Loop] = {}
        for block in self.dom.rpo:
            for succ in block.successors:
                if succ in self.dom._dfs_in and self.dom.dominates(succ, block):
                    loop = by_header.get(succ)
                    if loop is None:
                        loop = Loop(succ, {succ})
                        loop.trip_count = getattr(
                            succ, "profile_trip_count", DEFAULT_TRIP_COUNT
                        )
                        by_header[succ] = loop
                    loop.back_edge_predecessors.append(block)
                    self._collect_body(loop, block)
        # Headers in RPO order: outer loops come first.
        self.loops = [by_header[h] for h in self.dom.rpo if h in by_header]
        self._assign_nesting()

    def _collect_body(self, loop: Loop, back_edge_pred: Block) -> None:
        """Backward reachability from the back edge, stopping at the
        header — the classic natural-loop body computation."""
        stack = [back_edge_pred]
        while stack:
            block = stack.pop()
            if block in loop.blocks:
                continue
            loop.blocks.add(block)
            # The header is seeded into the body set, so this backward
            # walk naturally stops there and never leaves the loop.
            stack.extend(block.predecessors)

    def _assign_nesting(self) -> None:
        # Innermost loop per block: the smallest loop containing it.
        for loop in self.loops:
            for block in loop.blocks:
                current = self._innermost.get(block)
                if current is None or len(loop.blocks) < len(current.blocks):
                    self._innermost[block] = loop
        # Parent: the innermost *other* loop containing the header.
        for loop in self.loops:
            candidates = [
                other
                for other in self.loops
                if other is not loop and loop.header in other.blocks
            ]
            if candidates:
                loop.parent = min(candidates, key=lambda l: len(l.blocks))

    # ------------------------------------------------------------------
    def innermost_loop(self, block: Block) -> Loop | None:
        return self._innermost.get(block)

    def is_loop_header(self, block: Block) -> bool:
        return any(loop.header is block for loop in self.loops)
