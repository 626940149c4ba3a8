"""Dominator tree, dominance queries and dominance frontiers.

Implements the Cooper–Harvey–Kennedy iterative algorithm over RPO
numbers, plus in/out DFS numbering for O(1) ``dominates`` queries and
(iterated) dominance frontiers for SSA repair.
"""

from __future__ import annotations

from .block import Block
from .cfgutils import reverse_post_order
from .graph import Graph


class DominatorTree:
    """Immutable dominator information for one graph snapshot.

    Recompute after structural CFG changes; the tree never self-updates.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.rpo: list[Block] = reverse_post_order(graph)
        self._rpo_index: dict[Block, int] = {b: i for i, b in enumerate(self.rpo)}
        self.idom: dict[Block, Block] = {}
        self._compute_idoms()
        self.children: dict[Block, list[Block]] = {b: [] for b in self.rpo}
        for block, parent in self.idom.items():
            if block is not parent:
                self.children[parent].append(block)
        # Children in RPO order gives a deterministic DFS.
        for kids in self.children.values():
            kids.sort(key=self._rpo_index.__getitem__)
        self._dfs_in: dict[Block, int] = {}
        self._dfs_out: dict[Block, int] = {}
        self._number()

    # ------------------------------------------------------------------
    def _compute_idoms(self) -> None:
        entry = self.graph.entry
        idom: dict[Block, Block] = {entry: entry}
        index = self._rpo_index
        changed = True
        while changed:
            changed = False
            for block in self.rpo[1:]:
                processed = [p for p in block.predecessors if p in idom]
                if not processed:
                    continue
                new_idom = processed[0]
                for p in processed[1:]:
                    new_idom = self._intersect(new_idom, p, idom, index)
                if idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True
        self.idom = idom

    @staticmethod
    def _intersect(a: Block, b: Block, idom: dict, index: dict) -> Block:
        while a is not b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    def _number(self) -> None:
        for counter, (block, entering) in enumerate(self.walk()):
            (self._dfs_in if entering else self._dfs_out)[block] = counter

    def walk(self):
        """Depth-first over the dominator tree from the entry: yield
        ``(block, True)`` on entering ``block`` and ``(block, False)``
        once its whole subtree is done, children in RPO order.  The
        one dominator-tree traversal: scoped state (value tables,
        branch facts) is pushed on entering and popped on leaving."""
        stack: list[tuple[Block, bool]] = [(self.graph.entry, True)]
        while stack:
            block, entering = stack.pop()
            yield block, entering
            if entering:
                stack.append((block, False))
                stack.extend((child, True) for child in reversed(self.children[block]))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def dominates(self, a: Block, b: Block) -> bool:
        """True when ``a`` dominates ``b`` (every block dominates itself)."""
        return (
            self._dfs_in[a] <= self._dfs_in[b] and self._dfs_out[b] <= self._dfs_out[a]
        )

    def immediate_dominator(self, block: Block) -> Block:
        return self.idom[block]

    def walk_up(self, block: Block):
        """Yield ``block`` and all its dominators up to the entry."""
        current = block
        while True:
            yield current
            parent = self.idom[current]
            if parent is current:
                return
            current = parent

    # ------------------------------------------------------------------
    # Dominance frontiers
    # ------------------------------------------------------------------
    def dominance_frontiers(self) -> dict[Block, set[Block]]:
        """Cytron-style dominance frontiers for every reachable block."""
        df: dict[Block, set[Block]] = {b: set() for b in self.rpo}
        for block in self.rpo:
            if len(block.predecessors) < 2:
                continue
            for pred in block.predecessors:
                if pred not in self._dfs_in:
                    continue  # unreachable predecessor
                runner = pred
                while runner is not self.idom[block]:
                    df[runner].add(block)
                    runner = self.idom[runner]
        return df

    def iterated_dominance_frontier(self, blocks: set[Block]) -> set[Block]:
        """DF+ of a set of definition blocks: the phi placement set."""
        df = self.dominance_frontiers()
        result: set[Block] = set()
        worklist = [b for b in blocks if b in self._dfs_in]
        on_list = set(worklist)
        while worklist:
            block = worklist.pop()
            for frontier_block in df.get(block, ()):
                if frontier_block not in result:
                    result.add(frontier_block)
                    if frontier_block not in on_list:
                        on_list.add(frontier_block)
                        worklist.append(frontier_block)
        return result
