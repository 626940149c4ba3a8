"""The backtracking baseline (Algorithm 1, Section 3.1).

Tentatively duplicates at every predecessor-merge pair, runs the full
optimization phases, and rolls back to a saved CFG copy when nothing
improved.  The paper measures that the CFG copy alone made compilation
~10× slower in Graal — benchmark B1 reproduces exactly that comparison
against the simulation-based DBDS phase.

Because rollback replaces the whole graph object, ``run`` *returns* the
graph to use afterwards; callers must rebind (the pipeline does).
"""

from __future__ import annotations

from typing import Optional

from ..costmodel.estimator import graph_code_size
from ..ir.copy import copy_graph
from ..ir.graph import Graph, Program
from ..opts.canonicalize import CanonicalizerPhase
from ..opts.condelim import ConditionalEliminationPhase
from ..opts.pea import PartialEscapeAnalysisPhase
from ..opts.readelim import ReadEliminationPhase
from . import tradeoff
from .duplicate import can_duplicate, duplicate_into

#: the kept duplications one run stops at
MAX_DUPLICATIONS = 50


class BacktrackingStats:
    __slots__ = ("attempts", "kept", "rolled_back", "cfg_copies")

    def __init__(self) -> None:
        self.attempts = 0
        self.kept = 0
        self.rolled_back = 0
        self.cfg_copies = 0


class BacktrackingDuplication:
    """Algorithm 1: duplicate → optimize → keep or restore the copy."""

    name = "backtracking-duplication"

    def __init__(self, program: Optional[Program] = None) -> None:
        self.program = program
        self.stats = BacktrackingStats()

    def run(self, graph: Graph) -> Graph:
        # The unit may grow as far as the trade-off tier's IB lets DBDS.
        size_limit = graph_code_size(graph) * tradeoff.INCREASE_BUDGET
        # Index of the next predecessor-merge pair to try.  A rollback
        # replaces the whole graph object, so the position (not block
        # identity) carries across — copy_graph preserves block order.
        skip = 0
        while self.stats.kept < MAX_DUPLICATIONS:
            pairs = [
                (merge, pred)
                for merge in graph.merge_blocks()
                for pred in merge.predecessors
            ]
            if skip >= len(pairs):
                break  # full pass without progress: fixpoint
            loops = graph.loop_forest()
            restarted = False
            for index in range(skip, len(pairs)):
                merge, pred = pairs[index]
                if graph_code_size(graph) >= size_limit:
                    return graph
                if not can_duplicate(graph, pred, merge, loops):
                    skip = index + 1
                    continue
                # The expensive step: copy the *entire* CFG as the
                # backup — "we need to copy the entire IR and not only
                # the portions which are relevant for duplication".
                backup, _ = copy_graph(graph)
                self.stats.cfg_copies += 1
                self.stats.attempts += 1
                duplicate_into(graph, pred, merge)
                if self._optimizations_triggered(graph):
                    # Algorithm 1's `continue outer`: the CFG and block
                    # list changed, restart from the first merge.
                    self.stats.kept += 1
                    skip = 0
                    restarted = True
                    break
                # Backtrack to the pristine copy and advance one pair.
                graph = backup
                self.stats.rolled_back += 1
                skip = index + 1
                restarted = True
                break
            if not restarted:
                break
        return graph

    def _optimizations_triggered(self, graph: Graph) -> bool:
        """Run the full phases; report whether anything fired."""
        changes = 0
        changes += CanonicalizerPhase().run(graph)
        changes += ConditionalEliminationPhase().run(graph)
        changes += ReadEliminationPhase(self.program).run(graph)
        if self.program is not None:
            changes += PartialEscapeAnalysisPhase(self.program).run(graph)
        return changes > 0
