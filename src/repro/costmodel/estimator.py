"""Static performance and code-size estimation over whole graphs.

Implements the "static performance estimator" of Sections 4.1/5.3: each
IR node contributes cost-model cycles weighted by its basic block's
relative execution frequency; code size is the plain sum of size
estimates.  The DBDS trade-off tier and the benchmark harness both
consume these estimates.
"""

from __future__ import annotations

from ..ir.block import Block
from ..ir.frequency import BlockFrequencies
from ..ir.graph import Graph
from .model import cycles_of, size_of


def block_cycles(block: Block) -> float:
    """Unweighted cycle cost of one execution of ``block``."""
    total = 0.0
    for phi in block.phis:
        total += cycles_of(phi)
    for ins in block.instructions:
        total += cycles_of(ins)
    if block.terminator is not None:
        total += cycles_of(block.terminator)
    return total


def block_size(block: Block) -> float:
    """Code-size estimate of one block."""
    total = 0.0
    for phi in block.phis:
        total += size_of(phi)
    for ins in block.instructions:
        total += size_of(ins)
    if block.terminator is not None:
        total += size_of(block.terminator)
    return total


def graph_code_size(graph: Graph) -> float:
    """Code-size estimate of a whole compilation unit.

    This (not the raw node count) is the quantity the paper's budget
    heuristic compares against the initial size (Section 5.2).  Every
    edit that can change it is a write to the graph's change log, so
    one walk serves every call until the log's ``serial`` moves.
    """
    serial = graph.changes.serial
    cached = graph._analysis_cache.get("code_size")
    if cached is not None and cached[0] == serial:
        return cached[1]
    size = sum(block_size(b) for b in graph.blocks)
    graph._analysis_cache["code_size"] = (serial, size)
    return size


def estimated_run_time(graph: Graph, frequencies: BlockFrequencies | None = None) -> float:
    """Frequency-weighted cycle estimate of one invocation of ``graph``."""
    freqs = frequencies or graph.block_frequencies()
    return sum(
        block_cycles(block) * freqs.frequency.get(block, 0.0) for block in graph.blocks
    )


class GraphCostSummary:
    """Size and estimated run time of a compilation unit."""

    __slots__ = ("code_size", "estimated_cycles")

    def __init__(self, code_size: float, estimated_cycles: float) -> None:
        self.code_size = code_size
        self.estimated_cycles = estimated_cycles

    @staticmethod
    def of(graph: Graph) -> "GraphCostSummary":
        return GraphCostSummary(graph_code_size(graph), estimated_run_time(graph))
