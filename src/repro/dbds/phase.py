"""The three-tier DBDS driver: simulate → trade-off → optimize.

Follows Section 5.2: the whole pipeline is applied iteratively with an
upper bound of three iterations (one duplication can expose the next
opportunity, and duplication across multiple merges at once is not
supported); another iteration only runs when the previous one produced
enough cumulative benefit.  Duplication stops when the compilation
unit's size budget or the absolute unit-size cap is hit — both enforced
inside the trade-off predicate.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.blame import current_guard
from ..costmodel.estimator import graph_code_size
from ..ir.block import Block
from ..ir.graph import Graph, Program
from ..ir.nodes import Goto
from ..obs.tracer import Tracer, current_tracer
from ..opts.base import Phase
from ..opts.canonicalize import CanonicalizerPhase
from ..opts.condelim import ConditionalEliminationPhase
from ..opts.gvn import GlobalValueNumberingPhase
from ..opts.pea import PartialEscapeAnalysisPhase
from ..opts.readelim import ReadEliminationPhase
from ..pipeline.config import DBDS, CompilerConfig
from .duplicate import can_duplicate, duplicate_into
from .simulation import SimulationResult, SimulationTier
from .tradeoff import (
    REASON_INVALIDATED,
    TradeOffDecision,
    dupalot_decision,
    emit_decision,
    evaluate_candidate,
    sort_candidates,
)


#: Section 5.2: the bound on the simulate → trade-off → optimize rounds.
MAX_DBDS_ITERATIONS = 3

#: Section 5.2: another round runs only when the last one gained at
#: least this much cumulative weighted benefit.
ITERATION_BENEFIT_THRESHOLD = 1.0

#: Section 8 path duplication: the merges one path absorbs after the
#: kept duplication that starts it.
MAX_PATH_LENGTH = 3


class DbdsStats:
    """Phase outcome, which :meth:`DbdsPhase.run` returns.

    ``candidates_simulated`` and ``duplications_performed`` count every
    simulated pair and every duplication, path hops included; the
    compiler reports them per unit.  When the tracer records, each
    simulated pair is also a ``dbds.candidate`` event and each
    accept/reject a ``dbds.decision`` event, and the metrics fold the
    same counts from those.
    """

    __slots__ = (
        "candidates_simulated", "duplications_performed", "iterations",
        "initial_size", "final_size",
    )

    def __init__(self, initial_size: float = 0.0) -> None:
        self.candidates_simulated = 0
        self.duplications_performed = 0
        self.iterations = 0
        self.initial_size = initial_size
        self.final_size = 0.0


class DbdsPhase(Phase):
    """Dominance-based duplication simulation, end to end, under the
    configuration's ``trade_off``; the ``dupalot`` configuration skips
    the trade-off and ``path-dbds`` extends kept duplications along
    paths."""

    name = "dbds"

    def __init__(
        self, program: Optional[Program] = None, config: CompilerConfig = DBDS
    ) -> None:
        self.program = program
        self.config = config

    def run(self, graph: Graph) -> DbdsStats:
        tracer = current_tracer()
        stats = DbdsStats(initial_size=graph_code_size(graph))
        for iteration in range(MAX_DBDS_ITERATIONS):
            stats.iterations += 1
            # ---------------- Tier 1: simulation -----------------------
            candidates = SimulationTier(graph, self.program).run()
            stats.candidates_simulated += len(candidates)
            # ---------------- Tier 2: trade-off -------------------------
            ranked = sort_candidates(candidates, self.config.trade_off)
            # ---------------- Tier 3: optimization ----------------------
            duplications = stats.duplications_performed
            round_benefit = self._optimize(graph, ranked, stats, tracer, iteration)
            if stats.duplications_performed == duplications:
                # Nothing changed: no follow-up work, and a round without
                # benefit is the last one anyway.
                break
            self._partial_optimizations(graph)
            if round_benefit < ITERATION_BENEFIT_THRESHOLD:
                break
        stats.final_size = graph_code_size(graph)
        return stats

    # ------------------------------------------------------------------
    def _decide(
        self, candidate: SimulationResult, current_size: float, initial_size: float
    ) -> TradeOffDecision:
        """Evaluate one candidate under the configured policy (the
        dupalot configuration skips the cost/benefit trade-off)."""
        if self.config.name == "dupalot":
            return dupalot_decision(candidate, current_size, initial_size)
        return evaluate_candidate(
            candidate, current_size, initial_size, self.config.trade_off
        )

    @staticmethod
    def _duplicate(
        graph: Graph, candidate: SimulationResult, stats: DbdsStats
    ) -> None:
        """Duplicate the candidate's merge into its predecessor, check
        the IR when every phase is checked (``--check-ir=each-phase``),
        and count the duplication."""
        duplicate_into(graph, candidate.pred, candidate.merge)
        guard = current_guard()
        if guard is not None and guard.per_phase:
            guard.check_boundary("dbds-duplication", graph)
        stats.duplications_performed += 1

    # ------------------------------------------------------------------
    def _optimize(
        self,
        graph: Graph,
        ranked: list[SimulationResult],
        stats: DbdsStats,
        tracer: Tracer,
        iteration: int,
    ) -> float:
        """Apply the accepted candidates of one round, each judged
        against the unit's size after the duplications before it."""
        mode = "dupalot" if self.config.name == "dupalot" else "dbds"
        paths = self.config.name == "path-dbds"
        round_benefit = 0.0
        for candidate in ranked:
            if not self._still_valid(graph, candidate):
                tracer.event(
                    "dbds.decision",
                    graph=graph.name,
                    merge=candidate.merge.name,
                    pred=candidate.pred.name,
                    benefit=candidate.benefit,
                    cost=candidate.cost,
                    probability=candidate.probability,
                    accepted=False,
                    reason=REASON_INVALIDATED,
                    iteration=iteration,
                    mode=mode,
                )
                continue
            decision = self._decide(
                candidate, graph_code_size(graph), stats.initial_size
            )
            emit_decision(
                tracer, graph.name, candidate, decision,
                iteration=iteration, mode=mode,
            )
            if not decision.accepted:
                continue
            self._duplicate(graph, candidate, stats)
            round_benefit += candidate.weighted_benefit
            if paths:
                round_benefit += self._extend_along_path(
                    graph, candidate.pred, stats, tracer, iteration
                )
        return round_benefit

    def _extend_along_path(
        self,
        graph: Graph,
        pred: Block,
        stats: DbdsStats,
        tracer: Tracer,
        iteration: int,
    ) -> float:
        """Section 8 future work: the predecessor just absorbed a merge;
        if it now ends in a Goto to *another* merge, keep specializing
        along the path (simulating each hop's one pair) up to
        :data:`MAX_PATH_LENGTH` merges."""
        gained = 0.0
        for _ in range(MAX_PATH_LENGTH):
            # Cash in the copies made so far: folding them turns the
            # next merge's phi input into the specialized value the
            # hop's simulation needs to see (the simulation tier proper
            # gets this for free from its synonym maps).
            CanonicalizerPhase().run(graph)
            if pred not in graph.blocks:
                break  # cleanup fused the predecessor away
            terminator = pred.terminator
            if not isinstance(terminator, Goto):
                break
            next_merge = terminator.target
            loops = graph.loop_forest()
            if not can_duplicate(graph, pred, next_merge, loops):
                break
            candidate = SimulationTier(graph, self.program).simulate(
                pred, next_merge
            )
            stats.candidates_simulated += 1
            decision = self._decide(
                candidate, graph_code_size(graph), stats.initial_size
            )
            emit_decision(
                tracer, graph.name, candidate, decision,
                iteration=iteration, mode="path",
            )
            if not decision.accepted:
                break
            self._duplicate(graph, candidate, stats)
            gained += candidate.weighted_benefit
        return gained

    @staticmethod
    def _still_valid(graph: Graph, candidate: SimulationResult) -> bool:
        """Earlier duplications this round may have restructured the CFG;
        drop candidates whose pair no longer exists as simulated."""
        if candidate.merge not in graph.blocks or candidate.pred not in graph.blocks:
            return False
        return can_duplicate(
            graph, candidate.pred, candidate.merge, graph.loop_forest()
        )

    # ------------------------------------------------------------------
    def _partial_optimizations(self, graph: Graph) -> None:
        """The follow-up optimizations whose potential the simulation
        detected (shared action steps, applied for real)."""
        CanonicalizerPhase().run(graph)
        GlobalValueNumberingPhase().run(graph)
        ConditionalEliminationPhase().run(graph)
        ReadEliminationPhase(self.program).run(graph)
        if self.program is not None:
            PartialEscapeAnalysisPhase(self.program).run(graph)
        CanonicalizerPhase().run(graph)
