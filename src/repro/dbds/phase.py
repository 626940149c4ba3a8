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

from ..costmodel.estimator import graph_code_size
from ..ir.graph import Graph, Program
from ..ir.nodes import Goto
from ..ir.verifier import verify_graph
from ..obs.tracer import NULL_TRACER, Tracer, current_tracer
from ..opts.base import Phase
from ..opts.canonicalize import CanonicalizerPhase
from ..opts.condelim import ConditionalEliminationPhase
from ..opts.gvn import GlobalValueNumberingPhase
from ..opts.pea import PartialEscapeAnalysisPhase
from ..opts.readelim import ReadEliminationPhase
from .duplicate import can_duplicate, duplicate_into
from .simulation import SimulationResult, SimulationTier
from .tradeoff import (
    REASON_INVALIDATED,
    TradeOffConfig,
    TradeOffDecision,
    emit_decision,
    evaluate_candidate,
    sort_candidates,
)


class DbdsConfig:
    """Behavioural switches of the DBDS phase.

    * ``max_iterations``: maximum simulate→trade-off→optimize rounds
      (paper: 3).
    * ``iteration_benefit_threshold``: minimum cumulative weighted
      benefit to justify another round.
    * ``dupalot``: perform every positive-benefit duplication, no
      cost/benefit trade-off (the paper's comparison configuration).
    * ``paranoid``: run the verifier after every duplication (tests
      enable this).
    * ``path_duplication`` (Section 8 future work): after a kept
      duplication, keep duplicating along the resulting Goto chain
      through further merges in the same pass ("duplicate over multiple
      merges along paths"), absorbing at most ``max_path_length`` extra
      merges along one path.
    """

    __slots__ = (
        "trade_off", "max_iterations", "iteration_benefit_threshold",
        "dupalot", "paranoid", "path_duplication", "max_path_length",
    )

    def __init__(
        self,
        trade_off: Optional[TradeOffConfig] = None,
        max_iterations: int = 3,
        iteration_benefit_threshold: float = 1.0,
        dupalot: bool = False,
        paranoid: bool = False,
        path_duplication: bool = False,
        max_path_length: int = 3,
    ) -> None:
        self.trade_off = trade_off if trade_off is not None else TradeOffConfig()
        self.max_iterations = max_iterations
        self.iteration_benefit_threshold = iteration_benefit_threshold
        self.dupalot = dupalot
        self.paranoid = paranoid
        self.path_duplication = path_duplication
        self.max_path_length = max_path_length


class DbdsStats:
    """Phase outcome for reporting.

    Since the telemetry subsystem landed this is a *view* over the
    tracer's counters — ``candidates_simulated`` and
    ``duplications_performed`` are the per-run deltas of the
    ``dbds.candidates`` / ``dbds.duplications`` counters, and every
    accept/reject is also available as a ``dbds.decision`` event when
    event recording is on.
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
    """Dominance-based duplication simulation, end to end."""

    name = "dbds"

    def __init__(self, program: Optional[Program] = None, config: Optional[DbdsConfig] = None) -> None:
        self.program = program
        self.config = config or DbdsConfig()

    def run(self, graph: Graph) -> DbdsStats:
        config = self.config
        tracer = current_tracer()
        if tracer is NULL_TRACER:
            # Standalone use (tests, examples): counters must still
            # tally for the stats view, so swap in a counting tracer.
            tracer = Tracer(enabled=False)
        candidates_before = tracer.counter("dbds.candidates")
        duplications_before = tracer.counter("dbds.duplications")
        stats = DbdsStats(initial_size=graph_code_size(graph))
        initial_size = stats.initial_size
        for iteration in range(config.max_iterations):
            stats.iterations += 1
            # ---------------- Tier 1: simulation -----------------------
            tier = SimulationTier(graph, self.program)
            candidates = tier.run()
            tracer.count("dbds.candidates", len(candidates))
            # ---------------- Tier 2: trade-off -------------------------
            ranked = sort_candidates(candidates, config.trade_off)
            # ---------------- Tier 3: optimization ----------------------
            duplications = tracer.counter("dbds.duplications")
            round_benefit = self._optimize(
                graph, ranked, initial_size, tracer, iteration
            )
            if tracer.counter("dbds.duplications") == duplications:
                # Nothing changed: no follow-up work, and a round without
                # benefit is the last one anyway.
                break
            self._partial_optimizations(graph)
            if round_benefit < config.iteration_benefit_threshold:
                break
        stats.candidates_simulated = (
            tracer.counter("dbds.candidates") - candidates_before
        )
        stats.duplications_performed = (
            tracer.counter("dbds.duplications") - duplications_before
        )
        stats.final_size = graph_code_size(graph)
        return stats

    # ------------------------------------------------------------------
    def _decide(
        self, candidate: SimulationResult, current_size: float, initial_size: float
    ) -> TradeOffDecision:
        """Evaluate one candidate under the configured policy (the
        dupalot configuration skips the cost/benefit trade-off)."""
        config = self.config
        if config.dupalot:
            return TradeOffDecision(
                weighted=candidate.weighted_benefit,
                threshold_term=candidate.benefit > 0,
                unit_size_term=current_size < config.trade_off.max_unit_size,
                budget_term=True,
                current_size=current_size,
                initial_size=initial_size,
            )
        return evaluate_candidate(
            candidate, current_size, initial_size, config.trade_off
        )

    def _record_applied(
        self, tracer: Tracer, candidate: SimulationResult
    ) -> None:
        """Attribute the enabled optimizations to this duplication."""
        tracer.count("dbds.duplications")
        for reason in candidate.reasons:
            tracer.count(f"dbds.applied.{reason}")

    # ------------------------------------------------------------------
    def _optimize(
        self,
        graph: Graph,
        ranked: list[SimulationResult],
        initial_size: float,
        tracer: Tracer,
        iteration: int,
    ) -> float:
        """Apply the accepted candidates of one round, each judged
        against the unit's size after the duplications before it."""
        config = self.config
        mode = "dupalot" if config.dupalot else "dbds"
        round_benefit = 0.0
        for candidate in ranked:
            if not self._still_valid(graph, candidate):
                tracer.count("dbds.decision.invalidated")
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
                candidate, graph_code_size(graph), initial_size
            )
            emit_decision(
                tracer, graph.name, candidate, decision,
                iteration=iteration, mode=mode,
            )
            if not decision.accepted:
                continue
            duplicate_into(graph, candidate.pred, candidate.merge)
            if config.paranoid:
                verify_graph(graph)
            self._record_applied(tracer, candidate)
            round_benefit += candidate.weighted_benefit
            if config.path_duplication:
                round_benefit += self._extend_along_path(
                    graph, candidate.pred, initial_size, tracer, iteration
                )
        return round_benefit

    def _extend_along_path(
        self,
        graph: Graph,
        pred,
        initial_size: float,
        tracer: Tracer,
        iteration: int,
    ) -> float:
        """Section 8 future work: the predecessor just absorbed a merge;
        if it now ends in a Goto to *another* merge, keep specializing
        along the path (simulating each hop's one pair) up to
        max_path_length."""
        config = self.config
        gained = 0.0
        for _ in range(config.max_path_length):
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
            tracer.count("dbds.candidates")
            decision = self._decide(
                candidate, graph_code_size(graph), initial_size
            )
            emit_decision(
                tracer, graph.name, candidate, decision,
                iteration=iteration, mode="path",
            )
            if not decision.accepted:
                break
            duplicate_into(graph, pred, next_merge)
            if config.paranoid:
                verify_graph(graph)
            self._record_applied(tracer, candidate)
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
