"""The DBDS trade-off tier (Section 5.4).

Implements the paper's ``shouldDuplicate`` heuristic verbatim:

    (b × p × BS) > c  ∧  (cs < MS)  ∧  (cs + c < is × IB)

with the published constants — BenefitScale BS = 256 (derived
empirically by the authors), code-size IncreaseBudget IB = 1.5 (150 %),
and a maximum compilation-unit size MS standing in for HotSpot's
``JVMCINMethodSizeLimit``.  Candidates are ranked by probability-scaled
benefit so the most promising pairs consume the budget first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..obs.tracer import Event, Tracer

if TYPE_CHECKING:
    from .simulation import SimulationResult

#: BS — how much more cost than benefit we tolerate (paper: 256).
BENEFIT_SCALE = 256.0
#: IB — max code size growth per compilation unit (paper: 1.5 = 150%).
INCREASE_BUDGET = 1.5
#: MS — absolute compilation-unit size cap (HotSpot install limit
#: stand-in, in cost-model size units).
MAX_UNIT_SIZE = 20_000.0


@dataclass
class TradeOffConfig:
    """Tunable constants of the heuristic (ablation benches sweep them)."""

    benefit_scale: float = BENEFIT_SCALE
    increase_budget: float = INCREASE_BUDGET
    max_unit_size: float = MAX_UNIT_SIZE
    #: when False, probabilities are ignored (ablation A1)
    use_probability: bool = True


#: canonical rejection wordings (shared by explain and decision events)
REASON_THRESHOLD = "benefit below cost threshold"
REASON_UNIT_SIZE = "compilation unit at max size"
REASON_BUDGET = "code-size budget exhausted"
REASON_INVALIDATED = "invalidated by earlier duplication"
REASON_ACCEPT = "accept"


@dataclass
class TradeOffDecision:
    """One evaluated ``shouldDuplicate`` predicate, term by term.

    This is the record the telemetry subsystem serializes as a
    ``dbds.decision`` event, and the record ``repro.dbds.explain``
    renders — one source of truth for the three terms.
    """

    weighted: float
    threshold_term: bool
    unit_size_term: bool
    budget_term: bool
    current_size: float
    initial_size: float

    @property
    def accepted(self) -> bool:
        return self.threshold_term and self.unit_size_term and self.budget_term

    def reason(self) -> str:
        """``"accept"`` or the comma-joined failing terms."""
        if self.accepted:
            return REASON_ACCEPT
        reasons = []
        if not self.threshold_term:
            reasons.append(REASON_THRESHOLD)
        if not self.unit_size_term:
            reasons.append(REASON_UNIT_SIZE)
        if not self.budget_term:
            reasons.append(REASON_BUDGET)
        return ", ".join(reasons)


def evaluate_candidate(
    candidate: SimulationResult,
    current_size: float,
    initial_size: float,
    config: TradeOffConfig | None = None,
) -> TradeOffDecision:
    """Evaluate every term of the paper's shouldDuplicate predicate."""
    cfg = config or TradeOffConfig()
    b = candidate.benefit
    p = candidate.probability if cfg.use_probability else 1.0
    c = candidate.cost
    return TradeOffDecision(
        weighted=b * p,
        threshold_term=b * p * cfg.benefit_scale > c,
        unit_size_term=current_size < cfg.max_unit_size,
        budget_term=current_size + c < initial_size * cfg.increase_budget,
        current_size=current_size,
        initial_size=initial_size,
    )


def should_duplicate(
    candidate: SimulationResult,
    current_size: float,
    initial_size: float,
    config: TradeOffConfig | None = None,
) -> bool:
    """The paper's shouldDuplicate(bpi, bm, benefit, cost) predicate."""
    return evaluate_candidate(candidate, current_size, initial_size, config).accepted


def emit_decision(
    tracer: Tracer,
    graph_name: str,
    candidate: SimulationResult,
    decision: TradeOffDecision,
    *,
    iteration: int = 0,
    mode: str = "dbds",
) -> Optional[Event]:
    """Record one ``dbds.decision`` event and bump the accept/reject
    counters; returns the event (None when the tracer is disabled)."""
    accepted = decision.accepted
    tracer.count("dbds.decision.accepted" if accepted else "dbds.decision.rejected")
    return tracer.event(
        "dbds.decision",
        graph=graph_name,
        merge=candidate.merge.name,
        pred=candidate.pred.name,
        benefit=candidate.benefit,
        cost=candidate.cost,
        probability=candidate.probability,
        weighted=decision.weighted,
        threshold_term=decision.threshold_term,
        unit_size_term=decision.unit_size_term,
        budget_term=decision.budget_term,
        accepted=accepted,
        reason=decision.reason(),
        current_size=decision.current_size,
        initial_size=decision.initial_size,
        iteration=iteration,
        mode=mode,
    )


def sort_candidates(
    candidates: list[SimulationResult], config: TradeOffConfig | None = None
) -> list[SimulationResult]:
    """Rank by probability-weighted benefit (desc), then by cost (asc).

    "We sort duplication candidates based on these values and optimize
    the most likely and most beneficial ones first" — important when the
    code-size budget runs out before all candidates are performed.
    """
    cfg = config or TradeOffConfig()

    def key(c: SimulationResult) -> tuple[float, float]:
        weighted = c.benefit * (c.probability if cfg.use_probability else 1.0)
        return (-weighted, c.cost)

    return sorted(candidates, key=key)
