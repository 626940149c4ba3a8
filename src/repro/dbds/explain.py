"""Human-readable duplication-decision reports.

Since the telemetry subsystem landed, explanation is event-driven:
``explain_candidates`` records one ``dbds.decision`` event per
predecessor-merge pair through the same
:func:`~repro.dbds.tradeoff.evaluate_candidate` /
:func:`~repro.dbds.tradeoff.emit_decision` path the real
:class:`~repro.dbds.phase.DbdsPhase` uses, then renders the report
*from the recorded events* — no second implementation of the
Section 5.4 ``shouldDuplicate`` terms exists.  The same renderer
(:func:`format_decision_events`) works on decision events read back
from a ``--trace-out`` JSONL file of an actual compilation.  Exposed
as ``python -m repro explain prog.mini``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..costmodel.estimator import graph_code_size
from ..ir.graph import Graph, Program
from ..obs.tracer import Event, Tracer, use_tracer
from .simulation import SimulationResult, SimulationTier
from .tradeoff import (
    REASON_BUDGET,
    REASON_THRESHOLD,
    REASON_UNIT_SIZE,
    TradeOffConfig,
    emit_decision,
    evaluate_candidate,
    sort_candidates,
)


@dataclass
class CandidateExplanation:
    """One candidate's full trade-off story."""

    candidate: SimulationResult
    weighted: float
    threshold_term: bool
    unit_size_term: bool
    budget_term: bool

    @property
    def accepted(self) -> bool:
        return self.threshold_term and self.unit_size_term and self.budget_term

    def verdict(self) -> str:
        if self.accepted:
            return "DUPLICATE"
        reasons = []
        if not self.threshold_term:
            reasons.append(REASON_THRESHOLD)
        if not self.unit_size_term:
            reasons.append(REASON_UNIT_SIZE)
        if not self.budget_term:
            reasons.append(REASON_BUDGET)
        return "skip (" + ", ".join(reasons) + ")"


def record_decisions(
    graph: Graph,
    program: Optional[Program] = None,
    config: Optional[TradeOffConfig] = None,
) -> tuple[list[SimulationResult], list[Event]]:
    """Simulate every pair and record a ``dbds.decision`` event each,
    without changing the graph.

    The budget term is evaluated against the *current* size for each
    candidate independently (the real optimization tier consumes budget
    as it goes, so later candidates there can see a tighter budget).
    """
    config = config or TradeOffConfig()
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        tier = SimulationTier(graph, program)
        candidates = sort_candidates(tier.run(), config)
        size = graph_code_size(graph)
        for candidate in candidates:
            decision = evaluate_candidate(candidate, size, size, config)
            emit_decision(tracer, graph.name, candidate, decision, mode="explain")
    return candidates, tracer.named("dbds.decision")


def explain_candidates(
    graph: Graph,
    program: Optional[Program] = None,
    config: Optional[TradeOffConfig] = None,
) -> list[CandidateExplanation]:
    """Record decision events and rebuild per-candidate explanations."""
    candidates, events = record_decisions(graph, program, config)
    by_pair = {(c.merge.name, c.pred.name): c for c in candidates}
    explanations = []
    for event in events:
        attrs = event.attrs
        explanations.append(
            CandidateExplanation(
                candidate=by_pair[(attrs["merge"], attrs["pred"])],
                weighted=attrs["weighted"],
                threshold_term=attrs["threshold_term"],
                unit_size_term=attrs["unit_size_term"],
                budget_term=attrs["budget_term"],
            )
        )
    return explanations


def format_explanations(
    graph: Graph, explanations: list[CandidateExplanation]
) -> str:
    """Render the report the way a compiler log would."""
    lines = [
        f"DBDS candidate report for {graph.name!r} "
        f"(unit size {graph_code_size(graph):.0f})",
    ]
    if not explanations:
        lines.append("  no predecessor-merge pairs to consider")
        return "\n".join(lines)
    for rank, explanation in enumerate(explanations, start=1):
        c = explanation.candidate
        fired = ", ".join(sorted(set(c.reasons))) or "nothing fires"
        lines.append(
            f"  #{rank} {c.merge.name} -> {c.pred.name}: "
            f"benefit {c.benefit:.1f} cyc x p {c.probability:.2f} "
            f"= {explanation.weighted:.2f}, cost {c.cost:.1f}"
        )
        lines.append(f"      enables: {fired}")
        lines.append(f"      decision: {explanation.verdict()}")
    return "\n".join(lines)


def format_decision_events(events: Iterable[Event]) -> str:
    """Render recorded ``dbds.decision`` events (e.g. read back from a
    JSONL trace of a real compilation) in the same log style."""
    decisions = [e for e in events if e.name == "dbds.decision"]
    if not decisions:
        return "no DBDS decisions recorded"
    lines = []
    for rank, event in enumerate(decisions, start=1):
        a = event.attrs
        verdict = (
            "DUPLICATE"
            if a.get("accepted")
            else "skip (" + str(a.get("reason", "?")) + ")"
        )
        weighted = a.get("weighted", a["benefit"] * a["probability"])
        lines.append(
            f"  #{rank} [{a.get('graph', '?')}] {a['merge']} -> {a['pred']}: "
            f"benefit {a['benefit']:.1f} cyc x p {a['probability']:.2f} "
            f"= {weighted:.2f}, cost {a['cost']:.1f}"
        )
        detail = f"      decision: {verdict}"
        if "iteration" in a:
            detail += f"  (iteration {a['iteration']}, mode {a.get('mode', 'dbds')})"
        lines.append(detail)
    return "\n".join(lines)


def explain_graph(
    graph: Graph,
    program: Optional[Program] = None,
    config: Optional[TradeOffConfig] = None,
) -> str:
    """One-call convenience: simulate, evaluate, render."""
    return format_explanations(
        graph, explain_candidates(graph, program, config)
    )
