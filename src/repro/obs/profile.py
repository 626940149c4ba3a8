"""Two folds of one trace: compile profiles and DBDS decision reports.

:class:`CompileProfile` folds a trace (a live tracer's events or parsed
JSONL events) into the questions a compiler engineer actually asks:

* which *phases* are hot (count, total/mean/max wall time, cumulative
  node and code-size deltas);
* which *functions* are expensive to compile;
* what DBDS decided (accept/reject breakdown by reason, and which
  enabled optimizations the accepted duplications paid for: the
  ``reasons`` of the candidate each accepted decision judged).

:func:`decision_units` folds the same trace into every DBDS decision of
each compiled unit, in the order the phase made them, and
:func:`format_decisions` renders them.

Exposed on the CLI as the ``--profile-compile`` flag of
``run``/``compile``/``check``/``batch``/``bench`` (printed to stderr)
and as ``python -m repro explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from .tracer import Event


@dataclass
class PhaseStat:
    """Aggregate of every span of one phase."""

    phase: str
    count: int = 0
    total: float = 0.0
    max_dur: float = 0.0
    nodes_delta: int = 0
    size_delta: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class CompileProfile:
    """One trace, aggregated."""

    phases: dict[str, PhaseStat] = field(default_factory=dict)
    #: function name -> total compile-span seconds
    functions: dict[str, float] = field(default_factory=dict)
    #: DBDS decision tallies
    accepted: int = 0
    rejected: int = 0
    #: rejection reason -> count
    reject_reasons: dict[str, int] = field(default_factory=dict)
    #: optimization tag -> times enabled by an accepted duplication
    applied: dict[str, int] = field(default_factory=dict)
    total_time: float = 0.0

    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "CompileProfile":
        events = list(events)
        profile = cls()
        for event in events:
            if event.kind == "span" and event.name == "phase":
                profile._add_phase_span(event)
            elif event.kind == "span" and event.name == "compile":
                function = str(event.attrs.get("function", "?"))
                profile.functions[function] = (
                    profile.functions.get(function, 0.0) + (event.dur or 0.0)
                )
                profile.total_time += event.dur or 0.0
            elif event.name == "dbds.decision":
                profile._add_decision(event)
        # An accepted duplication paid for every optimization the
        # simulation found for its pair.
        for unit in decision_units(events):
            for attrs, found in unit.decisions:
                if attrs["accepted"]:
                    for tag in found:
                        profile.applied[tag] = profile.applied.get(tag, 0) + 1
        return profile

    # ------------------------------------------------------------------
    def _add_phase_span(self, event: Event) -> None:
        name = str(event.attrs.get("phase", event.name))
        stat = self.phases.setdefault(name, PhaseStat(phase=name))
        stat.count += 1
        dur = event.dur or 0.0
        stat.total += dur
        stat.max_dur = max(stat.max_dur, dur)
        stat.nodes_delta += int(event.attrs.get("nodes_delta", 0))
        stat.size_delta += float(event.attrs.get("size_delta", 0.0))

    def _add_decision(self, event: Event) -> None:
        if event.attrs.get("accepted"):
            self.accepted += 1
        else:
            self.rejected += 1
            reason = str(event.attrs.get("reason", "unknown"))
            self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + 1

    # ------------------------------------------------------------------
    def hottest_phases(self, n: int = 10) -> list[PhaseStat]:
        return sorted(self.phases.values(), key=lambda s: -s.total)[:n]

    def hottest_functions(self, n: int = 10) -> list[tuple[str, float]]:
        return sorted(self.functions.items(), key=lambda kv: -kv[1])[:n]

    def to_json(self) -> dict[str, Any]:
        return {
            "total_time": self.total_time,
            "phases": {
                name: {
                    "count": s.count,
                    "total": s.total,
                    "mean": s.mean,
                    "max": s.max_dur,
                    "nodes_delta": s.nodes_delta,
                    "size_delta": s.size_delta,
                }
                for name, s in self.phases.items()
            },
            "functions": dict(self.functions),
            "dbds": {
                "accepted": self.accepted,
                "rejected": self.rejected,
                "reject_reasons": dict(self.reject_reasons),
                "applied": dict(self.applied),
            },
        }

    # ------------------------------------------------------------------
    def format(self, top: int = 10) -> str:
        """Human-readable profile, compiler-log style."""
        lines = [f"compile profile ({self.total_time * 1e3:.2f} ms total)"]
        lines.append(
            f"  {'phase':<28s}{'runs':>6s}{'total ms':>10s}"
            f"{'mean ms':>9s}{'max ms':>9s}{'dnodes':>8s}{'dsize':>9s}"
        )
        for stat in self.hottest_phases(top):
            lines.append(
                f"  {stat.phase:<28s}{stat.count:>6d}"
                f"{stat.total * 1e3:>10.2f}{stat.mean * 1e3:>9.3f}"
                f"{stat.max_dur * 1e3:>9.3f}{stat.nodes_delta:>+8d}"
                f"{stat.size_delta:>+9.0f}"
            )
        hot = self.hottest_functions(top)
        if hot:
            lines.append("  hottest functions:")
            for name, dur in hot:
                lines.append(f"    {name:<26s}{dur * 1e3:>10.2f} ms")
        total = self.accepted + self.rejected
        if total:
            lines.append(
                f"  dbds decisions: {total} "
                f"({self.accepted} accepted, {self.rejected} rejected)"
            )
            for reason, count in sorted(
                self.reject_reasons.items(), key=lambda kv: -kv[1]
            ):
                lines.append(f"    reject x{count}: {reason}")
        if self.applied:
            lines.append("  optimizations enabled by duplication:")
            for tag, count in sorted(self.applied.items(), key=lambda kv: -kv[1]):
                lines.append(f"    {tag:<26s}{count:>6d}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Decision reports
# ----------------------------------------------------------------------
@dataclass
class UnitDecisions:
    """The DBDS decisions of one compilation unit, as its trace tells."""

    function: str
    config: str
    #: whether a ``dbds`` phase ran on the unit
    dbds: bool = False
    #: every ``dbds.decision``'s attrs, in order, with the optimizations
    #: the simulation found for its pair
    decisions: list[tuple[dict[str, Any], list[str]]] = field(
        default_factory=list
    )

    @property
    def duplications(self) -> int:
        return sum(1 for attrs, _ in self.decisions if attrs["accepted"])


def _candidate_key(attrs: dict[str, Any]) -> tuple:
    return tuple(
        attrs[name] for name in ("merge", "pred", "benefit", "cost", "probability")
    )


def decision_units(events: Iterable[Event]) -> list[UnitDecisions]:
    """One :class:`UnitDecisions` per ``compile`` span of ``events``,
    in order.  A decision's optimizations are the ``reasons`` of the
    latest ``dbds.candidate`` event before it with its pair and
    estimates: the simulation the decision judged."""
    units: list[UnitDecisions] = []
    found: dict[tuple, list[str]] = {}
    for event in events:
        attrs = event.attrs
        if event.kind == "span" and event.name == "compile":
            units.append(UnitDecisions(
                str(attrs.get("function", "?")), str(attrs.get("config", "?"))
            ))
            found = {}
        elif not units:
            continue
        elif event.name == "phase" and attrs.get("phase") == "dbds":
            units[-1].dbds = True
        elif event.name == "dbds.candidate":
            found[_candidate_key(attrs)] = list(attrs.get("reasons", ()))
        elif event.name == "dbds.decision":
            units[-1].decisions.append(
                (attrs, found.get(_candidate_key(attrs), []))
            )
    return units


def format_decisions(units: Iterable[UnitDecisions]) -> str:
    """Render decision reports the way a compiler log would: per unit,
    each decision with its round and mode, benefit x probability against
    cost, the optimizations it enables, and the verdict."""
    reports = []
    for unit in units:
        head = f"DBDS decisions for {unit.function!r} ({unit.config})"
        if not unit.dbds:
            reports.append(f"{head}: no DBDS phase in this configuration")
            continue
        if not unit.decisions:
            reports.append(f"{head}: no predecessor-merge pairs to consider")
            continue
        lines = [
            f"{head}: {unit.duplications} of {len(unit.decisions)} "
            "duplicated"
        ]
        for rank, (a, enables) in enumerate(unit.decisions, start=1):
            weighted = a.get("weighted", a["benefit"] * a["probability"])
            verdict = "DUPLICATE" if a["accepted"] else f"skip ({a['reason']})"
            lines += [
                f"  #{rank} round {a.get('iteration', 0) + 1} "
                f"{a.get('mode', 'dbds')}: {a['merge']} -> {a['pred']}: "
                f"benefit {a['benefit']:.1f} cyc x p {a['probability']:.2f} "
                f"= {weighted:.2f}, cost {a['cost']:.1f}",
                "      enables: "
                + (", ".join(sorted(set(enables))) or "nothing fires"),
                f"      decision: {verdict}",
            ]
        reports.append("\n".join(lines))
    return "\n\n".join(reports) or "no compiles recorded"
