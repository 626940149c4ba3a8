"""Aggregated compile profiles: where time, nodes and size go.

:class:`CompileProfile` folds a trace (live :class:`Tracer` or parsed
JSONL events) into the questions a compiler engineer actually asks:

* which *phases* are hot (count, total/mean/max wall time, cumulative
  node and code-size deltas);
* which *functions* are expensive to compile;
* what DBDS decided (accept/reject breakdown by reason, and which
  enabled optimizations the accepted duplications paid for).

Exposed on the CLI as ``python -m repro trace prog.mini`` and the
``--profile-compile`` flag of ``run``/``compile``/``bench``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from .sinks import trace_counters
from .tracer import Event, Tracer


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
    counters: dict[str, int] = field(default_factory=dict)
    total_time: float = 0.0

    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls,
        events: Iterable[Event],
        counters: Optional[dict[str, int]] = None,
    ) -> "CompileProfile":
        events = list(events)
        profile = cls(counters=dict(counters or trace_counters(events)))
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
        for name, value in profile.counters.items():
            prefix = "dbds.applied."
            if name.startswith(prefix):
                tag = name[len(prefix):]
                profile.applied[tag] = profile.applied.get(tag, 0) + value
        return profile

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "CompileProfile":
        return cls.from_events(tracer.events, counters=tracer.counters)

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
            "counters": dict(self.counters),
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
