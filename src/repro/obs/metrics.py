"""Metrics: counters, gauges and histograms, as a view of a trace.

The :class:`~repro.obs.tracer.Tracer` is the one telemetry channel:
every layer records spans and events into it, and
:meth:`MetricsSnapshot.from_events` folds a finished trace (live, or
read back with :func:`~repro.obs.sinks.read_jsonl`) into labeled
series, as :meth:`~repro.obs.profile.CompileProfile.from_events` folds
it into a compile profile.  Three instrument kinds:

* **counters** — totals (``repro_cache_lookups_total{result="hit"}``);
* **gauges** — point-in-time values (``repro_batch_queue_depth``,
  the peak over the trace's ``batch`` spans);
* **histograms** — fixed-exponential-bucket distributions
  (``repro_compile_phase_seconds{phase="dbds"}``).  Bucket layouts are
  declared once in :data:`HISTOGRAM_BUCKETS` keyed by metric name.

Which trace record feeds which series is the table in
docs/OBSERVABILITY.md ("Metrics: a view of the trace").  The view
only sees what was recorded, so the CLI runs a verb under one
recording ambient tracer whenever a metrics output is asked for; a
batch's workers hand their traces to the parent's
(:func:`~repro.pipeline.batch.compile_batch`), so serial and parallel
batches fold to the same totals.

One exporter: :meth:`MetricsSnapshot.to_json`, the ``--metrics-out``
payload.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..dbds.tradeoff import REASON_INVALIDATED
from .tracer import KIND_SPAN, Event

#: bump when the snapshot JSON layout changes
METRICS_SCHEMA_VERSION = 1


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` bucket upper bounds growing geometrically from ``start``."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    return tuple(start * factor**i for i in range(count))


#: wall-time layout: 10 µs .. ~21 s in ×2 steps
SECONDS_BUCKETS = exponential_buckets(1e-5, 2.0, 22)
#: payload-size layout: 256 B .. ~1 GB in ×4 steps
BYTES_BUCKETS = exponential_buckets(256.0, 4.0, 12)

#: the bucket layout of every histogram
HISTOGRAM_BUCKETS: dict[str, tuple[float, ...]] = {
    "repro_compile_phase_seconds": SECONDS_BUCKETS,
    "repro_compile_unit_seconds": SECONDS_BUCKETS,
    "repro_batch_job_seconds": SECONDS_BUCKETS,
    "repro_cache_entry_bytes": BYTES_BUCKETS,
    "repro_bcverify_seconds": SECONDS_BUCKETS,
}

#: label-set key used inside snapshots: "" or "k=v,k2=v2" (sorted)
LabelKey = str


def label_key(labels: dict[str, Any]) -> LabelKey:
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


# ----------------------------------------------------------------------
# Histogram state
# ----------------------------------------------------------------------
@dataclass
class HistogramData:
    """One labeled histogram series: cumulative-free bucket counts.

    ``counts`` has ``len(buckets) + 1`` slots — the final slot is the
    overflow (``+Inf``) bucket.
    """

    buckets: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def to_json(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
@dataclass
class MetricsSnapshot:
    """The metric series of one trace (see :meth:`from_events`)."""

    counters: dict[str, dict[LabelKey, float]] = field(default_factory=dict)
    gauges: dict[str, dict[LabelKey, float]] = field(default_factory=dict)
    histograms: dict[str, dict[LabelKey, HistogramData]] = field(default_factory=dict)

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "MetricsSnapshot":
        """Fold a trace into its metric series.

        Every ``phase`` span is a ``repro_compile_phase_seconds``
        observation, the guard's ``ir-check`` spans and the back end's
        ``lowering``/``regalloc`` spans included.  A series appears
        only once something adds to it.
        """
        snap = cls()
        for event in events:
            name, attrs = event.name, event.attrs
            if event.kind == KIND_SPAN:
                dur = event.dur or 0.0
                if name == "phase":
                    snap._observe(
                        "repro_compile_phase_seconds", dur, phase=attrs["phase"]
                    )
                    # the backtracking span's outcome tallies
                    for outcome in ("kept", "rolled_back"):
                        snap._inc(
                            "repro_dbds_backtrack_total", attrs.get(outcome, 0),
                            outcome=outcome,
                        )
                elif name == "compile":
                    snap._inc("repro_compile_units_total")
                    snap._observe("repro_compile_unit_seconds", dur)
                elif name == "bcverify":
                    snap._inc(
                        "repro_bcverify_runs_total",
                        result="ok" if attrs.get("ok") else "fail",
                    )
                    snap._observe("repro_bcverify_seconds", dur)
                elif name == "batch":
                    depth = snap.gauges.setdefault("repro_batch_queue_depth", {})
                    depth[""] = max(depth.get("", 0), attrs.get("pending", 0))
                    snap._inc(
                        "repro_batch_jobs_total", attrs.get("cached", 0),
                        outcome="cached",
                    )
            elif name == "dbds.candidate":
                snap._inc("repro_dbds_candidates_total")
            elif name == "dbds.decision":
                if attrs["accepted"]:
                    outcome = "accepted"
                    snap._inc("repro_dbds_duplications_total")
                elif attrs["reason"] == REASON_INVALIDATED:
                    outcome = "invalidated"
                else:
                    outcome = "rejected"
                snap._inc("repro_dbds_decisions_total", outcome=outcome)
            elif name in ("cache.hit", "cache.miss"):
                snap._inc("repro_cache_lookups_total", result=name[len("cache."):])
                if "bytes" in attrs:  # an entry, not an aux blob
                    snap._observe("repro_cache_entry_bytes", attrs["bytes"], op="get")
            elif name == "cache.store":
                snap._inc("repro_cache_stores_total")
                if "bytes" in attrs:
                    snap._observe("repro_cache_entry_bytes", attrs["bytes"], op="put")
            elif name == "cache.evict":
                snap._inc("repro_cache_evictions_total")
            elif name == "batch.worker":
                snap._inc(
                    "repro_batch_jobs_total",
                    outcome="compiled" if attrs["ok"] else "error",
                )
                snap._observe("repro_batch_job_seconds", attrs.get("elapsed", 0.0))
            elif name == "analysis.violation":
                snap._inc(
                    "repro_analysis_violations_total", severity=attrs["severity"]
                )
            elif name == "interp.profile":
                snap._inc("repro_profile_runs_total", engine=attrs["engine"])
            elif name == "vm.measure":
                snap._inc("repro_vm_runs_total", attrs["runs"], engine=attrs["engine"])
            elif name == "vm.codegen_cache":
                snap._inc(
                    "repro_codegen_cache_total",
                    engine=attrs["engine"], result=attrs["result"],
                )
            elif name == "vm.fallback":
                snap._inc(
                    "repro_vm_fallback_total",
                    engine=attrs["engine"], reason=attrs["reason"],
                )
        return snap

    def _inc(self, name: str, n: float = 1, **labels: Any) -> None:
        if n:
            series = self.counters.setdefault(name, {})
            key = label_key(labels)
            series[key] = series.get(key, 0) + n

    def _observe(self, name: str, value: float, **labels: Any) -> None:
        series = self.histograms.setdefault(name, {})
        key = label_key(labels)
        if key not in series:
            series[key] = HistogramData(buckets=HISTOGRAM_BUCKETS[name])
        series[key].observe(value)

    # -- reads ----------------------------------------------------------
    def counter_value(self, name: str, **labels: Any) -> float:
        return self.counters.get(name, {}).get(label_key(labels), 0)

    def counter_total(self, name: str) -> float:
        return sum(self.counters.get(name, {}).values())

    def gauge_value(self, name: str, **labels: Any) -> Optional[float]:
        return self.gauges.get(name, {}).get(label_key(labels))

    def histogram(self, name: str, **labels: Any) -> Optional[HistogramData]:
        return self.histograms.get(name, {}).get(label_key(labels))

    def histogram_count(self, name: str, **labels: Any) -> int:
        data = self.histogram(name, **labels)
        return data.count if data is not None else 0

    def histogram_counts(self, name: str) -> dict[LabelKey, int]:
        """Observation counts per label set (wall-clock independent)."""
        return {
            key: data.count
            for key, data in self.histograms.get(name, {}).items()
        }

    # -- serialization --------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "counters": {n: dict(s) for n, s in sorted(self.counters.items())},
            "gauges": {n: dict(s) for n, s in sorted(self.gauges.items())},
            "histograms": {
                n: {k: d.to_json() for k, d in s.items()}
                for n, s in sorted(self.histograms.items())
            },
        }
