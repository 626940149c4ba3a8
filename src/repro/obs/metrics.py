"""Process-wide runtime metrics: counters, gauges and histograms.

Where the :class:`~repro.obs.tracer.Tracer` answers "what happened
during *this one compilation*" (spans, events), the
:class:`MetricsRegistry` answers "what has this *process* been doing"
— live, labeled, aggregatable state suitable for a scraping daemon or
a post-run snapshot.  Three instrument kinds:

* **counters** — monotonically increasing totals
  (``repro_cache_lookups_total{result="hit"}``);
* **gauges** — last-set point-in-time values
  (``repro_batch_queue_depth``); merges take the maximum, so a folded
  batch snapshot reports the *peak* queue depth;
* **histograms** — fixed-exponential-bucket distributions
  (``repro_compile_phase_seconds{phase="dbds"}``).  Bucket layouts are
  declared once in :data:`HISTOGRAM_BUCKETS` keyed by metric name, so
  every process observing a metric uses the same layout and snapshots
  merge bucket-by-bucket.

Snapshot/merge semantics mirror how per-worker traces fold into one
:class:`~repro.obs.profile.CompileProfile`: each ``repro batch -j N``
worker runs under its own registry, snapshots it, and the parent folds
the snapshots into its own registry — serial and parallel batches
produce identical merged totals (``tests/test_pipeline/
test_metrics_differential.py`` enforces this).

Two exporters: :meth:`MetricsSnapshot.to_json` (the ``--metrics-out``
payload) and :meth:`MetricsSnapshot.render_prometheus` (text
exposition, ready for a future ``repro serve`` daemon to expose on
``/metrics``).

Overhead discipline matches the tracer: the ambient default is
:data:`NULL_REGISTRY`, whose every operation is a no-op, and hot
instrumentation sites check ``registry.enabled`` before taking
timestamps.  Install a live registry with :func:`use_registry`.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

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

#: the declared bucket layout of every known histogram; undeclared
#: names fall back to SECONDS_BUCKETS.  Central so that parent and
#: worker processes can never disagree (merging asserts equal layouts).
HISTOGRAM_BUCKETS: dict[str, tuple[float, ...]] = {
    "repro_compile_phase_seconds": SECONDS_BUCKETS,
    "repro_compile_unit_seconds": SECONDS_BUCKETS,
    "repro_batch_job_seconds": SECONDS_BUCKETS,
    "repro_cache_entry_bytes": BYTES_BUCKETS,
    "repro_bcverify_seconds": SECONDS_BUCKETS,
    "repro_tier_compile_seconds": SECONDS_BUCKETS,
}

#: HELP strings for the Prometheus exposition
METRIC_HELP: dict[str, str] = {
    "repro_cache_lookups_total": "Artifact-cache lookups by result (hit/miss).",
    "repro_cache_stores_total": "Artifact-cache entries written.",
    "repro_cache_evictions_total": "Corrupted artifact-cache entries evicted.",
    "repro_cache_entry_bytes": "Artifact-cache entry payload sizes.",
    "repro_batch_queue_depth": "Batch jobs still queued (gauge; merge = peak).",
    "repro_batch_jobs_total": "Batch jobs by outcome (cached/compiled/error).",
    "repro_batch_job_seconds": "Per-job batch compile latency.",
    "repro_compile_units_total": "Compilation units optimized.",
    "repro_compile_unit_seconds": "Wall time per compilation unit.",
    "repro_compile_phase_seconds": "Wall time per optimization-phase run.",
    "repro_dbds_candidates_total": "DBDS duplication candidates simulated.",
    "repro_dbds_decisions_total": "DBDS trade-off decisions by outcome.",
    "repro_dbds_duplications_total": "Duplications performed by the DBDS tier.",
    "repro_dbds_backtrack_total": "Backtracking-baseline attempts by outcome.",
    "repro_analysis_violations_total": "IR sanitizer findings by severity.",
    "repro_vm_runs_total": "Measured program executions by engine.",
    "repro_profile_runs_total": "Profiling runs by the engine that profiled.",
    "repro_bcverify_runs_total": "Bytecode verifier runs by result (ok/fail).",
    "repro_bcverify_seconds": "Wall time per bytecode verifier run.",
    "repro_bcverify_rejected_artifacts_total":
        "Cache artifacts rejected by the bytecode verifier at load.",
    "repro_tier_promotions_total":
        "Functions promoted to the optimized tier, by function/trigger.",
    "repro_tier_compile_seconds": "Wall time per tier-up recompilation.",
    "repro_tier_plan_cache_total":
        "Tier-up plan cache lookups by result (hit/miss).",
}

#: label-set key used inside snapshots: "" or "k=v,k2=v2" (sorted)
LabelKey = str


def label_key(labels: dict[str, Any]) -> LabelKey:
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


def parse_label_key(key: LabelKey) -> dict[str, str]:
    if not key:
        return {}
    return dict(part.split("=", 1) for part in key.split(","))


# ----------------------------------------------------------------------
# Histogram state
# ----------------------------------------------------------------------
@dataclass
class HistogramData:
    """One labeled histogram series: cumulative-free bucket counts.

    ``counts`` has ``len(buckets) + 1`` slots — the final slot is the
    overflow (``+Inf``) bucket.  The Prometheus renderer emits the
    conventional cumulative ``_bucket{le=...}`` form.
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

    def merge(self, other: "HistogramData") -> None:
        if self.buckets != other.buckets:
            raise ValueError(
                f"cannot merge histograms with different bucket layouts "
                f"({len(self.buckets)} vs {len(other.buckets)} buckets)"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.sum += other.sum
        self.count += other.count

    def to_json(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "HistogramData":
        return cls(
            buckets=tuple(data["buckets"]),
            counts=list(data["counts"]),
            sum=data["sum"],
            count=data["count"],
        )


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
@dataclass
class MetricsSnapshot:
    """A frozen, mergeable, serializable copy of one registry's state."""

    counters: dict[str, dict[LabelKey, float]] = field(default_factory=dict)
    gauges: dict[str, dict[LabelKey, float]] = field(default_factory=dict)
    histograms: dict[str, dict[LabelKey, HistogramData]] = field(default_factory=dict)

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

    # -- merge ----------------------------------------------------------
    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Fold ``other`` into self (counters add, gauges take the max,
        histogram buckets add elementwise); returns self."""
        for name, series in other.counters.items():
            mine = self.counters.setdefault(name, {})
            for key, value in series.items():
                mine[key] = mine.get(key, 0) + value
        for name, series in other.gauges.items():
            mine = self.gauges.setdefault(name, {})
            for key, value in series.items():
                mine[key] = max(mine[key], value) if key in mine else value
        for name, series in other.histograms.items():
            mine_h = self.histograms.setdefault(name, {})
            for key, data in series.items():
                if key in mine_h:
                    mine_h[key].merge(data)
                else:
                    mine_h[key] = HistogramData(
                        buckets=data.buckets,
                        counts=list(data.counts),
                        sum=data.sum,
                        count=data.count,
                    )
        return self

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

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "MetricsSnapshot":
        return cls(
            counters={n: dict(s) for n, s in data.get("counters", {}).items()},
            gauges={n: dict(s) for n, s in data.get("gauges", {}).items()},
            histograms={
                n: {k: HistogramData.from_json(d) for k, d in s.items()}
                for n, s in data.get("histograms", {}).items()
            },
        )

    # -- Prometheus text exposition -------------------------------------
    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []

        def header(name: str, kind: str) -> None:
            help_text = METRIC_HELP.get(name, name.replace("_", " "))
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

        def fmt_labels(key: LabelKey, extra: str = "") -> str:
            parts = [
                f'{k}="{v}"' for k, v in sorted(parse_label_key(key).items())
            ]
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        def fmt_value(value: float) -> str:
            return repr(value) if isinstance(value, float) else str(value)

        for name in sorted(self.counters):
            header(name, "counter")
            for key in sorted(self.counters[name]):
                lines.append(
                    f"{name}{fmt_labels(key)} "
                    f"{fmt_value(self.counters[name][key])}"
                )
        for name in sorted(self.gauges):
            header(name, "gauge")
            for key in sorted(self.gauges[name]):
                lines.append(
                    f"{name}{fmt_labels(key)} "
                    f"{fmt_value(self.gauges[name][key])}"
                )
        for name in sorted(self.histograms):
            header(name, "histogram")
            for key in sorted(self.histograms[name]):
                data = self.histograms[name][key]
                cumulative = 0
                for bound, count in zip(data.buckets, data.counts):
                    cumulative += count
                    le = 'le="' + fmt_value(bound) + '"'
                    lines.append(
                        f"{name}_bucket{fmt_labels(key, le)} {cumulative}"
                    )
                inf = 'le="+Inf"'
                lines.append(
                    f"{name}_bucket{fmt_labels(key, inf)} {data.count}"
                )
                lines.append(
                    f"{name}_sum{fmt_labels(key)} {fmt_value(data.sum)}"
                )
                lines.append(f"{name}_count{fmt_labels(key)} {data.count}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """Live metric state for one process (or one pool worker).

    All mutation goes through three flat calls — :meth:`inc`,
    :meth:`set_gauge`, :meth:`observe` — so the no-op
    :class:`NullMetricsRegistry` can shadow the whole surface.  Label
    values are stringified into the series key; keep cardinality low
    (phase names, result kinds — never per-program identifiers).
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, dict[LabelKey, float]] = {}
        self._gauges: dict[str, dict[LabelKey, float]] = {}
        self._histograms: dict[str, dict[LabelKey, HistogramData]] = {}

    # -- mutation -------------------------------------------------------
    def inc(self, name: str, n: float = 1, **labels: Any) -> None:
        series = self._counters.setdefault(name, {})
        key = label_key(labels)
        series[key] = series.get(key, 0) + n

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        self._gauges.setdefault(name, {})[label_key(labels)] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        series = self._histograms.setdefault(name, {})
        key = label_key(labels)
        data = series.get(key)
        if data is None:
            data = series[key] = HistogramData(
                buckets=HISTOGRAM_BUCKETS.get(name, SECONDS_BUCKETS)
            )
        data.observe(value)

    # -- snapshot / merge -----------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters={n: dict(s) for n, s in self._counters.items()},
            gauges={n: dict(s) for n, s in self._gauges.items()},
            histograms={
                n: {
                    k: HistogramData(
                        buckets=d.buckets,
                        counts=list(d.counts),
                        sum=d.sum,
                        count=d.count,
                    )
                    for k, d in s.items()
                }
                for n, s in self._histograms.items()
            },
        )

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a (worker) snapshot into this live registry."""
        merged = self.snapshot().merge(snapshot)
        self._counters = merged.counters
        self._gauges = merged.gauges
        self._histograms = merged.histograms


class NullMetricsRegistry(MetricsRegistry):
    """The ambient default: every operation is a no-op.

    Like :class:`~repro.obs.tracer.NullTracer`, a process-wide
    singleton must not accrue state across unrelated work.
    """

    enabled = False

    def inc(self, name: str, n: float = 1, **labels: Any) -> None:
        return None

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        return None

    def observe(self, name: str, value: float, **labels: Any) -> None:
        return None


NULL_REGISTRY = NullMetricsRegistry()

# ----------------------------------------------------------------------
# Ambient registry, mirroring the ambient tracer: instrumentation sites
# read it instead of threading a registry through every constructor.
# ----------------------------------------------------------------------
_current: MetricsRegistry = NULL_REGISTRY


def current_registry() -> MetricsRegistry:
    """The registry instrumentation sites should emit to."""
    return _current


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the ambient registry for the duration."""
    global _current
    previous = _current
    _current = registry
    try:
        yield registry
    finally:
        _current = previous


def merge_snapshots(snapshots: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Fold many snapshots into one fresh snapshot."""
    merged = MetricsSnapshot()
    for snapshot in snapshots:
        merged.merge(snapshot)
    return merged
