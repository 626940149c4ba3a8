"""Tests for the metrics view of a trace (docs/OBSERVABILITY.md)."""

import pytest

from repro.dbds.tradeoff import REASON_INVALIDATED, REASON_THRESHOLD
from repro.obs import Tracer, read_jsonl, use_tracer, write_jsonl
from repro.obs.metrics import (
    BYTES_BUCKETS,
    HISTOGRAM_BUCKETS,
    SECONDS_BUCKETS,
    HistogramData,
    MetricsSnapshot,
    exponential_buckets,
    label_key,
)
from repro.obs.tracer import Event


def span(name, dur=0.001, **attrs):
    return Event(name=name, kind="span", dur=dur, attrs=attrs)


def event(name, **attrs):
    return Event(name=name, attrs=attrs)


class TestBuckets:
    def test_exponential_layout(self):
        assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)

    def test_rejects_degenerate_layouts(self):
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 2.0, 0)

    def test_declared_layouts_are_known_constants(self):
        assert HISTOGRAM_BUCKETS["repro_compile_phase_seconds"] is SECONDS_BUCKETS
        assert HISTOGRAM_BUCKETS["repro_cache_entry_bytes"] is BYTES_BUCKETS


class TestLabelKeys:
    def test_sorted_and_roundtrips(self):
        key = label_key({"b": 2, "a": "x"})
        assert key == "a=x,b=2"
        assert label_key({}) == ""
        # A series written under some label order reads back under any.
        snap = MetricsSnapshot()
        snap._inc("repro_vm_runs_total", 2, b=2, a="x")
        assert snap.counters == {"repro_vm_runs_total": {key: 2}}
        assert snap.counter_value("repro_vm_runs_total", a="x", b=2) == 2


class TestHistogramData:
    def test_observe_places_values(self):
        data = HistogramData(buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            data.observe(value)
        assert data.counts == [1, 1, 1, 1]  # final slot = overflow
        assert data.count == 4
        assert data.sum == pytest.approx(555.5)

    def test_boundary_goes_to_lower_bucket(self):
        # bisect_left: a value equal to a bound lands in that bound's
        # bucket, matching Prometheus's le= (less-or-equal) semantics.
        data = HistogramData(buckets=(1.0, 10.0))
        data.observe(1.0)
        assert data.counts == [1, 0, 0]


class TestFromEvents:
    def test_spans_and_events_fold_into_their_series(self):
        snap = MetricsSnapshot.from_events([
            span("batch", pending=2, cached=1),
            event("cache.hit", key="k", bytes=1024),
            event("cache.miss", key="k"),
            event("cache.miss", key="k", kind="aux"),
            event("cache.store", key="k", bytes=4096),
            event("cache.store", key="k", kind="aux"),
            event("cache.evict", key="k", reason="corrupted entry"),
            span("compile", 0.01, function="main"),
            span("phase", phase="dbds"),
            span("phase", phase="dbds"),
            span("phase", phase="ir-check"),
            event("interp.profile", engine="vm", steps=10, switch_step=None),
            event("batch.worker", path="a", key="k", ok=True, elapsed=0.5),
            event("batch.worker", path="b", key="k", ok=False, elapsed=0.0),
            span("bcverify", ok=True),
            span("bcverify", ok=False),
            event("vm.fallback", engine="megaunit", fallback="vm",
                  reason="recursion-headroom"),
        ])
        assert snap.counters == {
            "repro_batch_jobs_total": {
                "outcome=cached": 1, "outcome=compiled": 1, "outcome=error": 1,
            },
            "repro_cache_lookups_total": {"result=hit": 1, "result=miss": 2},
            "repro_cache_stores_total": {"": 2},
            "repro_cache_evictions_total": {"": 1},
            "repro_compile_units_total": {"": 1},
            "repro_profile_runs_total": {"engine=vm": 1},
            "repro_bcverify_runs_total": {"result=ok": 1, "result=fail": 1},
            "repro_vm_fallback_total": {
                "engine=megaunit,reason=recursion-headroom": 1,
            },
        }
        assert snap.gauges == {"repro_batch_queue_depth": {"": 2}}
        assert {n: snap.histogram_counts(n) for n in snap.histograms} == {
            # only entries (no ``kind``) carry their size
            "repro_cache_entry_bytes": {"op=get": 1, "op=put": 1},
            "repro_compile_unit_seconds": {"": 1},
            "repro_compile_phase_seconds": {"phase=dbds": 2, "phase=ir-check": 1},
            "repro_batch_job_seconds": {"": 2},
            "repro_bcverify_seconds": {"": 2},
        }
        assert snap.histogram("repro_cache_entry_bytes", op="put").buckets == (
            BYTES_BUCKETS
        )
        assert snap.histogram("repro_compile_unit_seconds").sum == 0.01

    def test_counters_fold_into_labeled_series(self):
        def decision(accepted, reason):
            return event("dbds.decision", accepted=accepted, reason=reason)

        snap = MetricsSnapshot.from_events(
            [event("dbds.candidate", reasons=["constant-fold"])] * 7
            + [decision(True, "")] * 3
            + [decision(False, REASON_THRESHOLD)] * 4
            + [decision(False, REASON_INVALIDATED)] * 2
            + [
                span("phase", phase="backtracking-duplication",
                     kept=2, rolled_back=6),
                span("phase", phase="backtracking-duplication",
                     kept=1, rolled_back=0),
                event("analysis.violation", graph="f", checker="use-lists",
                      severity="error", message="m"),
                event("vm.measure", engine="megaunit", runs=2),
                event("vm.measure", engine="vm", runs=1),
                event("vm.codegen_cache", engine="megaunit", key="k",
                      result="hit"),
                event("vm.codegen_cache", engine="megaunit", key="k",
                      result="miss"),
            ]
        )
        assert snap.counters == {
            "repro_dbds_candidates_total": {"": 7},
            "repro_dbds_duplications_total": {"": 3},
            "repro_dbds_decisions_total": {
                "outcome=accepted": 3, "outcome=rejected": 4,
                "outcome=invalidated": 2,
            },
            "repro_dbds_backtrack_total": {
                "outcome=kept": 3, "outcome=rolled_back": 6,
            },
            "repro_analysis_violations_total": {"severity=error": 1},
            "repro_vm_runs_total": {"engine=megaunit": 2, "engine=vm": 1},
            "repro_codegen_cache_total": {
                "engine=megaunit,result=hit": 1,
                "engine=megaunit,result=miss": 1,
            },
        }

    def test_nothing_added_means_no_series(self):
        snap = MetricsSnapshot.from_events([
            span("batch", pending=0, cached=0),
            span("phase", phase="backtracking-duplication",
                 kept=0, rolled_back=0),
            event("vm.measure", engine="megaunit", runs=0),
        ])
        assert snap.counters == {}
        # a batch always reports its queue depth, zero included
        assert snap.gauges == {"repro_batch_queue_depth": {"": 0}}


class TestSnapshotMerge:
    """A batch appends each worker's trace to its own, so the view of
    one trace folds many workers and batches."""

    @staticmethod
    def batch(pending: int, hits: int) -> list[Event]:
        return [span("batch", pending=pending, cached=0)] + [
            event("cache.hit", key="k", bytes=512) for _ in range(hits)
        ] + [event("batch.worker", path="a", key="k", ok=True, elapsed=0.01)]

    def test_counters_add_gauges_take_max(self):
        snap = MetricsSnapshot.from_events(self.batch(5, 2) + self.batch(2, 3))
        assert snap.counter_value("repro_cache_lookups_total", result="hit") == 5
        assert snap.gauge_value("repro_batch_queue_depth") == 5
        assert snap.histogram_count("repro_batch_job_seconds") == 2

    def test_merge_is_order_independent(self):
        parts = [self.batch(i, i) for i in (1, 2, 3)]
        forward = MetricsSnapshot.from_events([e for part in parts for e in part])
        backward = MetricsSnapshot.from_events(
            [e for part in reversed(parts) for e in part]
        )
        assert forward.to_json() == backward.to_json()


class TestSerialization:
    def test_json_roundtrip_is_lossless(self, tmp_path):
        # The trace file is the metrics' serialized form.
        from repro.pipeline.compiler import compile_and_profile
        from repro.pipeline.config import DBDS

        source = (
            "fn main(n: int) -> int {\n"
            "  var s: int = 0;\n"
            "  var i: int = 0;\n"
            "  while (i < n) {\n"
            "    if (i < 3) { s = s + 1; } else { s = s + 2; }\n"
            "    i = i + 1;\n"
            "  }\n"
            "  return s;\n"
            "}\n"
        )
        tracer = Tracer()
        with use_tracer(tracer):
            compile_and_profile(source, "main", [[10]], DBDS)
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer.events, path)
        live = MetricsSnapshot.from_events(tracer.events).to_json()
        read = MetricsSnapshot.from_events(read_jsonl(path)).to_json()
        assert read == live
        assert live["counters"]["repro_compile_units_total"] == {"": 1}
        assert live["counters"]["repro_profile_runs_total"] == {"engine=vm": 1}
