"""Differential metrics test: serial vs parallel batches must fold to
identical metric totals.

Each ``compile_batch`` worker compiles under its own tracer and hands
its trace back; the parent appends it to the batch's tracer, and the
metrics are a view of that one trace.  Since every job does the same
work regardless of scheduling, a ``jobs=1`` batch and a ``jobs=4``
batch must agree on every **counter** value and every **histogram
observation count**.  Histogram bucket placements and sums are
wall-clock (they differ run-to-run by construction) and the queue-depth
gauge is a per-batch peak, so neither is compared here beyond the
peak-queue-depth invariant.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.obs.metrics import MetricsSnapshot
from repro.obs.tracer import Tracer
from repro.pipeline.batch import BatchOptions, compile_batch

EXAMPLES = sorted(pathlib.Path("examples").rglob("*.mini"))

#: identical small workload on both sides (same trick as
#: test_batch_differential)
PROFILE_ARGS = (4,)


def batch_snapshot(jobs: int):
    tracer = Tracer()
    options = BatchOptions(jobs=jobs, args=PROFILE_ARGS)
    report = compile_batch(EXAMPLES, options, tracer=tracer)
    assert report.ok
    return MetricsSnapshot.from_events(tracer.events)


@pytest.fixture(scope="module")
def serial_and_parallel():
    return batch_snapshot(jobs=1), batch_snapshot(jobs=4)


def test_counter_totals_identical(serial_and_parallel):
    serial, parallel = serial_and_parallel
    assert serial.counters == parallel.counters
    # and the families we specifically instrument all showed up
    assert parallel.counter_value(
        "repro_batch_jobs_total", outcome="compiled"
    ) == len(EXAMPLES)
    assert parallel.counter_value("repro_compile_units_total") > 0
    assert parallel.counter_total("repro_dbds_decisions_total") > 0
    assert parallel.counter_total("repro_profile_runs_total") == len(EXAMPLES)


def test_histogram_observation_counts_identical(serial_and_parallel):
    serial, parallel = serial_and_parallel
    assert set(serial.histograms) == set(parallel.histograms)
    for name in serial.histograms:
        assert serial.histogram_counts(name) == parallel.histogram_counts(
            name
        ), f"observation-count drift in {name}"
    assert parallel.histogram_count("repro_batch_job_seconds") == len(EXAMPLES)


def test_queue_depth_gauge_reports_peak(serial_and_parallel):
    serial, parallel = serial_and_parallel
    assert serial.gauge_value("repro_batch_queue_depth") == len(EXAMPLES)
    assert parallel.gauge_value("repro_batch_queue_depth") == len(EXAMPLES)
