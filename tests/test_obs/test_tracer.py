"""Tests for the event/span tracer core."""

import time

import pytest

from repro.obs.tracer import (
    NULL_TRACER,
    Event,
    NullTracer,
    Tracer,
    current_tracer,
    use_tracer,
)


class TestSpans:
    def test_span_records_duration_and_order(self):
        tracer = Tracer()
        with tracer.span("phase", phase="outer"):
            time.sleep(0.001)
        assert len(tracer.events) == 1
        event = tracer.events[0]
        assert event.kind == "span"
        assert event.dur is not None and event.dur >= 0.001
        assert event.attrs["phase"] == "outer"

    def test_spans_nest_correctly(self):
        tracer = Tracer()
        with tracer.span("phase", phase="outer"):
            with tracer.span("phase", phase="inner"):
                tracer.event("leaf")
            with tracer.span("phase", phase="second"):
                pass
        by_phase = {e.attrs.get("phase"): e for e in tracer.spans()}
        assert by_phase["outer"].depth == 0
        assert by_phase["inner"].depth == 1
        assert by_phase["second"].depth == 1
        leaf = tracer.named("leaf")[0]
        assert leaf.depth == 2
        # Start order preserved: outer first, then inner, then second.
        names = [e.attrs.get("phase") for e in tracer.spans()]
        assert names == ["outer", "inner", "second"]
        # Inner spans close before the outer one.
        outer, inner = by_phase["outer"], by_phase["inner"]
        assert inner.ts >= outer.ts
        assert inner.ts + inner.dur <= outer.ts + outer.dur + 1e-6

    def test_span_yields_event_for_attrs(self):
        tracer = Tracer()
        with tracer.span("phase", phase="p") as event:
            event.attrs["nodes_delta"] = 7
        assert tracer.events[0].attrs["nodes_delta"] == 7

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        try:
            with tracer.span("phase", phase="p"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert tracer.events[0].dur is not None
        assert tracer._depth == 0


class TestEventsAndCounters:
    def test_point_event(self):
        tracer = Tracer()
        event = tracer.event("dbds.decision", accepted=True)
        assert event in tracer.events
        assert event.kind == "event" and event.dur is None

    def test_records_no_counters(self):
        """A trace is spans and events: every tally is a fold of them."""
        with pytest.raises(TypeError):
            Tracer(time.perf_counter)
        tracer = Tracer()
        for name in ("count", "counter", "counters", "clock"):
            assert not hasattr(tracer, name)


class TestNullTracer:
    def test_is_ambient_default(self):
        assert current_tracer() is NULL_TRACER

    def test_drops_everything(self):
        tracer = NullTracer()
        with tracer.span("phase", phase="p") as event:
            event.attrs["ok"] = 1  # writable throwaway
            tracer.event("x", a=1)
        assert tracer.events == []

    def test_noop_overhead_negligible(self):
        tracer = NULL_TRACER
        start = time.perf_counter()
        for _ in range(10_000):
            with tracer.span("phase", phase="p"):
                pass
            tracer.event("e", a=1)
        elapsed = time.perf_counter() - start
        # Generous bound: 10k no-op spans must be far under a second.
        assert elapsed < 0.5
        assert tracer.events == []


class TestNullParityAudit:
    """The null tracer must shadow the live class's whole surface.

    If a new recording entry point lands on Tracer without a
    corresponding no-op guarantee, the process-wide singleton would
    silently accrue state across unrelated work.  This audit
    fails the moment the surfaces drift.
    """

    @staticmethod
    def public_api(cls) -> set[str]:
        return {
            name
            for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))
        }

    def test_null_tracer_declares_no_extra_api(self):
        assert self.public_api(NullTracer) == self.public_api(Tracer)

    def test_whole_surface_stays_silent(self):
        tracer = NullTracer()
        with tracer.span("phase", phase="p") as event:
            event.attrs["x"] = 1
        tracer.event("e", a=1)
        assert tracer.events == []
        assert tracer.spans() == []
        assert tracer.named("e") == []


class TestAmbientTracer:
    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
            inner = Tracer()
            with use_tracer(inner):
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_restored_after_exception(self):
        tracer = Tracer()
        try:
            with use_tracer(tracer):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_tracer() is NULL_TRACER
