"""Tests for JSONL trace serialization and schema validation."""

import json

import pytest

from repro.obs.sinks import (
    TraceSchemaError,
    event_from_dict,
    event_to_dict,
    read_jsonl,
    validate_record,
    validate_trace,
    validate_trace_file,
    write_jsonl,
)
from repro.obs.tracer import Event, Tracer


def make_tracer():
    tracer = Tracer()
    with tracer.span("phase", phase="canonicalize", graph="f") as span:
        span.attrs["nodes_delta"] = -2
        span.attrs["size_delta"] = -4.0
    tracer.event(
        "dbds.decision",
        graph="f", merge="b3", pred="b1",
        benefit=12.0, cost=3.0, probability=0.5,
        accepted=True, reason="accept",
    )
    return tracer


class TestRoundTrip:
    def test_event_dict_round_trip(self):
        event = Event(name="x", kind="span", ts=1.5, dur=0.25, depth=2,
                      attrs={"a": [1, 2], "b": "s"})
        assert event_from_dict(event_to_dict(event)) == event

    def test_jsonl_round_trip(self, tmp_path):
        tracer = make_tracer()
        path = tmp_path / "trace.jsonl"
        written = write_jsonl(tracer.events, path)
        events = read_jsonl(path)
        assert written == len(events) == 2  # span + decision
        assert events == tracer.events
        assert events[0].name == "phase" and events[0].kind == "span"
        assert events[1].attrs["benefit"] == 12.0

    def test_bare_iterable_has_no_counter_trailer(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(iter(make_tracer().events), path)
        assert [e.name for e in read_jsonl(path)] == ["phase", "dbds.decision"]


class TestValidation:
    def test_valid_trace_passes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(make_tracer().events, path)
        assert validate_trace_file(path) == 2

    def test_missing_name_rejected(self):
        assert any("name" in p for p in validate_record({"kind": "event", "ts": 0.0, "attrs": {}}))

    def test_span_needs_duration(self):
        record = {"name": "phase", "kind": "span", "ts": 0.0, "dur": None,
                  "attrs": {"phase": "gvn"}}
        assert any("dur" in p for p in validate_record(record))

    def test_decision_requires_tradeoff_fields(self):
        record = {"name": "dbds.decision", "kind": "event", "ts": 0.0,
                  "dur": None, "attrs": {"merge": "b1"}}
        problems = validate_record(record)
        assert any("benefit" in p for p in problems)
        assert any("probability" in p for p in problems)

    def test_validate_trace_raises_with_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {"name": "e", "kind": "event", "ts": 0.0, "dur": None,
                "depth": 0, "attrs": {}}
        bad = {"kind": "span", "ts": 0.0, "attrs": {}}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(TraceSchemaError, match="record 2"):
            validate_trace_file(path)
