"""Trace sinks: JSONL serialization and schema validation.

The wire format is one JSON object per line (JSONL), one object per
:class:`~repro.obs.tracer.Event`:

``{"name": str, "kind": "event"|"span", "ts": float, "dur": float|null,
"depth": int, "attrs": {...}}``

A trace file ends with one synthetic ``counters`` record carrying the
tracer's counter table, so a trace is self-contained.  The schema is
documented in ``docs/OBSERVABILITY.md``; :func:`validate_trace`
enforces it (CI runs it against a smoke-compiled trace).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Union

from .tracer import KIND_EVENT, KIND_SPAN, Event, Tracer

#: attrs every ``dbds.decision`` event must carry
DECISION_REQUIRED_ATTRS = (
    "graph",
    "merge",
    "pred",
    "benefit",
    "cost",
    "probability",
    "accepted",
    "reason",
)

#: attrs every ``dbds.candidate`` event must carry
CANDIDATE_REQUIRED_ATTRS = ("graph", "merge", "pred", "benefit", "cost", "probability")

#: attrs every ``analysis.violation`` event must carry
VIOLATION_REQUIRED_ATTRS = ("phase", "graph", "checker", "severity", "message")

#: attrs every ``analysis.blame`` event must carry
BLAME_REQUIRED_ATTRS = ("phase", "graph", "violations")

#: attrs every ``cache.hit``/``cache.miss``/``cache.store`` event must carry
CACHE_REQUIRED_ATTRS = ("key",)

#: attrs every ``cache.evict`` event must carry
CACHE_EVICT_REQUIRED_ATTRS = ("key", "reason")

#: attrs every ``batch.worker`` event must carry
BATCH_WORKER_REQUIRED_ATTRS = ("path", "key", "ok")

#: attrs every ``tier.promote`` event must carry
TIER_PROMOTE_REQUIRED_ATTRS = (
    "function",
    "trigger",
    "calls",
    "backedges",
    "hotness",
    "threshold",
)

#: attrs every ``tier.compile`` event must carry
TIER_COMPILE_REQUIRED_ATTRS = ("function", "seconds", "fused_sites", "cached")

#: attrs every ``vm.fallback`` event must carry (an engine declining a
#: frame and degrading to a slower engine, e.g. megaunit -> closure)
VM_FALLBACK_REQUIRED_ATTRS = ("engine", "fallback", "reason")

#: attrs every ``interp.profile`` event must carry (the engine that
#: gathered the profile, its steps, and the step it switched at or null)
INTERP_PROFILE_REQUIRED_ATTRS = ("engine", "steps", "switch_step")

#: the counter-table trailer record's name
COUNTERS_RECORD = "counters"


class TraceSchemaError(ValueError):
    """A trace record violated the event schema."""


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def event_to_dict(event: Event) -> dict[str, Any]:
    return {
        "name": event.name,
        "kind": event.kind,
        "ts": event.ts,
        "dur": event.dur,
        "depth": event.depth,
        "attrs": event.attrs,
    }


def event_from_dict(record: dict[str, Any]) -> Event:
    return Event(
        name=record["name"],
        kind=record.get("kind", KIND_EVENT),
        ts=record.get("ts", 0.0),
        dur=record.get("dur"),
        depth=record.get("depth", 0),
        attrs=dict(record.get("attrs", {})),
    )


def write_jsonl(
    source: Union[Tracer, Iterable[Event]],
    path: Union[str, Path],
) -> int:
    """Write a trace file; returns the number of records written.

    Accepts a tracer (events + counter trailer) or a bare event
    iterable (no trailer).
    """
    counters = source.counters if isinstance(source, Tracer) else None
    events = source.events if isinstance(source, Tracer) else source
    written = 0
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event_to_dict(event)) + "\n")
            written += 1
        if counters is not None:
            fh.write(
                json.dumps(
                    {
                        "name": COUNTERS_RECORD,
                        "kind": KIND_EVENT,
                        "ts": 0.0,
                        "dur": None,
                        "depth": 0,
                        "attrs": dict(counters),
                    }
                )
                + "\n"
            )
            written += 1
    return written


def read_jsonl(path: Union[str, Path]) -> list[Event]:
    """Parse a trace file back into events (counter trailer included)."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(event_from_dict(json.loads(line)))
    return events


def trace_counters(events: Iterable[Event]) -> dict[str, int]:
    """Recover the counter table from a parsed trace (empty if absent)."""
    for event in events:
        if event.name == COUNTERS_RECORD:
            return dict(event.attrs)
    return {}


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def validate_record(record: dict[str, Any]) -> list[str]:
    """Problems with one raw JSONL record (empty list = valid)."""
    problems = []
    if not isinstance(record.get("name"), str) or not record.get("name"):
        problems.append("missing or non-string 'name'")
    kind = record.get("kind")
    if kind not in (KIND_EVENT, KIND_SPAN):
        problems.append(f"bad 'kind' {kind!r}")
    if not isinstance(record.get("ts"), (int, float)):
        problems.append("missing or non-numeric 'ts'")
    dur = record.get("dur")
    if kind == KIND_SPAN:
        if not isinstance(dur, (int, float)) or dur < 0:
            problems.append("span without a non-negative 'dur'")
    elif dur is not None:
        problems.append("point event with a 'dur'")
    attrs = record.get("attrs")
    if not isinstance(attrs, dict):
        problems.append("missing 'attrs' object")
        return problems
    name = record.get("name")
    if name == "dbds.decision":
        for key in DECISION_REQUIRED_ATTRS:
            if key not in attrs:
                problems.append(f"dbds.decision missing attr {key!r}")
    elif name == "dbds.candidate":
        for key in CANDIDATE_REQUIRED_ATTRS:
            if key not in attrs:
                problems.append(f"dbds.candidate missing attr {key!r}")
    elif name == "analysis.violation":
        for key in VIOLATION_REQUIRED_ATTRS:
            if key not in attrs:
                problems.append(f"analysis.violation missing attr {key!r}")
    elif name == "analysis.blame":
        for key in BLAME_REQUIRED_ATTRS:
            if key not in attrs:
                problems.append(f"analysis.blame missing attr {key!r}")
    elif name in ("cache.hit", "cache.miss", "cache.store"):
        for key in CACHE_REQUIRED_ATTRS:
            if key not in attrs:
                problems.append(f"{name} missing attr {key!r}")
    elif name == "cache.evict":
        for key in CACHE_EVICT_REQUIRED_ATTRS:
            if key not in attrs:
                problems.append(f"cache.evict missing attr {key!r}")
    elif name == "batch.worker":
        for key in BATCH_WORKER_REQUIRED_ATTRS:
            if key not in attrs:
                problems.append(f"batch.worker missing attr {key!r}")
    elif name == "tier.promote":
        for key in TIER_PROMOTE_REQUIRED_ATTRS:
            if key not in attrs:
                problems.append(f"tier.promote missing attr {key!r}")
    elif name == "tier.compile":
        for key in TIER_COMPILE_REQUIRED_ATTRS:
            if key not in attrs:
                problems.append(f"tier.compile missing attr {key!r}")
    elif name == "vm.fallback":
        for key in VM_FALLBACK_REQUIRED_ATTRS:
            if key not in attrs:
                problems.append(f"vm.fallback missing attr {key!r}")
    elif name == "interp.profile":
        for key in INTERP_PROFILE_REQUIRED_ATTRS:
            if key not in attrs:
                problems.append(f"interp.profile missing attr {key!r}")
    elif name == "phase" and kind == KIND_SPAN and "phase" not in attrs:
        problems.append("phase span missing attr 'phase'")
    return problems


def validate_trace(records: Iterable[dict[str, Any]]) -> int:
    """Validate raw records; returns the count or raises
    :class:`TraceSchemaError` naming every offending line."""
    count = 0
    failures = []
    for index, record in enumerate(records, start=1):
        problems = validate_record(record)
        if problems:
            failures.append(f"record {index}: " + "; ".join(problems))
        count += 1
    if failures:
        raise TraceSchemaError("\n".join(failures))
    return count


def validate_trace_file(path: Union[str, Path]) -> int:
    """Validate a JSONL trace file; returns the record count."""

    def records():
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield json.loads(line)

    return validate_trace(records())
