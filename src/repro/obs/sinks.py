"""Trace sinks: JSONL serialization and schema validation.

The wire format is one JSON object per line (JSONL), one object per
:class:`~repro.obs.tracer.Event`:

``{"name": str, "kind": "event"|"span", "ts": float, "dur": float|null,
"depth": int, "attrs": {...}}``

Spans and events are the only records, so a trace file is
self-contained: every metric and profile tally folds from it.  The
schema is documented in ``docs/OBSERVABILITY.md``;
:func:`validate_trace` enforces it (CI runs it against a
smoke-compiled trace).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Union

from .tracer import KIND_EVENT, KIND_SPAN, Event

#: record name -> the attrs every record of that name must carry
REQUIRED_ATTRS: dict[str, tuple[str, ...]] = {
    "dbds.decision": (
        "graph", "merge", "pred", "benefit", "cost", "probability",
        "accepted", "reason",
    ),
    "dbds.candidate": ("graph", "merge", "pred", "benefit", "cost", "probability"),
    "analysis.violation": ("graph", "checker", "severity", "message"),
    "analysis.blame": ("phase", "graph", "violations"),
    "cache.hit": ("key",),
    "cache.miss": ("key",),
    "cache.store": ("key",),
    "cache.evict": ("key", "reason"),
    "batch.worker": ("path", "key", "ok"),
    # megaunit declining a frame and running it on the vm loop instead
    "vm.fallback": ("engine", "fallback", "reason"),
    # one measured execution: its engine and how many argument sets ran
    "vm.measure": ("engine", "runs"),
    # the codegen cache's verdict on one lookup: "hit" or "miss"
    "vm.codegen_cache": ("engine", "key", "result"),
    # the engine that gathered the profile, its steps, and the step it
    # switched at or null
    "interp.profile": ("engine", "steps", "switch_step"),
    # spans: a phase run, a bytecode verification and its verdict, a
    # batch with the jobs it sent to workers and the jobs the cache
    # served, and one bench suite cell with the numbers of its table row
    "phase": ("phase",),
    "bcverify": ("ok",),
    "batch": ("pending", "cached"),
    "bench.cell": (
        "workload", "config", "cycles", "code_size", "compile_time",
        "duplications",
    ),
}


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


def write_jsonl(events: Iterable[Event], path: Union[str, Path]) -> int:
    """Write a trace file; returns the number of records written."""
    written = 0
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event_to_dict(event)) + "\n")
            written += 1
    return written


def read_jsonl(path: Union[str, Path]) -> list[Event]:
    """Parse a trace file back into events."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(event_from_dict(json.loads(line)))
    return events


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
    for key in REQUIRED_ATTRS.get(name, ()) if isinstance(name, str) else ():
        if key not in attrs:
            problems.append(f"{name} missing attr {key!r}")
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
