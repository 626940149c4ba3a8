"""``repro.obs`` — the compiler telemetry subsystem.

Phase tracing, DBDS decision events, trace sinks, and the views of a
trace: compile profiles, DBDS decision reports and metrics, each a
fold of the trace's spans and events.  See
``docs/OBSERVABILITY.md`` for the event schema and the CLI surface
(``--trace-out``, ``--profile-compile``, ``--metrics-out``,
``python -m repro explain``).

Typical use::

    from repro.obs import Tracer, use_tracer, CompileProfile, write_jsonl

    tracer = Tracer()                       # enabled, records everything
    compiler = Compiler(DBDS, tracer=tracer)
    compiler.compile_program(program)
    print(CompileProfile.from_events(tracer.events).format())
    write_jsonl(tracer.events, "trace.jsonl")
"""

from .._lazy import lazy_exports

# Names resolve on first use: a run that records nothing never loads the
# metrics fold or the compile-profile aggregation.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".metrics": (
        "BYTES_BUCKETS",
        "HISTOGRAM_BUCKETS",
        "SECONDS_BUCKETS",
        "HistogramData",
        "MetricsSnapshot",
        "exponential_buckets",
    ),
    ".profile": (
        "CompileProfile",
        "PhaseStat",
        "UnitDecisions",
        "decision_units",
        "format_decisions",
    ),
    ".sinks": (
        "TraceSchemaError",
        "event_from_dict",
        "event_to_dict",
        "read_jsonl",
        "validate_record",
        "validate_trace",
        "validate_trace_file",
        "write_jsonl",
    ),
    ".tracer": (
        "NULL_TRACER",
        "Event",
        "NullTracer",
        "Tracer",
        "current_tracer",
        "use_tracer",
    ),
})

__all__ = [
    "BYTES_BUCKETS",
    "CompileProfile",
    "Event",
    "HISTOGRAM_BUCKETS",
    "HistogramData",
    "MetricsSnapshot",
    "NULL_TRACER",
    "NullTracer",
    "PhaseStat",
    "SECONDS_BUCKETS",
    "exponential_buckets",
    "TraceSchemaError",
    "Tracer",
    "UnitDecisions",
    "current_tracer",
    "decision_units",
    "event_from_dict",
    "event_to_dict",
    "format_decisions",
    "read_jsonl",
    "use_tracer",
    "validate_record",
    "validate_trace",
    "validate_trace_file",
    "write_jsonl",
]
