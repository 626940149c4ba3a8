"""``repro.obs`` — the compiler telemetry subsystem.

Phase tracing, DBDS decision events, trace sinks, and the two views of
a trace: compile profiles and metrics.  See ``docs/OBSERVABILITY.md``
for the event schema and the CLI surface (``python -m repro trace``,
``--trace-out``, ``--profile-compile``, ``--metrics-out``).

Typical use::

    from repro.obs import Tracer, use_tracer, CompileProfile, write_jsonl

    tracer = Tracer()                       # enabled, records everything
    compiler = Compiler(DBDS, tracer=tracer)
    compiler.compile_program(program)
    print(CompileProfile.from_tracer(tracer).format())
    write_jsonl(tracer, "trace.jsonl")
"""

from .metrics import (
    BYTES_BUCKETS,
    HISTOGRAM_BUCKETS,
    SECONDS_BUCKETS,
    HistogramData,
    MetricsSnapshot,
    exponential_buckets,
)
from .profile import CompileProfile, PhaseStat
from .sinks import (
    TraceSchemaError,
    event_from_dict,
    event_to_dict,
    read_jsonl,
    trace_counters,
    validate_record,
    validate_trace,
    validate_trace_file,
    write_jsonl,
)
from .tracer import (
    NULL_TRACER,
    Event,
    NullTracer,
    Tracer,
    current_tracer,
    use_tracer,
)

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
    "current_tracer",
    "event_from_dict",
    "event_to_dict",
    "read_jsonl",
    "trace_counters",
    "use_tracer",
    "validate_record",
    "validate_trace",
    "validate_trace_file",
    "write_jsonl",
]
