"""The event/span tracer at the heart of the telemetry subsystem.

A :class:`Tracer` collects two kinds of record from one compilation
(or one benchmark run):

* **spans** — named, nested intervals with wall-clock duration.  The
  pipeline wraps every phase run in a ``phase`` span (see
  :class:`repro.opts.base.Phase`), recording per-phase time plus the
  node-count and code-size deltas the phase caused;
* **point events** — typed records such as the DBDS ``dbds.candidate``
  and ``dbds.decision`` events (one per simulated pair, with benefit,
  cost, probability and every ``shouldDuplicate`` term).

Every tally a metric or a compile profile prints is a fold of these
records (:mod:`repro.obs.metrics`, :mod:`repro.obs.profile`), so a
trace file alone reproduces every number.  There are two settings: a
:class:`Tracer` records both kinds, and :data:`NULL_TRACER`, the
ambient default, drops everything.  Overhead discipline: every
instrumentation site checks ``tracer.enabled`` before computing
anything expensive (code-size recomputation in particular).
No number a compile reports is read back from a tracer: the phases
return their own counts (see :class:`repro.dbds.phase.DbdsStats`).

The event schema and its serialization live in
:mod:`repro.obs.sinks`; aggregation lives in :mod:`repro.obs.profile`.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator, Optional

#: event kinds admitted by the schema
KIND_EVENT = "event"
KIND_SPAN = "span"


class Event:
    """One telemetry record.

    ``ts`` is seconds since the owning tracer's epoch; ``dur`` is the
    span duration (``None`` for point events); ``depth`` is the span
    nesting depth at emission time.  Everything domain-specific lives
    in ``attrs`` so the schema can grow without code changes.  Events
    are equal when all six fields are (a trace read back from JSON
    equals the one written).
    """

    __slots__ = ("name", "kind", "ts", "dur", "depth", "attrs")

    def __init__(
        self,
        name: str,
        kind: str = KIND_EVENT,
        ts: float = 0.0,
        dur: Optional[float] = None,
        depth: int = 0,
        attrs: Optional[dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.ts = ts
        self.dur = dur
        self.depth = depth
        self.attrs = attrs if attrs is not None else {}

    def _fields(self) -> tuple:
        return (self.name, self.kind, self.ts, self.dur, self.depth, self.attrs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    __hash__ = None  # mutable: ``attrs`` grows after a span closes


class _Span:
    """Context manager recording one span; yields its :class:`Event`
    so the instrumentation site can attach attributes computed after
    the body (node/size deltas)."""

    __slots__ = ("_tracer", "event", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.event = Event(name=name, kind=KIND_SPAN, attrs=attrs)

    def __enter__(self) -> Event:
        tracer = self._tracer
        self.event.depth = tracer._depth
        tracer._depth += 1
        # Appended at entry so the trace reads in start order.
        tracer.events.append(self.event)
        self._t0 = perf_counter()
        self.event.ts = self._t0 - tracer.epoch
        return self.event

    def __exit__(self, *exc) -> bool:
        tracer = self._tracer
        self.event.dur = perf_counter() - self._t0
        tracer._depth -= 1
        return False


class _NullSpan:
    """Shared do-nothing span of :data:`NULL_TRACER`."""

    __slots__ = ()

    def __enter__(self) -> Event:
        # A fresh throwaway event: callers may set attrs on it.
        return Event(name="null")

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects the spans and events of one compilation."""

    #: whether this tracer records (only :data:`NULL_TRACER` does not)
    enabled = True

    __slots__ = ("epoch", "events", "_depth")

    def __init__(self) -> None:
        self.epoch = perf_counter()
        self.events: list[Event] = []
        self._depth = 0

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any):
        """Start a span; use as ``with tracer.span("phase", ...) as ev``."""
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> Optional[Event]:
        """Record a point event; returns it (None on :data:`NULL_TRACER`)."""
        record = Event(
            name=name,
            ts=perf_counter() - self.epoch,
            depth=self._depth,
            attrs=attrs,
        )
        self.events.append(record)
        return record

    # ------------------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> list[Event]:
        """All span events, optionally filtered by name."""
        return [
            e
            for e in self.events
            if e.kind == KIND_SPAN and (name is None or e.name == name)
        ]

    def named(self, name: str) -> list[Event]:
        """All events (any kind) with the given name."""
        return [e for e in self.events if e.name == name]


class NullTracer(Tracer):
    """The ambient default: drops spans and events.

    A process-wide singleton must not accrue state across unrelated
    compilations, so every operation is a no-op here.
    """

    enabled = False

    __slots__ = ()

    def span(self, name: str, **attrs: Any):
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> Optional[Event]:
        return None


NULL_TRACER = NullTracer()

# ----------------------------------------------------------------------
# Ambient tracer: instrumentation sites (Phase.run, the DBDS tiers, the
# backend) read it instead of threading a tracer argument through every
# constructor in the compiler.
# ----------------------------------------------------------------------
_current: Tracer = NULL_TRACER


def current_tracer() -> Tracer:
    """The tracer instrumentation sites should emit to."""
    return _current


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the ambient tracer for the duration."""
    global _current
    previous = _current
    _current = tracer
    try:
        yield tracer
    finally:
        _current = previous
