"""Parallel batch compilation over many source files.

The serving-scale front door of the compiler: hand
:func:`compile_batch` a list of MiniLang sources and it compiles them
concurrently in a :class:`~concurrent.futures.ProcessPoolExecutor`
(``-j N``, default ``os.cpu_count()``), consulting a persistent
:class:`~repro.pipeline.cache.ArtifactCache` first — warm entries skip
the pipeline entirely and are served from disk without spawning a
worker.

Determinism contract: a batch compiled with ``jobs=1`` (run inline in
the calling process, no pool) and the same batch compiled with any
``jobs=N`` produce byte-identical artifact manifests per file — the
pool only changes *when* a unit is compiled, never *what* comes out.
``tests/test_pipeline/test_batch_differential.py`` enforces this.

Every worker compiles under its own event-recording
:class:`~repro.obs.tracer.Tracer`, and its trace comes back to the
parent: :func:`compile_batch` appends each freshly compiled file's to
its own tracer, so a CLI verb's one trace holds the whole fleet's
compile work and is the only record of it (``--profile-compile``,
``--cache-stats``, ``--trace-out`` and ``--metrics-out`` all fold it;
serial and parallel batches fold to the same totals, and a warm batch
holds no ``phase`` span).  In that trace the batch is one ``batch``
span (attrs ``pending``: jobs sent to workers, ``cached``: jobs the
cache served) holding the ``cache.hit``/``cache.miss``/``cache.store``
events (via the cache), each compiled file's appended trace, and one
``batch.worker`` event per compiled file.  Appended events keep the
timestamps of their worker's tracer.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from ..analysis.blame import CHECK_OFF, PhaseBlameError
from ..ir.graph import Program
from ..obs.sinks import event_from_dict, event_to_dict
from ..obs.tracer import Event, Tracer, current_tracer
from .cache import ArtifactCache, CacheEntry, cache_key
from .front import CompilationReport, UserError, jit
from .config import CompilerConfig, DBDS

#: one batch item: a filesystem path, or an explicit (name, source) pair
SourceSpec = Union[str, Path, tuple[str, str]]


@dataclass(frozen=True)
class BatchOptions:
    """Everything that shapes a batch compile (and its cache keys)."""

    config: CompilerConfig = DBDS
    #: worker processes; ``None`` = ``os.cpu_count()``; ``1`` = inline
    jobs: Optional[int] = None
    entry: str = "main"
    #: one profiling argument set for the entry function
    args: tuple[int, ...] = (10,)
    check_ir: str = CHECK_OFF
    fail_fast: bool = True
    cache: Optional[ArtifactCache] = None

    def effective_jobs(self, pending: int) -> int:
        jobs = self.jobs if self.jobs is not None else (os.cpu_count() or 1)
        return max(1, min(jobs, pending))


@dataclass
class FileResult:
    """Outcome of one batch item."""

    name: str
    key: str
    cached: bool = False
    manifest: dict[str, Any] = field(default_factory=dict)
    report: Optional[CompilationReport] = None
    events: list[Event] = field(default_factory=list)
    program_blob: bytes = b""
    error: Optional[str] = None
    check_failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and not self.check_failures

    def program(self) -> Program:
        from .cache import unpack_artifact

        return unpack_artifact(self.program_blob)

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "key": self.key,
            "cached": self.cached,
            "ok": self.ok,
            "error": self.error,
            "check_failures": list(self.check_failures),
            "elapsed": self.elapsed,
            "digest": self.manifest.get("digest"),
            "report": self.report.to_json() if self.report else None,
        }


@dataclass
class BatchReport:
    """All results of one :func:`compile_batch` call, in input order."""

    config: str
    jobs: int
    results: list[FileResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def compiled(self) -> int:
        return sum(1 for r in self.results if not r.cached and r.error is None)

    def to_json(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "jobs": self.jobs,
            "elapsed": self.elapsed,
            "ok": self.ok,
            "hits": self.hits,
            "compiled": self.compiled,
            "files": [result.to_json() for result in self.results],
        }

    def format(self) -> str:
        lines = [
            f"{'file':<34s}{'units':>6s}{'size':>8s}{'ctime ms':>10s}"
            f"{'dups':>6s}  {'origin'}"
        ]
        for result in self.results:
            if result.error is not None:
                lines.append(f"{result.name:<34s}  error: {result.error}")
                continue
            report = result.report
            origin = "cache" if result.cached else "compiled"
            lines.append(
                f"{result.name:<34s}{len(report.units):>6d}"
                f"{report.total_code_size:>8.0f}"
                f"{report.total_compile_time * 1e3:>10.2f}"
                f"{report.total_duplications:>6d}  {origin}"
            )
            for failure in result.check_failures:
                lines.append(f"    check failure: {failure}")
        lines.append(
            f"batch: {len(self.results)} file(s), {self.hits} from cache, "
            f"{self.compiled} compiled, jobs {self.jobs}, "
            f"{self.elapsed:.2f}s"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def _compile_worker(
    name: str, source: str, options: BatchOptions
) -> dict[str, Any]:
    """Compile one source; runs in a pool worker (or inline for jobs=1).

    Takes and returns only picklable plain data so the same function is
    pool- and spawn-safe: the artifact travels as a cache-entry payload.
    The worker always compiles under a recording tracer: the trace is
    what makes cached artifacts explainable, and the parent appends it
    to its own.  It travels in the entry; a failed compile, which
    makes none, returns the trace it recorded as ``events``.
    """
    tracer = Tracer()
    started = time.perf_counter()
    result: dict[str, Any] = {"name": name, "pid": os.getpid()}
    try:
        artifact = jit(
            source, options.entry, [list(options.args)], options.config,
            tracer=tracer, check_ir=options.check_ir,
            fail_fast=options.fail_fast, name=name,
        )
        entry = artifact.entry()
    except PhaseBlameError as exc:
        result["error"] = exc.format_blame()
    except UserError as exc:
        result["error"] = str(exc)
    except Exception as exc:
        result["error"] = f"{type(exc).__name__}: {exc}"
    else:
        result.update(
            entry=entry.to_payload(),
            check_failures=[f.format_blame() for f in artifact.failures],
            elapsed=time.perf_counter() - started,
        )
    if "error" in result:
        result["events"] = [event_to_dict(event) for event in tracer.events]
    return result


def _result_from_entry(
    name: str, key: str, entry: CacheEntry, **outcome: Any
) -> FileResult:
    return FileResult(
        name=name,
        key=key,
        manifest=entry.manifest,
        report=entry.report,
        events=list(entry.events),
        program_blob=entry.program_blob,
        **outcome,
    )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _load_sources(specs: Sequence[SourceSpec]) -> list[tuple[str, str]]:
    loaded = []
    for spec in specs:
        if isinstance(spec, tuple):
            loaded.append(spec)
        else:
            path = Path(spec)
            loaded.append((str(path), path.read_text()))
    return loaded


def _run_pending(
    pending: list[tuple[int, tuple, str]], jobs: int
) -> list[tuple[int, str, dict[str, Any]]]:
    """``(index, key, payload)`` of every pending job, inline for one
    job slot, else in a process pool (in completion order)."""
    if jobs == 1:
        return [(i, k, _compile_worker(*t)) for i, t, k in pending]
    payloads = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {
            pool.submit(_compile_worker, *task): (index, key)
            for index, task, key in pending
        }
        remaining = set(futures)
        while remaining:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for future in done:
                index, key = futures[future]
                payloads.append((index, key, future.result()))
    return payloads


def compile_batch(
    specs: Sequence[SourceSpec],
    options: BatchOptions = BatchOptions(),
    tracer: Optional[Tracer] = None,
) -> BatchReport:
    """Compile every source, cache-first, then in parallel.

    Results come back in input order whatever order workers finish in.
    A file that fails to compile is reported in its :class:`FileResult`
    (``error``) without aborting the rest of the batch.  ``tracer``
    (default: the ambient tracer) records the batch as one ``batch``
    span and receives each freshly compiled file's trace.
    """
    tracer = tracer if tracer is not None else current_tracer()
    started = time.perf_counter()
    sources = _load_sources(specs)
    cache = options.cache

    results: list[Optional[FileResult]] = [None] * len(sources)
    # Workers get the options without the cache: the parent owns it.
    task_options = replace(options, cache=None)
    pending: list[tuple[int, tuple, str]] = []
    with tracer.span("batch") as span:
        for index, (name, source) in enumerate(sources):
            key = cache_key(
                source,
                options.config,
                entry=options.entry,
                profile_args=[list(options.args)],
                check_ir=options.check_ir,
            )
            entry = cache.get(key, tracer) if cache is not None else None
            if entry is not None:
                results[index] = _result_from_entry(name, key, entry, cached=True)
                continue
            pending.append((index, (name, source, task_options), key))
        span.attrs.update(pending=len(pending), cached=len(sources) - len(pending))

        jobs = options.effective_jobs(len(pending)) if pending else 1
        for index, key, payload in _run_pending(pending, jobs):
            if "error" in payload:
                entry = None
                result = FileResult(
                    name=payload["name"], key=key, error=payload["error"],
                    events=[event_from_dict(d) for d in payload["events"]],
                )
            else:
                entry = CacheEntry.from_payload(payload["entry"])
                result = _result_from_entry(
                    payload["name"], key, entry,
                    check_failures=payload["check_failures"],
                    elapsed=payload["elapsed"],
                )
            if tracer.enabled:
                tracer.events.extend(
                    Event(
                        event.name, event.kind, event.ts, event.dur,
                        event.depth + span.depth + 1, event.attrs,
                    )
                    for event in result.events
                )
            tracer.event(
                "batch.worker",
                path=result.name,
                key=key,
                pid=payload.get("pid"),
                elapsed=result.elapsed,
                ok=result.error is None,
            )
            if cache is not None and result.ok:
                cache.put(entry, tracer)
            results[index] = result

    return BatchReport(
        config=options.config.name,
        jobs=jobs,
        results=[r for r in results if r is not None],
        elapsed=time.perf_counter() - started,
    )


__all__ = [
    "BatchOptions",
    "BatchReport",
    "FileResult",
    "SourceSpec",
    "compile_batch",
]
