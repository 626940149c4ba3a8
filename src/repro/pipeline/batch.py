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
:class:`~repro.obs.tracer.Tracer`; the per-file traces come back to
the parent, where :meth:`BatchReport.profile` folds them into one
:class:`~repro.obs.profile.CompileProfile` so ``repro batch
--profile-compile`` shows a whole-fleet phase breakdown.  The parent
emits ``cache.hit``/``cache.miss``/``cache.store`` (via the cache) and
one ``batch.worker`` event per compiled file.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from ..analysis.blame import CHECK_OFF, PhaseBlameError
from ..frontend.irbuilder import compile_source
from ..interp.profile import apply_profile, profile_program
from ..ir.graph import Program
from ..obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    current_registry,
    use_registry,
)
from ..obs.profile import CompileProfile
from ..obs.sinks import event_from_dict, event_to_dict
from ..obs.tracer import Event, Tracer, current_tracer
from .cache import ArtifactCache, CacheEntry, cache_key
from .compiler import CompilationReport, Compiler
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
    #: ``--check-bc`` mode: "rewrite" verifies each worker's freshly
    #: translated bytecode (a failure is that file's ``error``); cache
    #: *loads* are verified by the cache itself when it was built with
    #: ``verify_bytecode != "off"``.  Not part of the cache key — the
    #: verifier only accepts/rejects, it never changes the artifact.
    check_bc: str = "off"
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
    counters: dict[str, int] = field(default_factory=dict)
    program_blob: bytes = b""
    error: Optional[str] = None
    check_failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and not self.check_failures

    def program(self) -> Program:
        from .cache import unpack_artifact

        return unpack_artifact(self.program_blob)[0]

    def bytecode(self):
        from .cache import unpack_artifact

        return unpack_artifact(self.program_blob)[1]

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
    cache_stats: Optional[dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def compiled(self) -> int:
        return sum(1 for r in self.results if not r.cached and r.error is None)

    def events(self) -> list[Event]:
        """Compile-trace events of every *freshly compiled* file.

        Cache hits contribute nothing here on purpose: a warm batch
        must show zero optimization-phase spans in its profile.
        """
        merged: list[Event] = []
        for result in self.results:
            if not result.cached:
                merged.extend(result.events)
        return merged

    def counters(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for result in self.results:
            if result.cached:
                continue
            for name, value in result.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def profile(self) -> CompileProfile:
        """One aggregated compile profile across all workers."""
        return CompileProfile.from_events(self.events(), counters=self.counters())

    def to_json(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "jobs": self.jobs,
            "elapsed": self.elapsed,
            "ok": self.ok,
            "hits": self.hits,
            "compiled": self.compiled,
            "cache": self.cache_stats,
            "files": [result.to_json() for result in self.results],
            "profile": self.profile().to_json(),
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
def _compile_worker(task: dict[str, Any]) -> dict[str, Any]:
    """Compile one source; runs in a pool worker (or inline for jobs=1).

    Takes and returns only picklable plain data so the same function is
    pool- and spawn-safe.  The worker always compiles under a recording
    tracer: the trace is what makes cached artifacts explainable and
    the batch profile aggregatable.  It likewise always compiles under
    its own :class:`MetricsRegistry`, whose snapshot rides back in the
    payload so the parent can fold worker metrics into one view —
    serial and parallel batches merge to identical totals.
    """
    tracer = Tracer()
    registry = MetricsRegistry()
    started = time.perf_counter()
    result: dict[str, Any] = {"name": task["name"], "pid": os.getpid()}
    try:
        with use_registry(registry):
            program = compile_source(task["source"])
            collector = profile_program(
                program, task["entry"], [list(task["args"])]
            )
            apply_profile(program, collector)
            compiler = Compiler(
                task["config"],
                tracer=tracer,
                check_ir=task["check_ir"],
                fail_fast=task["fail_fast"],
            )
            report = compiler.compile_program(program)
    except PhaseBlameError as exc:
        result["error"] = exc.format_blame()
        result["metrics"] = registry.snapshot().to_json()
        return result
    except Exception as exc:
        result["error"] = f"{type(exc).__name__}: {exc}"
        result["metrics"] = registry.snapshot().to_json()
        return result
    from ..analysis.core import BytecodeVerificationError
    from ..vm import translate_program
    from .cache import artifact_manifest, pack_artifact

    try:
        with use_registry(registry):
            # Translation (superinstruction fusion counts fused sites on
            # the ambient registry) must run under the worker registry
            # too, or serial and parallel batches would merge different
            # totals.
            program_blob = pack_artifact(
                program,
                translate_program(
                    program, check_bc=task.get("check_bc", "off")
                ),
            )
    except BytecodeVerificationError as exc:
        result["error"] = exc.report.summary()
        result["metrics"] = registry.snapshot().to_json()
        return result
    result.update(
        report=report.to_json(),
        manifest=artifact_manifest(program, report, tracer.events),
        events=[event_to_dict(e) for e in tracer.events],
        counters=dict(tracer.counters),
        program_blob=program_blob,
        check_failures=[
            failure.format_blame() for failure in compiler.guard.failures
        ]
        if compiler.guard is not None
        else [],
        elapsed=time.perf_counter() - started,
        metrics=registry.snapshot().to_json(),
    )
    return result


def _result_from_worker(key: str, payload: dict[str, Any]) -> FileResult:
    if "error" in payload:
        return FileResult(name=payload["name"], key=key, error=payload["error"])
    return FileResult(
        name=payload["name"],
        key=key,
        cached=False,
        manifest=payload["manifest"],
        report=CompilationReport.from_json(payload["report"]),
        events=[event_from_dict(d) for d in payload["events"]],
        counters=payload["counters"],
        program_blob=payload["program_blob"],
        check_failures=payload["check_failures"],
        elapsed=payload["elapsed"],
    )


def _result_from_cache(name: str, key: str, entry: CacheEntry) -> FileResult:
    return FileResult(
        name=name,
        key=key,
        cached=True,
        manifest=entry.manifest,
        report=entry.report,
        events=list(entry.events),
        counters=dict(entry.counters),
        program_blob=entry.program_blob,
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


def compile_batch(
    specs: Sequence[SourceSpec],
    options: BatchOptions = BatchOptions(),
    tracer: Optional[Tracer] = None,
) -> BatchReport:
    """Compile every source, cache-first, then in parallel.

    Results come back in input order whatever order workers finish in.
    A file that fails to compile is reported in its :class:`FileResult`
    (``error``) without aborting the rest of the batch.
    """
    tracer = tracer if tracer is not None else current_tracer()
    registry = current_registry()
    started = time.perf_counter()
    sources = _load_sources(specs)
    cache = options.cache

    results: list[Optional[FileResult]] = [None] * len(sources)
    pending: list[tuple[int, dict[str, Any], str]] = []
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
            results[index] = _result_from_cache(name, key, entry)
            registry.inc("repro_batch_jobs_total", outcome="cached")
            continue
        task = {
            "name": name,
            "source": source,
            "config": options.config,
            "entry": options.entry,
            "args": tuple(options.args),
            "check_ir": options.check_ir,
            "check_bc": options.check_bc,
            "fail_fast": options.fail_fast,
        }
        pending.append((index, task, key))

    jobs = options.effective_jobs(len(pending)) if pending else 1
    # Peak queue depth for this batch (merged snapshots keep the max).
    registry.set_gauge("repro_batch_queue_depth", len(pending))
    if pending:
        if jobs == 1:
            payloads = [(i, k, _compile_worker(t)) for i, t, k in pending]
        else:
            payloads = []
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {
                    pool.submit(_compile_worker, task): (index, key)
                    for index, task, key in pending
                }
                remaining = set(futures)
                while remaining:
                    done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                    for future in done:
                        index, key = futures[future]
                        payloads.append((index, key, future.result()))
        for index, key, payload in payloads:
            result = _result_from_worker(key, payload)
            if "metrics" in payload:
                registry.merge_snapshot(
                    MetricsSnapshot.from_json(payload["metrics"])
                )
            registry.inc(
                "repro_batch_jobs_total",
                outcome="error" if result.error is not None else "compiled",
            )
            registry.observe("repro_batch_job_seconds", result.elapsed)
            tracer.count("batch.worker")
            tracer.event(
                "batch.worker",
                path=result.name,
                key=key,
                pid=payload.get("pid"),
                elapsed=result.elapsed,
                ok=result.error is None,
            )
            if cache is not None and result.ok and result.report is not None:
                cache.put(
                    CacheEntry(
                        key=key,
                        manifest=result.manifest,
                        report=result.report,
                        program_blob=result.program_blob,
                        events=result.events,
                        counters=result.counters,
                    ),
                    tracer,
                )
            results[index] = result

    report = BatchReport(
        config=options.config.name,
        jobs=jobs if pending else 1,
        results=[r for r in results if r is not None],
        elapsed=time.perf_counter() - started,
        cache_stats=cache.stats.to_json() if cache is not None else None,
    )
    return report


__all__ = [
    "BatchOptions",
    "BatchReport",
    "FileResult",
    "SourceSpec",
    "compile_batch",
]
