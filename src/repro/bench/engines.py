"""The execution-engine comparison matrix.

The VM backends exist to make the evaluation harness fast, so this
module answers the two questions that justify them: *how much faster*
is each engine than the reference tree-walking interpreter on the
headline (micro) suite, and *does it compute the same thing*.  Each
workload is compiled once, then the measured argument sets run on the
reference and on every VM engine under identical metering:

* ``vm`` — the plain flat-tuple machine loop;
* ``megaunit`` — the whole-program compiler: one exec unit, registers
  in Python locals, direct calls (docs/VM.md).

The report carries per-workload wall times, per-engine speedup ratios,
a per-engine median, and an outcome-equality bit (value, trap,
globals, steps and cycles all have to agree on every engine).

``python -m repro bench --engine-report FILE`` writes :func:`to_json`
output — CI archives it as the ``BENCH_headline.json`` artifact and
fails the build when the ``vm`` median speedup degrades below its
floor, when megaunit stops paying for itself against ``vm``, or when
any engine diverges.  ``--engine-report-txt FILE`` persists the
human-readable table (``benchmarks/results/engine_report.txt`` in the
repository).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..interp.interpreter import observable_outcome
from ..pipeline.cache import ArtifactCache
from ..pipeline.compiler import jit, make_engine
from ..pipeline.config import CompilerConfig, DBDS
from .workloads.suites import MICRO, SuiteProfile, Workload, generate_suite

#: the VM engines measured against the reference interpreter
MATRIX_ENGINES = ("vm", "megaunit")

#: timed passes over the measured argument sets per engine row
_TIMED_PASSES = 3


@dataclass
class EngineRow:
    """One workload across the whole engine matrix."""

    workload: str
    ref_seconds: float
    engine_seconds: dict[str, float]
    cycles: float
    steps: int
    outcomes_match: bool

    @property
    def vm_seconds(self) -> float:
        return self.engine_seconds["vm"]

    def speedup_of(self, engine: str) -> float:
        return self.ref_seconds / max(self.engine_seconds[engine], 1e-12)

    @property
    def speedup(self) -> float:
        """The headline ratio: reference over the default ``vm``."""
        return self.speedup_of("vm")


@dataclass
class EngineComparisonReport:
    """Per-workload engine timings plus the headline median speedups."""

    suite: str
    config: str
    engines: tuple = MATRIX_ENGINES
    rows: list[EngineRow] = field(default_factory=list)

    @property
    def median_speedup(self) -> float:
        """Median reference/vm ratio — the gated headline number."""
        return self.median_speedup_of("vm")

    def median_speedup_of(self, engine: str) -> float:
        if not self.rows:
            return 0.0
        return statistics.median(r.speedup_of(engine) for r in self.rows)

    @property
    def engine_medians(self) -> dict[str, float]:
        return {
            engine: self.median_speedup_of(engine) for engine in self.engines
        }

    @property
    def all_match(self) -> bool:
        return all(r.outcomes_match for r in self.rows)

    def format(self) -> str:
        lines = [f"=== engine comparison: {self.suite} / {self.config} ==="]
        header = f"{'benchmark':<14s}{'reference s':>14s}"
        for engine in self.engines:
            header += f"{engine:>12s}"
        header += f"{'match':>8s}"
        lines.append(header)
        for row in self.rows:
            line = f"{row.workload:<14s}{row.ref_seconds:>14.4f}"
            for engine in self.engines:
                line += f"{row.speedup_of(engine):>11.2f}x"
            line += f"{'yes' if row.outcomes_match else 'NO':>8s}"
            lines.append(line)
        medians = ", ".join(
            f"{engine} {median:.2f}x"
            for engine, median in self.engine_medians.items()
        )
        lines.append(
            f"median speedup vs reference: {medians}; "
            f"outcomes {'all match' if self.all_match else 'DIVERGE'}"
        )
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "config": self.config,
            "engines": list(self.engines),
            "median_speedup": self.median_speedup,
            "engine_medians": self.engine_medians,
            "all_match": self.all_match,
            "rows": [
                {
                    "workload": r.workload,
                    "ref_seconds": r.ref_seconds,
                    "vm_seconds": r.vm_seconds,
                    "engine_seconds": dict(r.engine_seconds),
                    "speedup": r.speedup,
                    "engine_speedups": {
                        engine: r.speedup_of(engine)
                        for engine in self.engines
                    },
                    "cycles": r.cycles,
                    "steps": r.steps,
                    "outcomes_match": r.outcomes_match,
                }
                for r in self.rows
            ],
        }


def _timed_runs(runner, entry: str, arg_sets) -> tuple[float, list, list]:
    """Wall-time the measured runs; returns (seconds, results, outcomes).

    One untimed warmup run precedes the clock: megaunit is a JIT in
    miniature (it compiles its module on the first frame entry), and
    the matrix measures steady-state execution, not warmup.  The warmup
    uses the first argument set and is discarded after a reset.  The
    clock then covers ``_TIMED_PASSES`` passes over the argument sets
    — single-pass times are a few milliseconds, small enough that
    scheduler noise would dominate the per-engine ratios.
    """
    results = []
    outcomes = []
    if arg_sets:
        runner.reset()
        runner.run(entry, list(arg_sets[0]))
    start = time.perf_counter()
    for _ in range(_TIMED_PASSES - 1):
        for args in arg_sets:
            runner.reset()
            runner.run(entry, list(args))
    for args in arg_sets:
        runner.reset()
        results.append(runner.run(entry, list(args)))
    elapsed = time.perf_counter() - start
    # Outcome extraction outside the timed region (deep_value walks heaps).
    for result in results:
        outcomes.append(
            (observable_outcome(result, runner.state), result.steps, result.cycles)
        )
    return elapsed, results, outcomes


def compare_engines_on(
    workload: Workload,
    config: CompilerConfig = DBDS,
    cache: Optional[ArtifactCache] = None,
    engines: Sequence[str] = MATRIX_ENGINES,
) -> EngineRow:
    """Compile one workload, run its measured args on every engine."""
    artifact = jit(
        workload.source, workload.entry, workload.profile_args, config,
        cache=cache,
    )
    program, bytecode = artifact.program, artifact.bytecode()
    reference = make_engine("reference", program)
    ref_seconds, _ref_results, ref_outcomes = _timed_runs(
        reference, workload.entry, workload.measure_args
    )
    engine_seconds: dict[str, float] = {}
    vm_results: list = []
    outcomes_match = True
    for engine in engines:
        runner = make_engine(engine, program, bytecode=bytecode)
        seconds, results, outcomes = _timed_runs(
            runner, workload.entry, workload.measure_args
        )
        engine_seconds[engine] = seconds
        outcomes_match = outcomes_match and outcomes == ref_outcomes
        if engine == "vm":
            vm_results = results
    return EngineRow(
        workload=workload.name,
        ref_seconds=ref_seconds,
        engine_seconds=engine_seconds,
        cycles=sum(r.cycles for r in vm_results),
        steps=sum(r.steps for r in vm_results),
        outcomes_match=outcomes_match,
    )


def compare_engines(
    profile: SuiteProfile = MICRO,
    config: CompilerConfig = DBDS,
    seed: int = 0,
    workloads: Optional[list[Workload]] = None,
    cache: Optional[ArtifactCache] = None,
    engines: Sequence[str] = MATRIX_ENGINES,
) -> EngineComparisonReport:
    """The headline comparison: every workload of ``profile`` on the
    reference interpreter and every VM engine under ``config``."""
    workloads = workloads if workloads is not None else generate_suite(profile, seed)
    report = EngineComparisonReport(
        suite=profile.suite, config=config.name, engines=tuple(engines)
    )
    for workload in workloads:
        report.rows.append(
            compare_engines_on(workload, config, cache, engines=engines)
        )
    return report
