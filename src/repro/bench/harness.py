"""The evaluation harness: runs suite × configuration and prints the
per-benchmark series plus geometric-mean tables of Figures 5–8.

For every workload and configuration the harness measures the three
paper metrics:

* **peak performance** — simulated cycles of the measured run (the
  harness reports the speedup over baseline; higher is better),
* **compile time** — wall-clock of the optimization pipeline (lower is
  better; reported as increase over baseline),
* **code size** — node-cost-model size of all compiled units (lower is
  better; reported as increase over baseline).

The profile depends on the workload's source and profiling inputs, not
on the configuration, so each workload is parsed and profiled once: every
configuration compiles its own copy of that one profiled program (a
:class:`~repro.pipeline.compiler.ProfiledSource`), so every compile
starts from the same IR.  The compiler and the workload generators load
with the first suite run, not with the harness: the CLI imports this
module for every verb.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Optional

from ..pipeline.config import BASELINE, CompilerConfig, DBDS, DUPALOT
from ..pipeline.front import jit, measure_performance
from .stats import format_percent, geometric_mean, speedup_percent

if TYPE_CHECKING:
    from ..pipeline.cache import ArtifactCache
    from ..pipeline.compiler import ProfiledSource
    from .workloads.suites import SuiteProfile, Workload

#: the suites ``repro bench`` runs: the keys of
#: :data:`~repro.bench.workloads.suites.ALL_SUITES`, named here so that
#: building the CLI parser loads no workload generator (a test keeps
#: the two equal)
SUITE_NAMES = ("java-dacapo", "micro", "octane", "recursion", "scala-dacapo")

#: the committed perf trajectory ``bench --append-trajectory`` extends
#: (:mod:`repro.bench.trajectory`)
DEFAULT_TRAJECTORY_PATH = Path("benchmarks/results/BENCH_trajectory.json")

#: default tolerated per-config median-cycles growth (5 %) of
#: ``bench --check-regression``
DEFAULT_REGRESSION_THRESHOLD = 0.05


@dataclass
class Measurement:
    """One (workload, configuration) cell.

    All wall-clock numbers come from ``time.perf_counter`` — the
    compiler's per-phase spans and the harness's own ``wall_time``
    alike — so they are directly comparable.  In :func:`run_suite`
    the configurations of a workload share one parse and profiling
    run, which the ``wall_time`` of the first configuration to miss
    the cache includes.  ``phase_times`` (phase name → inclusive
    seconds, summed over compilation units) is only populated when the
    compile was recorded: under a recording ambient tracer, or when it
    was stored into a cache.
    """

    workload: str
    config: str
    cycles: float
    compile_time: float
    code_size: float
    duplications: int
    wall_time: float = 0.0
    phase_times: dict[str, float] = field(default_factory=dict)


@dataclass
class BenchmarkRow:
    """One workload across all configurations, normalized to baseline."""

    workload: str
    baseline: Measurement
    configs: dict[str, Measurement] = field(default_factory=dict)

    def speedup(self, config: str) -> float:
        return speedup_percent(self.baseline.cycles, self.configs[config].cycles)

    def compile_time_increase(self, config: str) -> float:
        if self.baseline.compile_time == 0:
            return 0.0
        return (self.configs[config].compile_time / self.baseline.compile_time - 1.0) * 100.0

    def code_size_increase(self, config: str) -> float:
        if self.baseline.code_size == 0:
            return 0.0
        return (self.configs[config].code_size / self.baseline.code_size - 1.0) * 100.0


@dataclass
class SuiteReport:
    """All rows of one suite plus the geomean summary."""

    suite: str
    rows: list[BenchmarkRow] = field(default_factory=list)
    config_names: list[str] = field(default_factory=list)

    def geomean_speedup(self, config: str) -> float:
        ratios = [
            self.baseline_ratio(row, config) for row in self.rows
        ]
        return (geometric_mean(ratios) - 1.0) * 100.0

    @staticmethod
    def baseline_ratio(row: BenchmarkRow, config: str) -> float:
        return max(row.baseline.cycles / max(row.configs[config].cycles, 1e-9), 1e-9)

    def geomean_compile_time(self, config: str) -> float:
        ratios = [
            max(row.configs[config].compile_time, 1e-9)
            / max(row.baseline.compile_time, 1e-9)
            for row in self.rows
        ]
        return (geometric_mean(ratios) - 1.0) * 100.0

    def geomean_code_size(self, config: str) -> float:
        ratios = [
            max(row.configs[config].code_size, 1e-9)
            / max(row.baseline.code_size, 1e-9)
            for row in self.rows
        ]
        return (geometric_mean(ratios) - 1.0) * 100.0


def measure_workload(
    workload: Workload,
    config: CompilerConfig,
    cache: Optional[ArtifactCache] = None,
    engine: str = "reference",
    profiled: Optional[ProfiledSource] = None,
) -> Measurement:
    """Compile under ``config`` and run the measured workload.

    ``profiled`` is the workload's profiled program, shared with the
    other configurations' compiles (default: parse and profile afresh);
    :func:`~repro.pipeline.front.jit` rejects one built from another
    workload with a :class:`ValueError`.

    Under a recording ambient tracer (a CLI telemetry option) the
    compile records into it and fills ``Measurement.phase_times`` —
    tracing adds overhead to the compile-time numbers (equally for
    every configuration), so the default ``NULL_TRACER`` keeps it off.

    With a ``cache``, compilation goes through :func:`jit` cache-first:
    served from the artifact cache when warm (the stored report keeps
    the original cold-compile timings, so normalized compile-time
    columns stay meaningful; VM engines still translate the program
    once) and stored into it when cold.

    ``engine`` picks the executor for the measured run; all report
    identical cycles, so the choice only changes harness wall time.
    """
    wall_start = time.perf_counter()
    artifact = jit(
        workload.source, workload.entry, workload.profile_args, config,
        cache=cache, profiled=profiled,
    )
    report = artifact.report
    cycles, results = measure_performance(
        artifact.program, workload.entry, workload.measure_args,
        engine=engine,
        bytecode=None if engine == "reference" else artifact.bytecode(),
    )
    wall_time = time.perf_counter() - wall_start
    for result in results:
        if result.trapped:
            raise RuntimeError(
                f"{workload.suite}/{workload.name} trapped under "
                f"{config.name}: {result.trap}"
            )
    return Measurement(
        workload=workload.name,
        config=config.name,
        cycles=cycles,
        compile_time=report.total_compile_time,
        code_size=report.total_code_size,
        duplications=report.total_duplications,
        wall_time=wall_time,
        phase_times=report.total_phase_times(),
    )


def run_suite(
    profile: SuiteProfile,
    configs: Optional[Iterable[CompilerConfig]] = None,
    seed: int = 0,
    workloads: Optional[list[Workload]] = None,
    cache: Optional[ArtifactCache] = None,
    engine: str = "reference",
) -> SuiteReport:
    """Measure a whole suite under baseline + the given configurations,
    parsing and profiling each workload once for all of them."""
    from ..pipeline.compiler import ProfiledSource
    from .workloads.suites import generate_suite

    configs = list(configs) if configs is not None else [DBDS, DUPALOT]
    workloads = workloads if workloads is not None else generate_suite(profile, seed)
    report = SuiteReport(suite=profile.suite, config_names=[c.name for c in configs])
    for workload in workloads:
        profiled = ProfiledSource(
            workload.source, workload.entry, workload.profile_args,
            uses=1 + len(configs),
        )
        baseline = measure_workload(workload, BASELINE, cache, engine, profiled)
        row = BenchmarkRow(workload=workload.name, baseline=baseline)
        for config in configs:
            row.configs[config.name] = measure_workload(
                workload, config, cache, engine, profiled
            )
        report.rows.append(row)
    return report


def format_suite_report(report: SuiteReport) -> str:
    """The Figure 5–8 presentation: per-benchmark rows, geomean table."""
    lines = [f"=== {report.suite} ==="]
    header = f"{'benchmark':<14s}" + "".join(
        f"{name + ' perf':>16s}{name + ' ctime':>16s}{name + ' size':>16s}"
        for name in report.config_names
    )
    lines.append(header)
    for row in report.rows:
        cells = ""
        for name in report.config_names:
            cells += (
                f"{format_percent(row.speedup(name)):>16s}"
                f"{format_percent(row.compile_time_increase(name)):>16s}"
                f"{format_percent(row.code_size_increase(name)):>16s}"
            )
        lines.append(f"{row.workload:<14s}{cells}")
    lines.append("-" * len(header))
    lines.append("Geometric mean (peak performance / compile time / code size):")
    for name in report.config_names:
        lines.append(
            f"  {name:<12s} {format_percent(report.geomean_speedup(name)):>9s} "
            f"{format_percent(report.geomean_compile_time(name)):>9s} "
            f"{format_percent(report.geomean_code_size(name)):>9s}"
        )
    breakdown = suite_phase_times(report)
    if any(breakdown.values()):
        lines.append("Compile-time breakdown by phase (inclusive ms, suite total):")
        phases = sorted(
            {p for per_config in breakdown.values() for p in per_config},
            key=lambda p: -max(bd.get(p, 0.0) for bd in breakdown.values()),
        )
        lines.append(
            f"  {'phase':<28s}"
            + "".join(f"{name:>14s}" for name in breakdown)
        )
        for phase in phases:
            lines.append(
                f"  {phase:<28s}"
                + "".join(
                    f"{breakdown[name].get(phase, 0.0) * 1e3:>14.2f}"
                    for name in breakdown
                )
            )
    return "\n".join(lines)


def suite_phase_times(report: SuiteReport) -> dict[str, dict[str, float]]:
    """Config name → (phase → seconds) summed over the suite's rows.

    Empty inner dicts when the suite's compiles were not recorded.
    """
    breakdown: dict[str, dict[str, float]] = {"baseline": {}}
    for row in report.rows:
        for phase, seconds in row.baseline.phase_times.items():
            breakdown["baseline"][phase] = (
                breakdown["baseline"].get(phase, 0.0) + seconds
            )
    for name in report.config_names:
        per_config = breakdown.setdefault(name, {})
        for row in report.rows:
            for phase, seconds in row.configs[name].phase_times.items():
                per_config[phase] = per_config.get(phase, 0.0) + seconds
    return breakdown


def suite_report_json(report: SuiteReport) -> dict[str, Any]:
    """Machine-readable suite report: per-benchmark measurements with
    per-phase compile-time breakdowns, plus the geomean summary —
    written by ``python -m repro bench --trace-out`` so future perf
    work can diff runs scriptably."""

    def measurement_json(m: Measurement) -> dict[str, Any]:
        return {
            "cycles": m.cycles,
            "compile_time": m.compile_time,
            "wall_time": m.wall_time,
            "code_size": m.code_size,
            "duplications": m.duplications,
            "phase_times": dict(m.phase_times),
        }

    return {
        "suite": report.suite,
        "configs": list(report.config_names),
        "rows": [
            {
                "workload": row.workload,
                "baseline": measurement_json(row.baseline),
                "configs": {
                    name: measurement_json(m) for name, m in row.configs.items()
                },
            }
            for row in report.rows
        ],
        "geomeans": {
            name: {
                "speedup_percent": report.geomean_speedup(name),
                "compile_time_percent": report.geomean_compile_time(name),
                "code_size_percent": report.geomean_code_size(name),
            }
            for name in report.config_names
        },
        "phase_times": suite_phase_times(report),
    }
