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

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

from ..obs.tracer import KIND_SPAN, Event, current_tracer
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


class Measurement:
    """One (workload, configuration) cell.

    ``compile_time`` is the compile's wall clock
    (``time.perf_counter``), summed over its units.  A recorded suite
    run (:func:`measure_workload`) also has the cell as one
    ``bench.cell`` span, whose duration is the cell's wall clock and
    whose ``phase`` spans say where the compile time went.
    """

    __slots__ = (
        "workload", "config", "cycles", "compile_time", "code_size",
        "duplications",
    )

    def __init__(
        self,
        workload: str,
        config: str,
        cycles: float,
        compile_time: float,
        code_size: float,
        duplications: int,
    ) -> None:
        self.workload = workload
        self.config = config
        self.cycles = cycles
        self.compile_time = compile_time
        self.code_size = code_size
        self.duplications = duplications


class BenchmarkRow:
    """One workload across all configurations, normalized to baseline."""

    __slots__ = ("workload", "baseline", "configs")

    def __init__(
        self,
        workload: str,
        baseline: Measurement,
        configs: Optional[dict[str, Measurement]] = None,
    ) -> None:
        self.workload = workload
        self.baseline = baseline
        self.configs = configs if configs is not None else {}

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


class SuiteReport:
    """All rows of one suite plus the geomean summary."""

    __slots__ = ("suite", "rows", "config_names")

    def __init__(
        self,
        suite: str,
        rows: Optional[list[BenchmarkRow]] = None,
        config_names: Optional[list[str]] = None,
    ) -> None:
        self.suite = suite
        self.rows = rows if rows is not None else []
        self.config_names = config_names if config_names is not None else []

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

    def compile_seconds(self) -> dict[str, float]:
        """Config name -> absolute compile seconds, summed over the
        rows.  A ratio column can rise while every compile gets
        faster; these show which."""
        totals = {"baseline": sum(row.baseline.compile_time for row in self.rows)}
        for name in self.config_names:
            totals[name] = sum(row.configs[name].compile_time for row in self.rows)
        return totals

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
    engine: str = "megaunit",
    profiled: Optional[ProfiledSource] = None,
) -> Measurement:
    """Compile under ``config`` and run the measured workload.

    ``profiled`` is the workload's profiled program, shared with the
    other configurations' compiles (default: parse and profile afresh);
    :func:`~repro.pipeline.front.jit` rejects one built from another
    workload with a :class:`ValueError`.

    The cell is one ``bench.cell`` span of the ambient tracer (attrs
    ``workload``, ``config`` and the measurement's ``cycles``,
    ``code_size``, ``compile_time`` and ``duplications``), holding the
    compile (and the workload's profiling run, when this compile makes
    it) and the measured run, so a recorded suite run's trace
    reproduces every number of its table.  Under a recording ambient
    tracer (a CLI telemetry option) the compile records into it too —
    tracing adds overhead to the compile-time numbers (equally for
    every configuration), so the default ``NULL_TRACER`` keeps it off.

    With a ``cache``, compilation goes through :func:`jit` cache-first:
    served from the artifact cache when warm (the stored report keeps
    the original cold-compile timings, so normalized compile-time
    columns stay meaningful; VM engines still translate the program
    once) and stored into it when cold.

    ``engine`` picks the executor for the measured run (megaunit by
    default, like every measured run); all report identical cycles, so
    the choice only changes harness wall time.
    """
    with current_tracer().span(
        "bench.cell", workload=workload.name, config=config.name
    ) as cell:
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
        for result in results:
            if result.trapped:
                raise RuntimeError(
                    f"{workload.suite}/{workload.name} trapped under "
                    f"{config.name}: {result.trap}"
                )
        measurement = Measurement(
            workload=workload.name,
            config=config.name,
            cycles=cycles,
            compile_time=report.total_compile_time,
            code_size=report.total_code_size,
            duplications=report.total_duplications,
        )
        cell.attrs.update(
            cycles=cycles,
            code_size=measurement.code_size,
            compile_time=measurement.compile_time,
            duplications=measurement.duplications,
        )
    return measurement


def run_suite(
    profile: SuiteProfile,
    configs: Optional[Iterable[CompilerConfig]] = None,
    seed: int = 0,
    workloads: Optional[list[Workload]] = None,
    cache: Optional[ArtifactCache] = None,
    engine: str = "megaunit",
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


def format_suite_report(
    report: SuiteReport,
    breakdown: Optional[dict[str, dict[str, float]]] = None,
) -> str:
    """The Figure 5–8 presentation: per-benchmark rows, geomean table,
    and, given the :func:`cell_phase_times` of a recorded run, the
    per-configuration compile-time breakdown by phase."""
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
    # Never a workload/config name first, nor 4 or 7 tokens with a
    # percentage second: the Figure 5-8 table parsers skip this line.
    lines.append(
        "Absolute compile time (suite total, s):"
        + "".join(
            f"  {name} {seconds:.3f}"
            for name, seconds in report.compile_seconds().items()
        )
    )
    if breakdown:
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


def cell_phase_times(events: Iterable[Event]) -> dict[str, dict[str, float]]:
    """Config name → (phase → inclusive seconds) over the ``phase``
    spans inside a trace's ``bench.cell`` spans, keyed by the ``config``
    of the ``compile`` span that holds each: a suite run's compile time
    by phase, without the trace's other compiles (``bench
    --engine-report``'s).  Configurations in first-compile order; a
    cell the cache served adds nothing."""
    breakdown: dict[str, dict[str, float]] = {}
    cell_depth = None
    for event in events:
        if cell_depth is not None and event.depth <= cell_depth:
            cell_depth = None
        if event.kind != KIND_SPAN:
            continue
        if event.name == "bench.cell":
            cell_depth = event.depth
        elif cell_depth is None:
            continue
        elif event.name == "compile":
            per_config = breakdown.setdefault(event.attrs["config"], {})
        elif event.name == "phase":
            phase = event.attrs["phase"]
            per_config[phase] = per_config.get(phase, 0.0) + event.dur
    return breakdown
