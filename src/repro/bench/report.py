"""Full-evaluation report generation.

``generate_report`` runs every suite under the evaluation
configurations and renders one self-contained markdown document in the
spirit of the paper's Section 6 — per-suite tables, geometric means and
the headline aggregate.  Used by ``python -m repro evaluate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..pipeline.config import CompilerConfig, DBDS, DUPALOT
from .harness import SuiteReport, run_suite
from .stats import format_percent, geometric_mean
from .workloads.suites import ALL_SUITES, PAPER_SUITES


@dataclass
class EvaluationResult:
    """All suite reports of one evaluation run."""

    reports: dict[str, SuiteReport] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def headline(self, config: str = "dbds") -> dict[str, float]:
        speed, ctime, size = [], [], []
        best_name, best = "", float("-inf")
        for report in self.reports.values():
            for row in report.rows:
                s = row.speedup(config)
                speed.append(1 + s / 100)
                ctime.append(1 + row.compile_time_increase(config) / 100)
                size.append(1 + row.code_size_increase(config) / 100)
                if s > best:
                    best, best_name = s, f"{report.suite}/{row.workload}"
        return {
            "benchmarks": len(speed),
            "max_speedup": best,
            "max_speedup_benchmark": best_name,
            "mean_speedup": (geometric_mean(speed) - 1) * 100 if speed else 0.0,
            "mean_compile_time": (geometric_mean(ctime) - 1) * 100 if ctime else 0.0,
            "mean_code_size": (geometric_mean(size) - 1) * 100 if size else 0.0,
        }


def run_evaluation(
    suites: Optional[Iterable[str]] = None,
    configs: Optional[list[CompilerConfig]] = None,
    seed: int = 0,
) -> EvaluationResult:
    """Measure the requested suites (default: the four paper suites)."""
    names = list(suites) if suites is not None else list(PAPER_SUITES)
    configs = configs if configs is not None else [DBDS, DUPALOT]
    result = EvaluationResult()
    for name in names:
        result.reports[name] = run_suite(ALL_SUITES[name], configs, seed=seed)
    return result


def render_markdown(result: EvaluationResult) -> str:
    """One markdown document with every table of the evaluation."""
    lines = [
        "# DBDS evaluation report",
        "",
        "Peak performance is simulated cycles (higher % = faster than the",
        "duplication-disabled baseline); compile time and code size are",
        "increases over the baseline (lower is better). See EXPERIMENTS.md",
        "for the paper-vs-measured discussion.",
        "",
    ]
    for name, report in result.reports.items():
        lines.append(f"## Suite: {name}")
        lines.append("")
        header = "| benchmark |"
        divider = "|---|"
        for config in report.config_names:
            header += f" {config} perf | {config} ctime | {config} size |"
            divider += "---|---|---|"
        lines.append(header)
        lines.append(divider)
        for row in report.rows:
            cells = f"| {row.workload} |"
            for config in report.config_names:
                cells += (
                    f" {format_percent(row.speedup(config))} |"
                    f" {format_percent(row.compile_time_increase(config))} |"
                    f" {format_percent(row.code_size_increase(config))} |"
                )
            lines.append(cells)
        lines.append("")
        lines.append("Geometric means:")
        lines.append("")
        for config in report.config_names:
            lines.append(
                f"* **{config}** — perf "
                f"{format_percent(report.geomean_speedup(config))}, compile "
                f"time {format_percent(report.geomean_compile_time(config))}, "
                f"code size {format_percent(report.geomean_code_size(config))}"
            )
        lines.append("")

    headline = result.headline()
    lines += [
        "## Headline (paper: up to +40%, mean +5.89% / +18.44% / +9.93%)",
        "",
        f"* benchmarks measured: {headline['benchmarks']}",
        f"* max speedup: {format_percent(headline['max_speedup'])} "
        f"({headline['max_speedup_benchmark']})",
        f"* mean speedup: {format_percent(headline['mean_speedup'])}",
        f"* mean compile time: {format_percent(headline['mean_compile_time'])}",
        f"* mean code size: {format_percent(headline['mean_code_size'])}",
        "",
    ]
    return "\n".join(lines)
