"""Experiment H1 — the paper's headline numbers (abstract + Section 8).

Paper: peak performance improvements of **up to 40%** with a **mean of
+5.89%**, at a mean compile-time increase of **+18.44%** and code-size
increase of **+9.93%** (means across the four suites).

This benchmark runs the four paper suites (``PAPER_SUITES``) and
aggregates, through ``EvaluationResult.headline()``:
* the maximum per-benchmark speedup ("up to X%"),
* the cross-suite geometric-mean speedup / compile time / code size.

Shape checks: a clearly positive mean speedup with standout individual
benchmarks, bought with extra compilation time.
"""

from _support import bench_cache, record_figure

from repro.bench.harness import run_suite
from repro.bench.report import EvaluationResult
from repro.bench.stats import format_percent
from repro.bench.workloads.suites import ALL_SUITES, PAPER_SUITES


def _run_all() -> EvaluationResult:
    cache = bench_cache()  # warm reruns opt in via REPRO_BENCH_CACHE=1
    return EvaluationResult({
        name: run_suite(ALL_SUITES[name], cache=cache) for name in PAPER_SUITES
    })


def test_headline_means(benchmark):
    result = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    reports = result.reports
    headline = result.headline()

    lines = [
        "=== Headline (paper: up to +40% perf, mean +5.89% perf, "
        "+18.44% compile time, +9.93% code size) ===",
        f"benchmarks measured : {headline['benchmarks']}",
        f"max speedup         : {format_percent(headline['max_speedup'])} "
        f"({headline['max_speedup_benchmark']})",
        f"mean speedup        : {format_percent(headline['mean_speedup'])}",
        f"mean compile time   : {format_percent(headline['mean_compile_time'])}",
        f"mean code size      : {format_percent(headline['mean_code_size'])}",
    ]
    for name, report in reports.items():
        lines.append(
            f"  {name:<13s} perf {format_percent(report.geomean_speedup('dbds')):>9s}"
            f"  ctime {format_percent(report.geomean_compile_time('dbds')):>9s}"
            f"  size {format_percent(report.geomean_code_size('dbds')):>9s}"
        )
    record_figure("headline", "\n".join(lines))

    assert headline["mean_speedup"] > 0.0, "DBDS must improve the overall mean"
    assert headline["max_speedup"] > headline["mean_speedup"], (
        "standout benchmarks exceed the mean"
    )
    assert headline["mean_compile_time"] > 0.0, "duplication costs compile time"
    # Java DaCapo benefits least — the paper's suite ordering.
    assert reports["java-dacapo"].geomean_speedup("dbds") <= max(
        reports["micro"].geomean_speedup("dbds"),
        reports["octane"].geomean_speedup("dbds"),
        reports["scala-dacapo"].geomean_speedup("dbds"),
    )
