"""Tests for the evaluation harness (on a reduced suite for speed)."""

import pytest

from repro.__main__ import main
from repro.bench.harness import (
    BenchmarkRow,
    Measurement,
    SuiteReport,
    cell_phase_times,
    format_suite_report,
    measure_workload,
    run_suite,
)
from repro.bench.workloads.suites import MICRO, generate_suite, generate_workload
from repro.obs import read_jsonl, validate_trace_file
from repro.obs.tracer import Tracer, use_tracer
from repro.pipeline.compiler import Compiler
from repro.pipeline.config import BASELINE, DBDS, DUPALOT

from tests.helpers import REPO, first_benchmarks
from tests.test_pipeline.test_cli import count_calls


@pytest.fixture(scope="module")
def mini_suite_report():
    profile = first_benchmarks(MICRO, 2)
    return run_suite(profile)


class TestMeasureWorkload:
    def test_measurement_fields(self):
        workload = generate_workload(MICRO, "charcount")
        m = measure_workload(workload, BASELINE)
        assert m.cycles > 0
        assert m.code_size > 0
        assert m.compile_time > 0
        assert m.duplications == 0
        assert m.config == "baseline"

    def test_phase_profiling_on_request(self):
        workload = generate_workload(MICRO, "charcount")
        tracer = Tracer()
        with use_tracer(tracer):
            m = measure_workload(workload, DBDS)
        # The cell is one span holding the numbers of its table cell...
        (cell,) = tracer.spans("bench.cell")
        assert cell.attrs == {
            "workload": "charcount", "config": "dbds", "cycles": m.cycles,
            "code_size": m.code_size, "compile_time": m.compile_time,
            "duplications": m.duplications,
        }
        # ...its wall clock covers the compile and the measured run...
        assert cell.dur >= m.compile_time
        # ...and the compile recorded its phases into the ambient trace.
        phases = cell_phase_times(tracer.events)["dbds"]
        assert "dbds" in phases and "canonicalize" in phases
        assert all(seconds >= 0 for seconds in phases.values())
        assert tracer.spans("compile")

    def test_dbds_measurement_duplicates(self):
        workload = generate_workload(MICRO, "charcount")
        m = measure_workload(workload, DBDS)
        assert m.duplications > 0


class TestSuiteReport:
    def test_rows_cover_benchmarks(self, mini_suite_report):
        assert len(mini_suite_report.rows) == 2
        assert mini_suite_report.config_names == ["dbds", "dupalot"]

    def test_normalization(self, mini_suite_report):
        row = mini_suite_report.rows[0]
        speedup = row.speedup("dbds")
        manual = (row.baseline.cycles / row.configs["dbds"].cycles - 1) * 100
        assert speedup == pytest.approx(manual)

    def test_geomeans_computable(self, mini_suite_report):
        for config in ("dbds", "dupalot"):
            # Values exist and are finite.
            assert isinstance(mini_suite_report.geomean_speedup(config), float)
            assert isinstance(mini_suite_report.geomean_compile_time(config), float)
            assert isinstance(mini_suite_report.geomean_code_size(config), float)

    def test_dbds_never_slower_on_this_suite(self, mini_suite_report):
        assert mini_suite_report.geomean_speedup("dbds") > -1.0

    def test_format_contains_all_rows(self, mini_suite_report):
        text = format_suite_report(mini_suite_report)
        for row in mini_suite_report.rows:
            assert row.workload in text
        assert "Geometric mean" in text
        assert "dbds" in text and "dupalot" in text


def deterministic(m: Measurement) -> tuple:
    """A cell without its wall-clock fields."""
    return (m.workload, m.config, m.cycles, m.code_size, m.duplications)


def test_each_workload_is_parsed_and_profiled_once(monkeypatch):
    profile = first_benchmarks(MICRO, 2)
    calls = count_calls(
        monkeypatch,
        functions=[
            ("repro.frontend.irbuilder", "compile_source"),
            ("repro.interp.profile", "profile_program"),
        ],
        methods=[(Compiler, "compile_program")],
    )
    report = run_suite(profile, engine="vm")
    assert calls == {
        "compile_source": 2, "profile_program": 2, "compile_program": 6,
    }
    # Every cell is what an unshared compile of its own gives.
    for workload, row in zip(generate_suite(profile), report.rows):
        for config, cell in zip(
            (BASELINE, DBDS, DUPALOT), (row.baseline, *row.configs.values())
        ):
            alone = measure_workload(workload, config, engine="vm")
            assert deterministic(cell) == deterministic(alone)


def figure_columns(text: str) -> list[list[str]]:
    """The deterministic columns of a Figure 5–8 table: per benchmark
    and per geomean row, the name and every perf and size cell (the
    ctime cells are wall clock)."""
    rows = []
    for line in text.splitlines():
        tokens = line.split()
        if len(tokens) == 4 and tokens[1].endswith("%"):  # geomean row
            rows.append([tokens[0], tokens[1], tokens[3]])
        elif len(tokens) == 7 and tokens[1].endswith("%"):  # benchmark row
            rows.append([tokens[0], *tokens[1::3], *tokens[3::3]])
    return rows


def test_absolute_compile_seconds_are_printed_where_table_parsers_skip_them(
    mini_suite_report,
):
    report = mini_suite_report
    seconds = report.compile_seconds()
    assert list(seconds) == ["baseline", "dbds", "dupalot"]
    assert seconds["baseline"] == pytest.approx(
        sum(row.baseline.compile_time for row in report.rows)
    )
    assert seconds["dbds"] == pytest.approx(
        sum(row.configs["dbds"].compile_time for row in report.rows)
    )
    text = format_suite_report(report)
    (line,) = [
        line for line in text.splitlines() if line.startswith("Absolute compile")
    ]
    for name, value in seconds.items():
        assert f" {name} {value:.3f}" in line
    # perfbench's octane check reads lines that start with a workload or
    # configuration name; figure_columns reads lines of 4 or 7 tokens
    # with a percentage second.
    tokens = line.split()
    assert tokens[0] not in {row.workload for row in report.rows} | set(seconds)
    assert not (len(tokens) in (4, 7) and tokens[1].endswith("%"))
    assert figure_columns(text) == figure_columns(text.replace(line, ""))


def test_figure_7_perf_and_size_columns_hold():
    committed = (REPO / "benchmarks" / "results" / "fig7_micro.txt").read_text()
    expected = figure_columns(committed)
    assert len(expected) == len(MICRO.benchmark_names) + 2
    report = run_suite(MICRO, engine="vm")
    assert figure_columns(format_suite_report(report)) == expected


def test_a_bench_trace_reproduces_its_table(tmp_path, capsys):
    """Every number ``bench`` prints is in its trace: the 27 ``bench.cell``
    spans of a micro run rebuild the table, and the ``phase`` spans
    inside them, summed per configuration, its phase breakdown."""
    trace = tmp_path / "t.jsonl"
    argv = ["bench", "--suite", "micro", "--engine", "vm", "--trace-out", str(trace)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    validate_trace_file(trace)
    events = read_jsonl(trace)
    cells = [e for e in events if e.name == "bench.cell"]
    assert len(cells) == 27
    report = SuiteReport("micro", config_names=["dbds", "dupalot"])
    breakdown: dict = {}
    for cell in cells:
        m = Measurement(**cell.attrs)
        if m.config == "baseline":
            report.rows.append(BenchmarkRow(m.workload, m))
        else:
            report.rows[-1].configs[m.config] = m
        per_config = breakdown.setdefault(m.config, {})
        for e in events:
            if e.name == "phase" and cell.ts < e.ts < cell.ts + cell.dur:
                per_config[e.attrs["phase"]] = (
                    per_config.get(e.attrs["phase"], 0.0) + e.dur
                )
    assert cell_phase_times(events) == breakdown
    table = format_suite_report(report, breakdown)
    assert figure_columns(table) == figure_columns(printed)
    assert len(figure_columns(table)) == len(MICRO.benchmark_names) + 2
    assert "Compile-time breakdown by phase" in table
    assert printed == table + "\n"
