"""Tests for the evaluation report generator."""

import pytest

import repro.bench.workloads.suites as suites
from repro.bench.report import render_markdown, run_evaluation

from tests.helpers import first_benchmarks


@pytest.fixture(scope="module")
def tiny_evaluation(tmp_path_factory):
    """One-benchmark-per-suite evaluation, shared across tests."""
    tiny = {
        name: first_benchmarks(profile, 1)
        for name, profile in suites.ALL_SUITES.items()
    }
    saved = dict(suites.ALL_SUITES)
    suites.ALL_SUITES.clear()
    suites.ALL_SUITES.update(tiny)
    try:
        yield run_evaluation(suites=["micro", "octane"])
    finally:
        suites.ALL_SUITES.clear()
        suites.ALL_SUITES.update(saved)


class TestRunEvaluation:
    def test_requested_suites_present(self, tiny_evaluation):
        assert set(tiny_evaluation.reports) == {"micro", "octane"}

    def test_headline_fields(self, tiny_evaluation):
        headline = tiny_evaluation.headline()
        assert headline["benchmarks"] == 2
        assert "/" in headline["max_speedup_benchmark"]
        assert isinstance(headline["mean_speedup"], float)


class TestRenderMarkdown:
    def test_contains_suite_sections(self, tiny_evaluation):
        markdown = render_markdown(tiny_evaluation)
        assert "## Suite: micro" in markdown
        assert "## Suite: octane" in markdown
        assert "## Headline" in markdown

    def test_contains_benchmark_rows(self, tiny_evaluation):
        markdown = render_markdown(tiny_evaluation)
        for report in tiny_evaluation.reports.values():
            for row in report.rows:
                assert f"| {row.workload} |" in markdown

    def test_tables_well_formed(self, tiny_evaluation):
        markdown = render_markdown(tiny_evaluation)
        table_lines = [l for l in markdown.splitlines() if l.startswith("|")]
        assert table_lines
        widths = {line.count("|") for line in table_lines}
        assert len(widths) == 1  # consistent column count

    def test_cli_evaluate_writes_report(self, tiny_evaluation, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "report.md"
        code = main(["evaluate", "--suites", "micro", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "## Suite: micro" in out.read_text()
        assert "mean speedup" in capsys.readouterr().out
