"""Tests for ``repro explain``: the DBDS decisions of the compile that
runs, folded from its trace (``repro.obs.profile.decision_units``) and
rendered (``format_decisions``)."""

import pathlib

import pytest

from repro.__main__ import main
from repro.bench.workloads.suites import MICRO, generate_suite
from repro.dbds import tradeoff
from repro.dbds.simulation import SimulationTier
from repro.dbds.tradeoff import TradeOffDecision
from repro.frontend.irbuilder import compile_source
from repro.obs import (
    Tracer,
    UnitDecisions,
    decision_units,
    format_decisions,
    read_jsonl,
)
from repro.pipeline import jit
from repro.pipeline.config import BASELINE, DBDS

SOURCE = """
fn f(x: int) -> int {
  var p: int;
  if (x > 0) { p = x; } else { p = 0; }
  return 2 + p;
}
"""

APPS = pathlib.Path(__file__).parent.parent.parent / "examples" / "apps"


def compiled(config=DBDS, source=SOURCE):
    """``f`` compiled as ``run`` compiles it, under a recording tracer."""
    return jit(source, "f", [[x] for x in range(-3, 4)], config, tracer=Tracer())


def explained(config=DBDS, source=SOURCE) -> UnitDecisions:
    """The decisions of the one unit of ``f``."""
    (unit,) = decision_units(compiled(config, source).events)
    return unit


def decision(accepted: bool, reason: str) -> dict:
    return dict(
        graph="f", merge="b4", pred="b3", benefit=1.0, cost=1.0,
        probability=0.5, weighted=0.5, accepted=accepted, reason=reason,
        iteration=0, mode="dbds",
    )


class TestExplainCandidates:
    def test_every_pair_explained(self):
        artifact = compiled()
        simulated = [
            (e.attrs["merge"], e.attrs["pred"])
            for e in artifact.events if e.name == "dbds.candidate"
        ]
        (unit,) = decision_units(artifact.events)
        decided = [(a["merge"], a["pred"]) for a, _ in unit.decisions]
        assert len(decided) == 2
        assert sorted(decided) == sorted(simulated)

    def test_beneficial_candidate_accepted(self):
        unit = explained()
        accepted = [
            (a, enables) for a, enables in unit.decisions if a["accepted"]
        ]
        assert len(accepted) == 1 == unit.duplications
        assert "constant-fold" in accepted[0][1]

    def test_simulation_left_graph_untouched(self):
        program = compile_source(SOURCE)
        graph = program.function("f")
        before = graph.describe()
        assert len(SimulationTier(graph, program).run()) == 2
        assert graph.describe() == before

    def test_threshold_term_reflects_config(self):
        unit = explained(DBDS.with_trade_off(benefit_scale=0.1))
        assert unit.decisions and unit.duplications == 0
        assert all(not a["threshold_term"] for a, _ in unit.decisions)

    def test_unit_size_term(self, monkeypatch):
        monkeypatch.setattr(tradeoff, "MAX_UNIT_SIZE", 1.0)
        unit = explained(DBDS)
        assert unit.decisions
        assert all(not a["unit_size_term"] for a, _ in unit.decisions)
        assert "skip (compilation unit at max size)" in format_decisions([unit])

    def test_sorted_by_weighted_benefit(self):
        # Each round decides its candidates best first.
        for path in sorted(APPS.glob("*.mini")):
            artifact = jit(
                path.read_text(), "main", [[4]], DBDS, tracer=Tracer()
            )
            for unit in decision_units(artifact.events):
                rounds: dict[int, list[float]] = {}
                for a, _ in unit.decisions:
                    rounds.setdefault(a["iteration"], []).append(
                        a["benefit"] * a["probability"]
                    )
                for weights in rounds.values():
                    assert weights == sorted(weights, reverse=True)


class TestVerdictText:
    def test_accept(self):
        unit = UnitDecisions(
            "f", "dbds", dbds=True,
            decisions=[(decision(True, "accept"), ["constant-fold"])],
        )
        text = format_decisions([unit])
        assert "decision: DUPLICATE" in text
        assert "enables: constant-fold" in text
        assert "#1 round 1 dbds: b4 -> b3" in text

    def test_all_reject_reasons_listed(self):
        reason = TradeOffDecision(
            weighted=0.5, threshold_term=False, unit_size_term=False,
            budget_term=False, current_size=10.0, initial_size=10.0,
        ).reason()
        unit = UnitDecisions(
            "f", "dbds", dbds=True, decisions=[(decision(False, reason), [])],
        )
        text = format_decisions([unit])
        assert "threshold" in text and "max size" in text and "budget" in text
        assert "enables: nothing fires" in text


class TestFormatting:
    def test_report_contains_blocks_and_decisions(self):
        report = format_decisions([explained()])
        assert "DBDS decisions for 'f' (dbds): 1 of 2 duplicated" in report
        assert "b4 -> b3" in report
        assert "DUPLICATE" in report
        assert "skip" in report
        assert "constant-fold" in report

    def test_empty_report(self):
        unit = explained(source="fn f(x: int) -> int { return x; }")
        assert format_decisions([unit]) == (
            "DBDS decisions for 'f' (dbds): no predecessor-merge pairs to "
            "consider"
        )

    def test_configuration_without_dbds(self):
        assert format_decisions([explained(BASELINE)]) == (
            "DBDS decisions for 'f' (baseline): no DBDS phase in this "
            "configuration"
        )

    def test_cli_explain(self, tmp_path, capsys):
        path = tmp_path / "p.mini"
        path.write_text(SOURCE)
        argv = ["explain", str(path), "--entry", "f", "--args", "3"]
        assert main([*argv, "--function", "f"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("DBDS decisions for 'f' (dbds)")
        assert main([*argv, "--config", "baseline"]) == 0
        assert "no DBDS phase" in capsys.readouterr().out


@pytest.mark.parametrize("app, args", [
    ("nqueens", "6"), ("wordfreq", "300"), ("matrix", "20"),
])
def test_explain_renders_the_trace_of_run(app, args, tmp_path, capsys):
    """explain's report is the rendering of `run --trace-out`'s trace
    with the same arguments."""
    source = str(APPS / f"{app}.mini")
    trace = tmp_path / "t.jsonl"
    assert main(["explain", source, "--args", args]) == 0
    explained_text = capsys.readouterr().out
    assert main(["run", source, "--args", args, "--trace-out", str(trace)]) == 0
    capsys.readouterr()
    rendered = format_decisions(decision_units(read_jsonl(trace)))
    assert explained_text == rendered + "\n"
    assert explained_text.count("decision: DUPLICATE") == (
        3 if app == "nqueens" else 0
    )


@pytest.mark.parametrize(
    "workload", generate_suite(MICRO, 0), ids=lambda w: w.name
)
def test_explain_duplicates_what_run_duplicates(workload, tmp_path, capsys):
    path = tmp_path / f"{workload.name}.mini"
    path.write_text(workload.source)
    (args,) = workload.profile_args
    argv = [str(path), "--args", *map(str, args)]
    assert main(["explain", *argv]) == 0
    duplicates = capsys.readouterr().out.count("decision: DUPLICATE")
    assert main(["run", *argv]) == 0
    (line,) = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("duplications")
    ]
    assert duplicates == int(line.split(":")[1])
