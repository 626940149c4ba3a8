"""One verb, one trace: a CLI verb's metrics are a view of its trace.

Every verb runs under one ambient tracer that records whenever a
telemetry option is given, and ``--metrics-out`` renders
``MetricsSnapshot.from_tracer`` of it.  The table below pins the
counters, gauges and histogram observation counts of thirteen commands
(run from an empty directory).  Every ``phase`` span is a
``repro_compile_phase_seconds`` observation, so ``--check-ir
each-phase`` adds the guard's ``ir-check`` spans under their own label.
For the verbs whose ``--trace-out`` is the JSONL trace, the metrics
read back from the trace file equal the run's own ``--metrics-out``.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.obs import CompileProfile, read_jsonl, validate_trace_file
from repro.obs.metrics import MetricsSnapshot

from tests.helpers import REPO

NQUEENS_6 = [str(REPO / "examples" / "apps" / "nqueens.mini"), "--args", "6"]
EXAMPLES_4 = [str(REPO / "examples"), "--args", "4"]
FUZZ = ["--fuzz", "3", "--fuzz-mutations", "2", "--fuzz-engines", "2",
        "--seed", "0"]


def phases(**counts: int) -> dict[str, int]:
    """``repro_compile_phase_seconds`` observation counts by phase
    (underscores stand for the hyphens of phase names)."""
    return {
        f"repro_compile_phase_seconds{{phase={name.replace('_', '-')}}}": n
        for name, n in counts.items()
    }


def compiled(units: int, candidates: int, accepted: int, rejected: int,
             invalidated: int, duplications: int) -> dict[str, int]:
    return {
        "repro_compile_units_total": units,
        "repro_compile_unit_seconds": units,
        "repro_dbds_candidates_total": candidates,
        "repro_dbds_decisions_total{outcome=accepted}": accepted,
        "repro_dbds_decisions_total{outcome=rejected}": rejected,
        "repro_dbds_decisions_total{outcome=invalidated}": invalidated,
        "repro_dbds_duplications_total": duplications,
    }


#: compiling nqueens (3 units) under dbds after its profiling run
NQUEENS = {
    **compiled(3, 20, 3, 16, 1, 3),
    **phases(canonicalize=14, conditional_elimination=7, dbds=3,
             global_value_numbering=7, inlining=3,
             loop_invariant_code_motion=6, partial_escape_analysis=7,
             read_elimination=7),
    "repro_profile_runs_total{engine=megaunit}": 1,
}
RAN_ON_MEGAUNIT = {"repro_vm_runs_total{engine=megaunit}": 1}

#: compiling the three examples (14 units) under dbds, each profiled
EXAMPLES = {
    **compiled(14, 38, 3, 34, 1, 3),
    **phases(canonicalize=58, conditional_elimination=29, dbds=14,
             global_value_numbering=29, inlining=14,
             loop_invariant_code_motion=28, partial_escape_analysis=29,
             read_elimination=29),
    "repro_profile_runs_total{engine=vm}": 3,
}
BATCH_COMPILED = {
    "repro_batch_jobs_total{outcome=compiled}": 3,
    "repro_batch_job_seconds": 3,
    "repro_batch_queue_depth": 3,
}

#: scenario -> steps run in order in one directory: (argv, metrics)
SCENARIOS = {
    "1 run": [(["run", *NQUEENS_6], {**NQUEENS, **RAN_ON_MEGAUNIT})],
    "2-3 run, cold then warm cache": [
        (["run", *NQUEENS_6, "--cache-dir", "C"], {
            **NQUEENS, **RAN_ON_MEGAUNIT,
            "repro_cache_lookups_total{result=miss}": 2,
            "repro_cache_stores_total": 2,
            "repro_cache_entry_bytes{op=put}": 1,
            "repro_codegen_cache_total{engine=megaunit,result=miss}": 1,
        }),
        (["run", *NQUEENS_6, "--cache-dir", "C"], {
            **RAN_ON_MEGAUNIT,
            "repro_cache_lookups_total{result=hit}": 2,
            "repro_cache_entry_bytes{op=get}": 1,
            "repro_codegen_cache_total{engine=megaunit,result=hit}": 1,
        }),
    ],
    "4 run, backtracking": [
        (["run", *NQUEENS_6, "--config", "backtracking"], {
            "repro_compile_units_total": 3,
            "repro_compile_unit_seconds": 3,
            **phases(backtracking_duplication=3, canonicalize=26,
                     conditional_elimination=20, global_value_numbering=6,
                     inlining=3, loop_invariant_code_motion=6,
                     partial_escape_analysis=20, read_elimination=20),
            "repro_dbds_backtrack_total{outcome=rolled_back}": 14,
            "repro_profile_runs_total{engine=megaunit}": 1,
            **RAN_ON_MEGAUNIT,
        }),
    ],
    "5 run, each-phase IR checks": [
        (["run", *NQUEENS_6, "--check-ir", "each-phase"],
         {**NQUEENS, **RAN_ON_MEGAUNIT, **phases(ir_check=60)}),
    ],
    "6 profile": [(["profile", *NQUEENS_6], NQUEENS)],
    "7 check": [(["check", *EXAMPLES_4, "--check-ir=off"], EXAMPLES)],
    "8 check, fuzzers": [
        (["check", *EXAMPLES_4, "--check-ir=off", *FUZZ], {
            **compiled(55, 82, 9, 70, 3, 9),
            **phases(canonicalize=226, conditional_elimination=113, dbds=39,
                     global_value_numbering=113, inlining=55,
                     loop_invariant_code_motion=110,
                     partial_escape_analysis=113, read_elimination=113),
            "repro_profile_runs_total{engine=megaunit}": 3,
            "repro_profile_runs_total{engine=vm}": 12,
        }),
    ],
    "9 check, bytecode verified": [
        (["check", *EXAMPLES_4, "--check-ir=off", "--verify-bytecode",
          "--check-bc", "rewrite"], {
            **EXAMPLES,
            "repro_bcverify_runs_total{result=ok}": 6,
            "repro_bcverify_seconds": 6,
        }),
    ],
    "10 batch, serial, no cache": [
        (["batch", "-j", "1", *EXAMPLES_4, "--no-cache"],
         {**EXAMPLES, **BATCH_COMPILED}),
    ],
    "11-12 batch, parallel, cold then warm cache": [
        (["batch", "-j", "2", *EXAMPLES_4, "--cache-dir", "B"], {
            **EXAMPLES, **BATCH_COMPILED,
            "repro_cache_lookups_total{result=miss}": 3,
            "repro_cache_stores_total": 3,
            "repro_cache_entry_bytes{op=put}": 3,
        }),
        (["batch", "-j", "2", *EXAMPLES_4, "--cache-dir", "B"], {
            "repro_batch_jobs_total{outcome=cached}": 3,
            "repro_batch_queue_depth": 0,
            "repro_cache_lookups_total{result=hit}": 3,
            "repro_cache_entry_bytes{op=get}": 3,
        }),
    ],
    "13 bench": [
        (["bench", "--suite", "micro", "--engine", "vm"], {
            **compiled(153, 522, 112, 302, 108, 112),
            **phases(canonicalize=782, conditional_elimination=391,
                     dbds=102, global_value_numbering=391, inlining=153,
                     loop_invariant_code_motion=306,
                     partial_escape_analysis=391, read_elimination=391),
            "repro_profile_runs_total{engine=vm}": 9,
            "repro_vm_runs_total{engine=vm}": 27,
        }),
    ],
}

#: the verbs whose ``--trace-out`` writes the JSONL trace
TRACED_VERBS = ("run", "check", "batch")


def flat(metrics: dict) -> dict[str, int]:
    """``name{labels}`` -> counter or gauge value, or histogram
    observation count, of a ``--metrics-out`` payload."""
    out = {}
    for kind in ("counters", "gauges", "histograms"):
        for name, series in metrics[kind].items():
            for key, value in series.items():
                out[f"{name}{{{key}}}" if key else name] = (
                    value["count"] if kind == "histograms" else value
                )
    return out


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_metrics_are_the_view_of_the_verbs_trace(
    scenario, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    for step, (argv, expected) in enumerate(SCENARIOS[scenario]):
        metrics, trace = tmp_path / f"m{step}.json", tmp_path / f"t{step}.jsonl"
        extra = ["--metrics-out", str(metrics)]
        if argv[0] in TRACED_VERBS:
            extra += ["--trace-out", str(trace)]
        assert main([*argv, *extra]) == 0, capsys.readouterr().err
        written = flat(json.loads(metrics.read_text()))
        assert written == expected
        if argv[0] in TRACED_VERBS:
            view = MetricsSnapshot.from_events(read_jsonl(trace))
            assert flat(view.to_json()) == written


def test_check_with_fuzzers_is_one_trace(tmp_path, capsys):
    # The fuzzers' compiles and profiling runs are in the verb's trace:
    # 14 of the 55 compiles and 3 of the 15 profiles are the examples'.
    trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.json"
    argv = ["check", *EXAMPLES_4, "--check-ir=off", *FUZZ,
            "--trace-out", str(trace), "--metrics-out", str(metrics)]
    assert main(argv) == 0, capsys.readouterr().err
    events = read_jsonl(trace)
    assert sum(e.name == "compile" and e.kind == "span" for e in events) == 55
    assert sum(e.name == "interp.profile" for e in events) == 15
    view = MetricsSnapshot.from_events(events).to_json()
    assert flat(view) == flat(json.loads(metrics.read_text()))


def test_batch_trace_holds_the_fleet(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    argv = ["batch", "-j", "2", *EXAMPLES_4, "--no-cache", "--json",
            "--trace-out", str(trace)]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    validate_trace_file(trace)
    events = read_jsonl(trace)
    assert events[-1].name == "counters"
    (batch,) = [e for e in events if e.name == "batch"]
    assert batch.attrs == {"pending": 3, "cached": 0}
    profile = CompileProfile.from_events(events)
    assert {name: stat.count for name, stat in profile.phases.items()} == {
        name: stat["count"] for name, stat in report["profile"]["phases"].items()
    }
    assert profile.phases
