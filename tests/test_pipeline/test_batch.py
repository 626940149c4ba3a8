"""Batch driver behavior: ordering, errors, warm-cache profiles, CLI."""

from __future__ import annotations

import json
import textwrap

from repro.__main__ import main
from repro.obs import (
    CompileProfile,
    MetricsSnapshot,
    Tracer,
    decision_units,
    event_to_dict,
    format_decisions,
    validate_record,
)
from repro.pipeline.batch import BatchOptions, compile_batch
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.config import DBDS

from tests.helpers import REPO

ADD = textwrap.dedent(
    """
    fn main(n: int) -> int {
      var acc: int = 0;
      var i: int = 0;
      while (i < n) {
        if (i > 1) { acc = acc + i; } else { acc = acc - i; }
        i = i + 1;
      }
      return acc;
    }
    """
)

MUL = ADD.replace("acc + i", "acc + 2 * i")
BROKEN = "fn main(n: int) -> int { return undefined_name; }"


def batch_options(**overrides):
    defaults = dict(config=DBDS, jobs=1, args=(5,))
    defaults.update(overrides)
    return BatchOptions(**defaults)


def test_batch_results_in_input_order():
    specs = [("b.mini", MUL), ("a.mini", ADD)]
    report = compile_batch(specs, batch_options())
    assert [r.name for r in report.results] == ["b.mini", "a.mini"]
    assert report.ok
    assert report.compiled == 2 and report.hits == 0
    for result in report.results:
        assert result.manifest["digest"]
        assert result.report is not None
        # The rehydrated program still runs.
        assert result.program().function("main") is not None


def test_batch_error_file_does_not_abort_batch():
    specs = [("bad.mini", BROKEN), ("good.mini", ADD)]
    report = compile_batch(specs, batch_options())
    assert not report.ok
    bad, good = report.results
    assert bad.error is not None and not bad.ok
    assert good.ok and good.error is None
    assert report.compiled == 1


def test_a_failed_compile_hands_over_its_trace(monkeypatch):
    # The profiling run and the phases before the failure did happen:
    # the batch's trace, profile and metrics show them.
    class FailingDbds:
        def __init__(self, *args):
            pass

        def run(self, graph):
            raise RuntimeError("boom")

    monkeypatch.setattr("repro.pipeline.compiler.DbdsPhase", FailingDbds)
    tracer = Tracer()
    report = compile_batch([("a.mini", ADD)], batch_options(), tracer=tracer)
    (result,) = report.results
    assert result.error == "RuntimeError: boom"
    assert "inlining" in CompileProfile.from_events(tracer.events).phases
    metrics = MetricsSnapshot.from_events(tracer.events)
    assert metrics.counter_value("repro_batch_jobs_total", outcome="error") == 1
    assert metrics.counter_total("repro_profile_runs_total") == 1
    assert metrics.histogram_counts("repro_compile_phase_seconds")


def test_batch_emits_worker_events():
    tracer = Tracer()
    report = compile_batch([("a.mini", ADD)], batch_options(), tracer=tracer)
    assert report.ok
    workers = [e for e in tracer.events if e.name == "batch.worker"]
    assert len(workers) == 1
    assert workers[0].attrs["path"] == "a.mini"
    assert workers[0].attrs["ok"] is True
    assert validate_record(event_to_dict(workers[0])) == []
    metrics = MetricsSnapshot.from_events(tracer.events)
    assert metrics.counter_value("repro_batch_jobs_total", outcome="compiled") == 1


def test_cold_batch_profile_has_phase_spans():
    tracer = Tracer()
    compile_batch([("a.mini", ADD)], batch_options(), tracer=tracer)
    profile = CompileProfile.from_events(tracer.events)
    assert profile.phases, "a cold compile must record optimization phases"
    assert "dbds" in profile.phases


def test_warm_batch_runs_zero_optimization_phase_spans(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    specs = [("a.mini", ADD), ("b.mini", MUL)]

    tracer = Tracer()
    cold = compile_batch(specs, batch_options(cache=cache), tracer=tracer)
    assert cold.ok and cold.compiled == 2 and cold.hits == 0
    assert CompileProfile.from_events(tracer.events).phases

    # A fresh cache object over the same directory: the warm run models
    # a new process finding the previous run's artifacts on disk.
    cache = ArtifactCache(tmp_path / "cache")
    tracer = Tracer()
    warm = compile_batch(specs, batch_options(cache=cache), tracer=tracer)
    assert warm.ok and warm.hits == 2 and warm.compiled == 0
    # The acceptance criterion: a warm-cache rerun executes zero
    # optimization-phase spans: its trace holds the batch span and the
    # cache lookups, nothing else.
    profile = CompileProfile.from_events(tracer.events)
    assert profile.phases == {}
    assert profile.total_time == 0.0
    assert [e.name for e in tracer.events] == ["batch", "cache.hit", "cache.hit"]
    # ... and the artifacts served from cache are the cold ones.
    for before, after in zip(cold.results, warm.results):
        assert after.cached
        assert after.manifest["digest"] == before.manifest["digest"]


def test_warm_batch_entries_keep_their_decision_trace(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    compile_batch([("a.mini", ADD)], batch_options(cache=cache))
    warm = compile_batch([("a.mini", ADD)], batch_options(cache=cache))
    (result,) = warm.results
    # The stored per-file trace survives for offline explainability even
    # though a cache hit adds nothing to the batch's trace.
    assert any(e.name == "dbds.decision" for e in result.events)
    assert result.manifest["decisions"]
    report = format_decisions(decision_units(result.events))
    assert report.count("decision: ") == len(result.manifest["decisions"])


def test_cache_key_respects_batch_args(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    compile_batch([("a.mini", ADD)], batch_options(cache=cache))
    # Different profiling args → different key → recompile, not a hit.
    report = compile_batch([("a.mini", ADD)], batch_options(args=(6,), cache=cache))
    assert report.hits == 0 and report.compiled == 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def write_examples(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.mini").write_text(ADD)
    (src / "b.mini").write_text(MUL)
    return src


def test_cli_batch_json(tmp_path, capsys):
    src = write_examples(tmp_path)
    rc = main(
        [
            "batch", str(src), "-j", "1", "--args", "5",
            "--cache-dir", str(tmp_path / "cache"), "--json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["compiled"] == 2 and payload["hits"] == 0
    assert len(payload["files"]) == 2
    assert set(payload) == {
        "config", "jobs", "elapsed", "ok", "hits", "compiled", "files",
    }


def test_cli_batch_json_with_profile_is_one_document(capsys):
    argv = ["batch", "-j", "1", str(REPO / "examples"), "--args", "4",
            "--no-cache", "--json", "--profile-compile"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["ok"] and payload["compiled"] == 3
    assert captured.err.startswith("compile profile")


def test_cli_batch_warm_rerun_profile_is_empty(tmp_path, capsys):
    src = write_examples(tmp_path)
    cache_dir = str(tmp_path / "cache")
    base = ["batch", str(src), "-j", "1", "--args", "5", "--cache-dir", cache_dir]

    assert main(base + ["--profile-compile", "--cache-stats"]) == 0
    cold = capsys.readouterr()
    assert "compiled" in cold.out
    assert (
        "cache: 0 hit(s), 2 miss(es), 2 store(s), 0 eviction(s) (0% hit rate)"
        in cold.err
    )

    assert main(base + ["--profile-compile", "--cache-stats"]) == 0
    captured = capsys.readouterr()
    warm_out = captured.out
    # Every file served from cache...
    assert warm_out.count("cache\n") + warm_out.count("cache \n") >= 1
    assert "2 from cache, 0 compiled" in warm_out
    # ...with ≥90% hits and an empty compile profile: the acceptance
    # criterion that no optimization phase ran on the warm path.
    assert "100% hit rate" in captured.err
    assert "compile profile (0.00 ms total)" in captured.err
    profile_tail = captured.err.split("compile profile", 1)[1]
    assert "dbds" not in profile_tail
    assert "canonicalize" not in profile_tail


def test_cli_batch_no_cache_flag(tmp_path, capsys):
    src = write_examples(tmp_path)
    args = [
        "batch", str(src), "-j", "1", "--args", "5",
        "--cache-dir", str(tmp_path / "cache"), "--no-cache", "--json",
    ]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["hits"] == 0 and second["hits"] == 0
    assert second["compiled"] == 2
    assert not (tmp_path / "cache").exists()


def test_cli_batch_reports_bad_file(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "bad.mini").write_text(BROKEN)
    (src / "good.mini").write_text(ADD)
    rc = main(["batch", str(src), "-j", "1", "--args", "5", "--no-cache"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "error" in out
    assert "1 compiled" in out


def test_cli_batch_locates_a_syntax_error(tmp_path, capsys):
    path = tmp_path / "bad.mini"
    path.write_text("fn main(n: int) -> int {\n  return n +;\n}\n")
    rc = main(["batch", str(path), "-j", "1", "--args", "5", "--no-cache", "--json"])
    assert rc == 1
    (result,) = json.loads(capsys.readouterr().out)["files"]
    # The same located line every other verb prints.
    assert result["error"] == f"{path}:2:13: expected expression, found ';'"


# ----------------------------------------------------------------------
# One cache key and entry format across verbs
# ----------------------------------------------------------------------
NQUEENS = str(REPO / "examples" / "apps" / "nqueens.mini")


def test_run_and_check_hit_what_batch_stored(tmp_path, capsys):
    common = ["--args", "4", "--cache-dir", str(tmp_path / "cache")]
    assert main(["batch", NQUEENS, "-j", "1", *common]) == 0
    capsys.readouterr()
    assert main(["run", NQUEENS, *common]) == 0
    assert "compiled from   : cache" in capsys.readouterr().err
    check = ["check", NQUEENS, "--check-ir=off", "--cache-stats", *common]
    assert main(check) == 0
    assert "cache: 1 hit(s), 0 miss(es)" in capsys.readouterr().err


def test_batch_serves_what_run_stored(tmp_path, capsys):
    common = ["--args", "4", "--cache-dir", str(tmp_path / "cache")]
    assert main(["run", NQUEENS, *common]) == 0
    capsys.readouterr()
    assert main(["batch", NQUEENS, "-j", "1", *common]) == 0
    assert "1 from cache, 0 compiled" in capsys.readouterr().out


def test_cache_stats_tally_the_verbs_cache_events(tmp_path, capsys):
    # A run looks up and stores the artifact and megaunit's generated
    # source (an aux entry); the warm rerun's trace holds the two hits.
    argv = ["run", NQUEENS, "--args", "4", "--cache-dir", str(tmp_path / "c"),
            "--cache-stats"]
    assert main(argv) == 0
    assert capsys.readouterr().err.endswith(
        "cache: 0 hit(s), 2 miss(es), 2 store(s), 0 eviction(s) (0% hit rate)\n"
    )
    assert main(argv) == 0
    assert capsys.readouterr().err.endswith(
        "cache: 2 hit(s), 0 miss(es), 0 store(s), 0 eviction(s) "
        "(100% hit rate)\n"
    )
