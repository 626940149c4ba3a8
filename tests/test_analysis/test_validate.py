"""The differential oracle and the fuzz loop: real runs plus planted
divergences and crashes."""

from __future__ import annotations

from repro.analysis import fuzz
from repro.analysis.validate import FUZZ_ARGS
from repro.interp.interpreter import ExecutionResult, Interpreter
from repro.obs.tracer import Tracer, use_tracer
from repro.pipeline.config import BASELINE, DUPALOT

from tests.helpers import oracle

SOURCE = """
fn main(n: int) -> int {
  var s: int = 0;
  var i: int = 0;
  while (i < n) {
    if (i % 3 == 0) { s = s + i * 2; } else { s = s - 1; }
    i = i + 1;
  }
  return s;
}
"""


def compile_spans(tracer: Tracer) -> list[str]:
    return [
        event.attrs["config"] for event in tracer.events
        if event.kind == "span" and event.name == "compile"
    ]


def test_validate_translation_agrees_on_real_program():
    tracer = Tracer()
    with use_tracer(tracer):
        assert oracle(SOURCE, [[0], [5], [12]]) == []
    # The dbds and the baseline compile share one profiling run.
    assert compile_spans(tracer) == ["dbds", "baseline"]
    assert sum(event.name == "interp.profile" for event in tracer.events) == 1


def test_validate_translation_accepts_custom_configs():
    assert oracle(SOURCE, [[4]], DUPALOT) == []
    # A baseline program is its own baseline: one compile.
    tracer = Tracer()
    with use_tracer(tracer):
        assert oracle(SOURCE, [[4]], BASELINE) == []
    assert compile_spans(tracer) == ["baseline"]


def test_divergence_is_reported_against_the_reference(monkeypatch):
    # Plant an off-by-one in the baseline's run (the only unmetered
    # interpreter the oracle runs).
    run = Interpreter.run

    def off_by_one(self, function, args):
        result = run(self, function, args)
        if self.metered:
            return result
        return ExecutionResult(
            result.value + 1, result.trap, result.steps, result.cycles
        )

    monkeypatch.setattr(Interpreter, "run", off_by_one)
    problems = oracle(SOURCE, [[3], [5]])
    assert problems == [
        "config-diff: main(3): baseline -> (-1, None, ()) but dbds -> "
        "(-2, None, ())",
        "config-diff: main(5): baseline -> (4, None, ()) but dbds -> "
        "(3, None, ())",
    ]


def check_with_oracle(source: str, name: str) -> int:
    problems = oracle(source, FUZZ_ARGS)
    assert not problems, (name, problems)
    return 0


def test_fuzz_translation_smoke():
    names = []

    def check(source: str, name: str) -> int:
        names.append(name)
        return check_with_oracle(source, name)

    report = fuzz(check, seed=1, programs=3)
    assert report.ok, report.format()
    assert report.programs == 3
    # A generated program at the even seed, mutants at the odd ones
    # (of generated programs: there is no corpus).
    assert names == [
        "fuzz seed 1 [generated[1]: swap-constant, swap-constant]",
        "fuzz seed 2 [generated]",
        "fuzz seed 3 [generated[3]: swap-constant]",
    ]
    assert report.format().startswith("fuzz: ok — 3 programs in ")


def test_fuzz_translation_honours_time_budget():
    report = fuzz(lambda source, name: 0, seed=0, programs=1000, time_budget=0.0)
    assert report.programs == 0


def test_fuzz_translation_records_compile_crashes():
    def broken(source: str, name: str) -> int:
        raise RuntimeError("synthetic compiler crash")

    report = fuzz(broken, seed=7, programs=2)
    assert not report.ok
    (seed, mutant), (next_seed, generated) = report.crashes
    assert (seed, next_seed) == (7, 8)
    # Each crash names the planted raise: the innermost frame.
    raised_at = (
        f"(at {__file__}:{broken.__code__.co_firstlineno + 1} in broken)"
    )
    assert mutant.startswith("[generated[7]: ")
    assert mutant.endswith(
        f"] RuntimeError: synthetic compiler crash {raised_at}"
    )
    assert generated == (
        f"[generated] RuntimeError: synthetic compiler crash {raised_at}"
    )
    assert "seed 7: crash: [generated[7]: " in report.format()
