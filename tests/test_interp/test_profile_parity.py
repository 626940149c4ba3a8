"""Profile parity: the VM profiling run against the reference oracle.

:func:`~repro.interp.profile.profile_program` collects its profile on
the bytecode VM's flat-tuple loop.  Its ``branch_counts`` and
``block_counts`` must be dict-equal to an ``Interpreter(profile=...)``
collector on the same program, a run that traps or exhausts its step
budget must end with identical partial counts and the same outcome,
and the optimized artifacts built from either profile must have
byte-identical manifests under every evaluated configuration.
"""

import json
import pathlib

import pytest

from repro.analysis.progen import random_program
from repro.bench.workloads.suites import ALL_SUITES, generate_suite
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import (
    BudgetExceeded,
    Interpreter,
    ProfileCollector,
)
from repro.interp.profile import apply_profile, profile_program
from repro.obs.tracer import Tracer
from repro.pipeline.cache import artifact_manifest, pack_artifact, unpack_artifact
from repro.pipeline.compiler import Compiler
from repro.pipeline.config import CONFIGURATIONS

ROOT = pathlib.Path(__file__).parent.parent.parent

#: the example apps at the end-to-end benchmark's sizes
APPS = {"nqueens": 8, "wordfreq": 5000, "matrix": 200}

#: configurations whose manifests must not depend on the profiler
MANIFEST_CONFIGS = ("baseline", "dbds", "dupalot")

PROGEN_SEEDS = range(32)
PROGEN_ARGS = [[2], [7]]

OCTANE = {w.name: w for w in generate_suite(ALL_SUITES["octane"], 0)}


def reference_profile(program, entry, arg_sets, collector, max_steps=50_000_000):
    """The profiling run on the reference interpreter (the oracle)."""
    interpreter = Interpreter(program, max_steps=max_steps, profile=collector)
    for args in arg_sets:
        interpreter.reset()
        interpreter.run(entry, list(args))
    return collector


def assert_same_counts(expected: ProfileCollector, actual: ProfileCollector):
    assert actual.block_counts == expected.block_counts
    assert actual.branch_counts == expected.branch_counts


def manifests(blob: bytes) -> dict:
    """Byte-level manifest of the profiled program under every config."""
    out = {}
    for name in MANIFEST_CONFIGS:
        program = unpack_artifact(blob)[0]
        tracer = Tracer()
        report = Compiler(CONFIGURATIONS[name], tracer=tracer).compile_program(
            program
        )
        manifest = artifact_manifest(program, report, tracer.events)
        out[name] = json.dumps(manifest, sort_keys=True)
    return out


def check_parity(source: str, entry: str, arg_sets: list) -> None:
    """Counts on one program object, then manifests from two
    independent parse → profile → compile pipelines."""
    program = compile_source(source)
    expected = reference_profile(program, entry, arg_sets, ProfileCollector())
    assert_same_counts(expected, profile_program(program, entry, arg_sets))
    assert expected.block_counts, "the profiling run recorded nothing"

    apply_profile(program, expected)
    fresh = compile_source(source)
    apply_profile(fresh, profile_program(fresh, entry, arg_sets))
    assert manifests(pack_artifact(fresh)) == manifests(pack_artifact(program))


@pytest.mark.parametrize("name", sorted(APPS))
def test_example_apps(name):
    source = (ROOT / "examples" / "apps" / f"{name}.mini").read_text()
    check_parity(source, "main", [[APPS[name]]])


@pytest.mark.parametrize("name", sorted(OCTANE))
def test_octane_programs(name):
    workload = OCTANE[name]
    check_parity(workload.source, workload.entry, workload.profile_args)


def test_octane_suite_has_fourteen_programs():
    assert len(OCTANE) == 14


@pytest.mark.parametrize("seed", PROGEN_SEEDS)
def test_generated_programs(seed):
    check_parity(random_program(seed), "main", PROGEN_ARGS)


# ----------------------------------------------------------------------
# Runs that trap or exhaust their budget
# ----------------------------------------------------------------------
TRAPPING = """
fn step(k: int) -> int {
  if (k % 3 == 0) { return 100 / (k - 6); }
  return k;
}
fn main(n: int) -> int {
  var acc: int = 0;
  var i: int = 0;
  while (i < n) {
    acc = acc + step(i);
    i = i + 1;
  }
  return acc;
}
"""

CALLS = """
fn leaf(x: int) -> int { return x * 3 + 1; }
fn fib(n: int) -> int {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
fn main(n: int) -> int {
  var acc: int = 0;
  var i: int = 0;
  while (i < n) {
    if (i % 2 == 0) { acc = acc + leaf(i); } else { acc = acc + fib(i % 5); }
    i = i + 1;
  }
  return acc;
}
"""


def test_trapping_run_keeps_identical_partial_counts():
    program = compile_source(TRAPPING)
    arg_sets = [[10], [4]]  # the first run traps at i == 6, the second not
    traps = [Interpreter(program).run("main", args).trap for args in arg_sets]
    assert traps == ["division by zero", None]
    expected = reference_profile(program, "main", arg_sets, ProfileCollector())
    assert_same_counts(expected, profile_program(program, "main", arg_sets))


def _outcome(run) -> tuple:
    collector = ProfileCollector()
    try:
        run(collector)
    except BudgetExceeded as exc:
        return collector, str(exc)
    return collector, None


@pytest.mark.parametrize("source", [CALLS, TRAPPING], ids=["calls", "trap"])
def test_budget_stop_keeps_identical_partial_counts_at_every_cap(source):
    program = compile_source(source)
    arg_sets = [[7], [9]]
    # The budget is per run: caps past the longest run never stop.
    longest = max(Interpreter(program).run("main", a).steps for a in arg_sets)
    stopped = 0
    for cap in range(1, longest + 2):
        expected, ref_stop = _outcome(
            lambda c: reference_profile(program, "main", arg_sets, c, cap)
        )
        actual, vm_stop = _outcome(
            lambda c: profile_program(
                program, "main", arg_sets, max_steps=cap, collector=c
            )
        )
        assert vm_stop == ref_stop, cap
        assert_same_counts(expected, actual)
        stopped += ref_stop is not None
    assert stopped > 0
