"""Profile parity: the VM profiling runs against the reference oracle.

:func:`~repro.interp.profile.profile_program` starts its profile on the
bytecode VM's flat-tuple loop and moves to the counted megaunit module
once the profile passes its switch point.  Whichever engine gathers
it — the ``vm`` loop, the counted megaunit from the first step, or
both with a switch anywhere in between — the ``branch_counts`` and
``block_counts`` must be dict-equal to an ``Interpreter(profile=...)``
collector on the same program, a run that traps or exhausts its step
budget must end with identical partial counts and the same outcome,
and the optimized artifacts built from any of these profiles must have
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
from repro.interp.profile import (
    _profile_runs,
    apply_profile,
    profile_program,
    switch_point,
)
from repro.obs.metrics import MetricsSnapshot
from repro.obs.tracer import Tracer, use_tracer
from repro.pipeline.cache import artifact_manifest, pack_artifact, unpack_artifact
from repro.pipeline.compiler import Compiler
from repro.pipeline.config import CONFIGURATIONS
from repro.vm.translate import translate_program

from tests.helpers import recursion_limit

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


def forced_profile(
    program, entry, arg_sets, max_steps=50_000_000, collector=None,
    switch_at=0,
):
    """:func:`profile_program` with its switch point forced: ``0`` (the
    default) runs every argument set on the counted megaunit."""
    if collector is None:
        collector = ProfileCollector()
    _profile_runs(
        translate_program(program), entry, arg_sets, max_steps,
        collector, switch_at,
    )
    return collector


#: the profiling paths every covered program is checked on
PROFILERS = {"default": profile_program, "counted": forced_profile}


def assert_same_counts(expected: ProfileCollector, actual: ProfileCollector):
    assert actual.block_counts == expected.block_counts
    assert actual.branch_counts == expected.branch_counts


def profile_events(run) -> list[dict]:
    """Call ``run()`` under a recording tracer; the attrs of every
    ``interp.profile`` event it emitted."""
    tracer = Tracer()
    with use_tracer(tracer):
        run()
    return [e.attrs for e in tracer.events if e.name == "interp.profile"]


def manifests(blob: bytes) -> dict:
    """Byte-level manifest of the profiled program under every config."""
    out = {}
    for name in MANIFEST_CONFIGS:
        program = unpack_artifact(blob)
        tracer = Tracer()
        report = Compiler(CONFIGURATIONS[name], tracer=tracer).compile_program(
            program
        )
        manifest = artifact_manifest(program, report, tracer.events)
        out[name] = json.dumps(manifest, sort_keys=True)
    return out


def check_parity(source: str, entry: str, arg_sets: list) -> None:
    """Counts on one program object, then manifests from independent
    parse → profile → compile pipelines, for every profiling path."""
    program = compile_source(source)
    expected = reference_profile(program, entry, arg_sets, ProfileCollector())
    assert expected.block_counts, "the profiling run recorded nothing"
    for name, profile in PROFILERS.items():
        actual = profile(program, entry, arg_sets)
        assert actual.block_counts == expected.block_counts, name
        assert actual.branch_counts == expected.branch_counts, name

    apply_profile(program, expected)
    reference = manifests(pack_artifact(program))
    for name, profile in PROFILERS.items():
        fresh = compile_source(source)
        apply_profile(fresh, profile(fresh, entry, arg_sets))
        assert manifests(pack_artifact(fresh)) == reference, name


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
    for profile in PROFILERS.values():
        assert_same_counts(expected, profile(program, "main", arg_sets))


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
        for name, profile in PROFILERS.items():
            actual, vm_stop = _outcome(
                lambda c: profile(
                    program, "main", arg_sets, max_steps=cap, collector=c
                )
            )
            assert vm_stop == ref_stop, (name, cap)
            assert_same_counts(expected, actual)
        stopped += ref_stop is not None
    assert stopped > 0


# ----------------------------------------------------------------------
# The switch from the vm loop to the counted megaunit
# ----------------------------------------------------------------------
def _total_steps(program, arg_sets) -> list[int]:
    return [Interpreter(program).run("main", a).steps for a in arg_sets]


@pytest.mark.parametrize("source", [CALLS, TRAPPING], ids=["calls", "trap"])
def test_counts_are_identical_at_every_switch_point(source):
    # Three argument sets; the switch lands before, inside and after
    # each of them in turn (past the total, it never happens).
    program = compile_source(source)
    arg_sets = [[10], [4], [9]]
    expected = reference_profile(program, "main", arg_sets, ProfileCollector())
    total = sum(_total_steps(program, arg_sets))
    for switch_at in range(total + 2):
        events = profile_events(
            lambda: assert_same_counts(
                expected,
                forced_profile(program, "main", arg_sets, switch_at=switch_at),
            )
        )
        switched = switch_at < total
        assert events == [
            {
                "engine": "megaunit" if switched else "vm",
                "steps": total,
                "switch_step": switch_at if switched else None,
            }
        ], switch_at


def test_switch_mid_run():
    program = compile_source(CALLS)
    (steps,) = _total_steps(program, [[12]])
    expected = reference_profile(program, "main", [[12]], ProfileCollector())
    events = profile_events(
        lambda: assert_same_counts(
            expected,
            forced_profile(program, "main", [[12]], switch_at=steps // 2),
        )
    )
    assert events == [
        {"engine": "megaunit", "steps": steps, "switch_step": steps // 2}
    ]


def test_trap_before_and_after_the_switch_point():
    program = compile_source(TRAPPING)
    arg_sets = [[10], [4], [10]]  # runs 1 and 3 trap
    first, second, _third = _total_steps(program, arg_sets)
    expected = reference_profile(program, "main", arg_sets, ProfileCollector())
    # The first trap completes on the vm loop, the second runs on the
    # counted megaunit; then the trapping run is the one that crosses.
    for switch_at in (first + second // 2, first // 2):
        assert_same_counts(
            expected,
            forced_profile(program, "main", arg_sets, switch_at=switch_at),
        )


def test_second_argument_set_crosses_the_switch_point():
    program = compile_source(CALLS)
    arg_sets = [[6], [14], [3]]
    first, second, third = _total_steps(program, arg_sets)
    expected = reference_profile(program, "main", arg_sets, ProfileCollector())
    switch_at = first + second // 3
    events = profile_events(
        lambda: assert_same_counts(
            expected,
            forced_profile(program, "main", arg_sets, switch_at=switch_at),
        )
    )
    # The dropped part of the crossing run is not counted twice.
    assert events == [
        {
            "engine": "megaunit",
            "steps": first + second + third,
            "switch_step": switch_at,
        }
    ]


def test_real_max_steps_below_the_switch_point_stops_on_the_vm_loop():
    program = compile_source(CALLS)
    (steps,) = _total_steps(program, [[12]])
    cap = steps // 2
    expected, ref_stop = _outcome(
        lambda c: reference_profile(program, "main", [[12]], c, cap)
    )
    assert ref_stop is not None
    switch_at = switch_point(translate_program(program), "main")
    assert cap < switch_at
    outcome = {}
    events = profile_events(
        lambda: outcome.update(
            zip(
                ("counts", "stop"),
                _outcome(
                    lambda c: profile_program(
                        program, "main", [[12]], max_steps=cap, collector=c
                    )
                ),
            )
        )
    )
    assert outcome["stop"] == ref_stop
    assert_same_counts(expected, outcome["counts"])
    assert events == [{"engine": "vm", "steps": cap + 1, "switch_step": None}]


def test_without_recursion_headroom_it_profiles_on_the_vm_loop():
    program = compile_source(CALLS)
    expected = reference_profile(program, "main", [[12]], ProfileCollector())
    tracer = Tracer()
    # Room for the vm loop's modest depth, not for megaunit's worst case
    # (MAX_CALL_DEPTH native frames plus slack).
    with recursion_limit(150), use_tracer(tracer):
        actual = forced_profile(program, "main", [[12]])
    assert_same_counts(expected, actual)
    by_name = {e.name: e.attrs for e in tracer.events}
    assert by_name["vm.fallback"] == {
        "engine": "megaunit", "fallback": "vm", "reason": "recursion-headroom",
    }
    assert by_name["interp.profile"]["engine"] == "vm"


@pytest.mark.parametrize(
    "name, engine", [("nqueens", "megaunit"), ("wordfreq", "megaunit"),
                     ("matrix", "vm")],
)
def test_example_apps_profile_on_the_engine_the_switch_rule_picks(name, engine):
    program = compile_source(
        (ROOT / "examples" / "apps" / f"{name}.mini").read_text()
    )
    tracer = Tracer()
    with use_tracer(tracer):
        profile_program(program, "main", [[APPS[name]]])
    (event,) = [e.attrs for e in tracer.events if e.name == "interp.profile"]
    assert event["engine"] == engine
    assert (event["switch_step"] is not None) == (engine == "megaunit")
    assert MetricsSnapshot.from_events(tracer.events).counter_value(
        "repro_profile_runs_total", engine=engine
    ) == 1


def test_octane_programs_all_stay_on_the_vm_loop():
    for workload in OCTANE.values():
        program = compile_source(workload.source)
        (event,) = profile_events(
            lambda: profile_program(
                program, workload.entry, workload.profile_args
            )
        )
        assert event["engine"] == "vm", workload.name
