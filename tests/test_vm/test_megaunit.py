"""The megaunit engine: whole-program exec-unit exactness.

``MegaunitVirtualMachine`` compiles the run's entry and its whole call
graph into one generated Python module — registers as locals, threaded
intra-function dispatch, ``OP_CALL`` as a direct Python call — so every
observable (values, traps, step/cycle accounting, budget stops mid-call
and mid-segment, globals, reset) must match the reference interpreter
bit-for-bit, and insufficient recursion headroom must fall back
transparently with a ``vm.fallback`` event.  A measured run executes the
plain, metered module; a profiling run executes the counted one, which
meters no cycles.
"""

import ast
import hashlib
import re

import pytest

import repro.vm.megaunit as megaunit_module
from repro.analysis.bcverify import lint_megaunit_source, verify_bytecode
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import (
    BudgetExceeded,
    Interpreter,
    ProfileCollector,
    observable_outcome,
)
from repro.obs.metrics import MetricsSnapshot
from repro.obs.tracer import Tracer, use_tracer
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.front import make_engine
from repro.pipeline.config import DBDS
from repro.interp.profile import profile_program
from repro.ir.ops import MAX_CALL_DEPTH, MAX_STEPS
from repro.vm import MegaunitVirtualMachine, translate_program
from repro.vm.bytecode import OP_CALL, BytecodeProgram
from repro.vm.machine import VirtualMachine
from repro.vm.megaunit import (
    generate_module_source,
    meter_width,
    stack_headroom_ok,
    unit_functions,
)

from tests.helpers import recursion_limit

APPS = {
    "nqueens": ("examples/apps/nqueens.mini", [6]),
    "wordfreq": ("examples/apps/wordfreq.mini", [120]),
    "matrix": ("examples/apps/matrix.mini", [8]),
}

#: call-heavy program: budget stops land mid-call, at call boundaries
#: and inside callees at various depths
CALLS = """
fn leaf(x: int) -> int { return x * 3 + 1; }
fn mid(x: int) -> int { return leaf(x) + leaf(x + 1); }
fn fib(n: int) -> int {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
fn main(n: int) -> int {
  var acc: int = 0;
  var i: int = 0;
  while (i < n) {
    acc = acc + mid(i) + fib(i % 7);
    i = i + 1;
  }
  return acc;
}
"""

LOOP = """
fn main(n: int) -> int {
  var h: int = 99;
  var i: int = 0;
  while (i < n) {
    h = (h * 31 + i) % 100003;
    i = i + 1;
  }
  return h;
}
"""

DEEP = """
fn down(n: int, acc: int) -> int {
  if (n <= 0) { return acc; }
  return down(n - 1, acc + n);
}
fn main(x: int) -> int { return down(x, 0); }
"""


def engines_for(source: str, profiled: bool = False, **kwargs):
    """The reference and megaunit on ``source``, both measuring (metered)
    or, with ``profiled``, both profiling into a collector of their own
    (unmetered)."""
    program = compile_source(source)
    reference = Interpreter(
        program,
        profile=ProfileCollector() if profiled else None,
        metered=not profiled,
        **kwargs,
    )
    megaunit = MegaunitVirtualMachine(
        translate_program(program),
        profile=ProfileCollector() if profiled else None,
        **kwargs,
    )
    return reference, megaunit


def assert_same_counts(reference, megaunit):
    assert reference.profile.block_counts == megaunit.profile.block_counts
    assert reference.profile.branch_counts == megaunit.profile.branch_counts


def assert_parity(reference, megaunit, args, entry="main"):
    ref = reference.run(entry, list(args))
    out = megaunit.run(entry, list(args))
    assert observable_outcome(ref, reference.state) == observable_outcome(
        out, megaunit.state
    )
    assert (ref.steps, ref.cycles) == (out.steps, out.cycles)
    return ref, out


# ----------------------------------------------------------------------
# Values, steps, cycles, traps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(APPS))
def test_apps_value_step_cycle_parity(name):
    path, args = APPS[name]
    reference, megaunit = engines_for(open(path).read())
    assert_parity(reference, megaunit, args)


def test_call_heavy_parity_and_unmetered():
    reference, megaunit = engines_for(CALLS)
    assert_parity(reference, megaunit, [9])
    reference, megaunit = engines_for(CALLS, profiled=True)
    ref = reference.run("main", [9])
    out = megaunit.run("main", [9])
    assert (ref.value, ref.steps) == (out.value, out.steps)
    assert out.cycles == 0.0
    assert_same_counts(reference, megaunit)


def test_optimized_program_runs_through_make_engine():
    # The DBDS-optimized program, translated once and handed to
    # make_engine as a cache hit would be, agrees with the reference.
    program, _ = compile_and_profile(CALLS, "main", [[6]], DBDS)
    bytecode = translate_program(program)
    reference = make_engine("reference", program)
    megaunit = make_engine("megaunit", program, bytecode=bytecode)
    assert_parity(reference, megaunit, [9])


@pytest.mark.parametrize(
    "source, label",
    [
        ("fn main(x: int) -> int { return 1 / x; }", "division by zero"),
        (
            """
            fn f(x: int) -> int { return 10 % x; }
            fn main(x: int) -> int { return f(x); }
            """,
            "modulo by zero",
        ),
    ],
    ids=["div", "mod-in-callee"],
)
def test_trap_messages_and_accounting(source, label):
    reference, megaunit = engines_for(source)
    ref = reference.run("main", [0])
    out = megaunit.run("main", [0])
    assert ref.trap == out.trap and label in out.trap
    assert (ref.steps, ref.cycles) == (out.steps, out.cycles)


def test_mid_block_trap_flushes_partial_segment():
    # The trap site is preceded by several straight-line instructions
    # in the same segment; the flushed steps/cycles must include the
    # executed prefix only.
    source = """
    fn main(x: int) -> int {
      var a: int = x + 1;
      var b: int = a * 3;
      var c: int = b - x;
      return c / x;
    }
    """
    reference, megaunit = engines_for(source)
    ref = reference.run("main", [0])
    out = megaunit.run("main", [0])
    assert ref.trap == out.trap
    assert (ref.steps, ref.cycles) == (out.steps, out.cycles)


def test_stack_overflow_trap_parity():
    deep = "fn main(x: int) -> int { return main(x + 1); }"
    reference, megaunit = engines_for(deep)
    ref = reference.run("main", [0])
    out = megaunit.run("main", [0])
    assert ref.trap == out.trap == "stack overflow"
    assert ref.steps == out.steps


# ----------------------------------------------------------------------
# Budget stops: mid-segment, mid-call and at call boundaries
# ----------------------------------------------------------------------
#: "plain" is the unmetered row: a profiling run on the counted module,
#: whose partial counts at the stop must match the reference's too
@pytest.mark.parametrize("profiled", [True, False], ids=["plain", "metered"])
def test_budget_stop_exact_at_every_cap(profiled):
    program = compile_source(CALLS)
    bytecode = translate_program(program)
    total = MegaunitVirtualMachine(bytecode).run("main", [5]).steps
    for cap in range(1, total + 2):
        reference = Interpreter(
            program,
            max_steps=cap,
            profile=ProfileCollector() if profiled else None,
            metered=not profiled,
        )
        megaunit = MegaunitVirtualMachine(
            bytecode, max_steps=cap,
            profile=ProfileCollector() if profiled else None,
        )
        ref_msg = mu_msg = None
        try:
            reference.run("main", [5])
        except BudgetExceeded as exc:
            ref_msg = str(exc)
        try:
            megaunit.run("main", [5])
        except BudgetExceeded as exc:
            mu_msg = str(exc)
        assert ref_msg == mu_msg
        assert reference.state.steps == megaunit.state.steps
        assert reference.state.cycles == megaunit.state.cycles
        if profiled:
            assert_same_counts(reference, megaunit)


#: stores to arrays, fields and globals between the guards: a budget
#: exit that handed its replay a wrong register would store a wrong
#: value (or trap on a template ``None``) before the stop
HEAP = """
class P { x: int; y: int; }
global total: int;
global last: int;
fn main(n: int) -> int {
  var a: int[] = new int[8];
  var p: P = new P { y = n };
  var i: int = 0;
  while (i < n) {
    a[i % 8] = a[i % 8] + i * 3;
    p.x = p.x + a[i % 8] / (p.y - i);
    total = total + p.x - i;
    last = a[(i + 1) % 8] + p.y;
    i = i + 1;
  }
  return total + last;
}
"""


def test_budget_stop_keeps_heap_and_globals_at_every_cap():
    program = compile_source(HEAP)
    bytecode = translate_program(program)
    total = MegaunitVirtualMachine(bytecode).run("main", [6]).steps
    for cap in range(1, total + 2):
        reference = Interpreter(program, max_steps=cap, metered=True)
        megaunit = MegaunitVirtualMachine(bytecode, max_steps=cap)
        outcomes = []
        for runner in (reference, megaunit):
            try:
                result = runner.run("main", [6])
                outcomes.append((result.value, result.trap))
            except BudgetExceeded as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], cap
        assert (reference.state.steps, reference.state.cycles) == (
            megaunit.state.steps, megaunit.state.cycles
        )
        assert reference.state.globals == megaunit.state.globals, cap


#: six 10-cycle stores per 10-step iteration: a run averages well over
#: half the unit's largest cost, so its cycles fill the packed meter's
#: field nearly as far as max_steps times that cost reaches
STORES = """
fn main(n: int) -> int {
  var a: int[] = new int[6];
  var i: int = 0;
  while (i < n) {
    a[0] = i; a[1] = i; a[2] = i; a[3] = i; a[4] = i; a[5] = i;
    i = i + 1;
  }
  return a[5];
}
"""


def _run_or_stop(runner, args):
    """``(value, trap)`` of a run, or the message of its budget stop."""
    try:
        result = runner.run("main", args)
    except BudgetExceeded as exc:
        return str(exc)
    return (result.value, result.trap)


def test_packed_meter_stays_exact_where_its_field_is_nearly_full():
    # Caps 102 and 204 put max_steps times the largest cost (10) just
    # under a power of two (1020 < 1024, 2040 < 2048); every cap runs
    # twice on one machine, the second entry carrying the first's
    # steps and cycles in, and must match the reference throughout.
    program = compile_source(STORES)
    bytecode = translate_program(program)
    assert max(ins[1] for ins in bytecode.functions["main"].code) == 10
    total = MegaunitVirtualMachine(bytecode).run("main", [25]).steps
    assert total > 204
    for cap in range(1, 2 * total + 2):
        reference = Interpreter(program, max_steps=cap, metered=True)
        megaunit = MegaunitVirtualMachine(bytecode, max_steps=cap)
        for _entry in range(2):
            assert _run_or_stop(reference, [25]) == _run_or_stop(
                megaunit, [25]
            ), cap
            assert (reference.state.steps, reference.state.cycles) == (
                megaunit.state.steps, megaunit.state.cycles
            ), cap
        assert not megaunit.fallbacks, cap
    # The boundary is exercised: at cap 204 the first run stops past
    # 2**10 cycles, which a field two bits narrower could not hold.
    width = meter_width(unit_functions(bytecode), 204)
    assert width == (204 * 10).bit_length() + 1 == 12
    megaunit = MegaunitVirtualMachine(bytecode, max_steps=204)
    with pytest.raises(BudgetExceeded):
        megaunit.run("main", [25])
    assert megaunit.state.cycles > 2 ** (width - 2)


@pytest.mark.parametrize(
    "cycles", [2.0 ** 40, None, 0.5, -1.0],
    ids=["huge", "field-top", "fractional", "negative"],
)
def test_a_carried_in_meter_the_field_cannot_hold_falls_back(cycles):
    # Set by hand: cycles past what the field holds (None: its very
    # top, 2**K - 1), or no integer total at all.  The run must stay
    # exact, on the vm loop, and say why.
    program = compile_source(STORES)
    bytecode = translate_program(program)
    width = meter_width(unit_functions(bytecode), MAX_STEPS)
    if cycles is None:
        cycles = float((1 << width) - 1)
    reference = Interpreter(program, metered=True)
    megaunit = MegaunitVirtualMachine(bytecode)
    reference.state.cycles = megaunit.state.cycles = cycles
    tracer = Tracer()
    with use_tracer(tracer):
        assert_parity(reference, megaunit, [25])
    assert megaunit.fallbacks == {"meter-width"}
    reasons = [
        event.attrs["reason"]
        for event in tracer.events
        if event.name == "vm.fallback"
    ]
    assert reasons == ["meter-width"]


@pytest.mark.parametrize("profiled", [False, True], ids=["plain", "counted"])
def test_cycles_stay_a_float_on_every_exit(profiled):
    # The packed meter is an int; the cycles a run reports are the
    # float every other engine reports, whichever way it leaves, and
    # carried-in cycles come back (a counted run adds none to them).
    cases = (
        ("return", CALLS, {}),
        ("trap", "fn main(x: int) -> int { return 1 / (x - 5); }", {}),
        ("budget", CALLS, {"max_steps": 40}),
    )
    for kind, source, limits in cases:
        reference, megaunit = engines_for(source, profiled=profiled, **limits)
        for runner in (reference, megaunit):
            runner.state.cycles = 7.0
            try:
                result = runner.run("main", [5])
            except BudgetExceeded:
                assert kind == "budget"
            else:
                assert kind == ("trap" if result.trap else "return")
                assert type(result.cycles) is float
        assert type(megaunit.state.cycles) is float
        assert (reference.state.steps, reference.state.cycles) == (
            megaunit.state.steps, megaunit.state.cycles
        )
        assert (megaunit.state.cycles == 7.0) == profiled
        assert not megaunit.fallbacks


def test_non_integer_costs_run_on_the_vm_loop():
    # A custom cost model may bake fractional cycles, which the packed
    # meter cannot hold: such a unit runs on the vm loop instead.
    bytecode = translate_program(compile_source(CALLS))
    fn = bytecode.functions["leaf"]
    fn.code = ((fn.code[0][0], 1.5) + fn.code[0][2:],) + fn.code[1:]
    with pytest.raises(ValueError):
        generate_module_source(bytecode)
    megaunit = MegaunitVirtualMachine(bytecode)
    out = megaunit.run("main", [9])
    ref = VirtualMachine(bytecode).run("main", [9])
    assert (out.value, out.steps, out.cycles) == (
        ref.value, ref.steps, ref.cycles
    )
    assert megaunit.fallbacks == {"non-integer-costs"}
    # The counted module meters no cycles, so it still compiles.
    assert generate_module_source(bytecode, counted=True)


def test_changing_max_steps_recompiles_module():
    program = compile_source(LOOP)
    megaunit = MegaunitVirtualMachine(translate_program(program), max_steps=50)
    with pytest.raises(BudgetExceeded):
        megaunit.run("main", [1000])
    megaunit.reset()
    megaunit.max_steps = 50_000_000
    assert megaunit.run("main", [10]).value is not None


# ----------------------------------------------------------------------
# Globals, reset
# ----------------------------------------------------------------------
def test_globals_and_reset():
    source = """
    global total: int;
    fn bump(v: int) -> int { total = total + v; return total; }
    fn main(x: int) -> int { bump(x); bump(x); return total; }
    """
    reference, megaunit = engines_for(source)
    assert megaunit.run("main", [5]).value == reference.run("main", [5]).value
    megaunit.reset()
    reference.reset()
    assert megaunit.run("main", [3]).value == reference.run("main", [3]).value


# ----------------------------------------------------------------------
# Fallbacks
# ----------------------------------------------------------------------
def test_recursion_headroom_falls_back_to_vm():
    # A recursion limit too low for MAX_CALL_DEPTH native frames: the
    # conservative up-front guard must decline the native path, run the
    # whole activation on the vm loop, and still be bit-identical (the
    # run's actual depth is modest).
    program = compile_source(DEEP)
    reference = Interpreter(program, metered=True)
    megaunit = MegaunitVirtualMachine(translate_program(program))
    tracer = Tracer()
    with recursion_limit(MAX_CALL_DEPTH), use_tracer(tracer):
        assert not stack_headroom_ok(1)
        assert_parity(reference, megaunit, [40])
        # A second run notes nothing: once per machine, not per frame.
        megaunit.reset()
        megaunit.run("main", [10])
    events = [e for e in tracer.events if e.name == "vm.fallback"]
    assert len(events) == 1
    assert events[0].attrs == {
        "engine": "megaunit",
        "fallback": "vm",
        "reason": "recursion-headroom",
    }
    assert MetricsSnapshot.from_events(tracer.events).counter_value(
        "repro_vm_fallback_total", engine="megaunit",
        reason="recursion-headroom",
    ) == 1


def test_profile_hook_falls_back_to_machine_loops():
    # A profiled run no longer falls back: it executes the counted
    # module, whose folded counts are the machine loop's hook calls.
    program = compile_source(CALLS)
    ref_profile, mu_profile = ProfileCollector(), ProfileCollector()
    Interpreter(program, profile=ref_profile).run("main", [6])
    megaunit = MegaunitVirtualMachine(
        translate_program(program), profile=mu_profile
    )
    megaunit.run("main", [6])
    assert ref_profile.block_counts == mu_profile.block_counts
    assert ref_profile.branch_counts == mu_profile.branch_counts
    module = megaunit._module()
    assert module.counts is not None and not megaunit.fallbacks
    assert not any(module.counts), "every count was folded"


@pytest.mark.parametrize("attached", [False, True], ids=["plain", "metered"])
def test_counted_run_keeps_value_step_cycle_parity(attached):
    # "metered": the machine first measures, then gets its collector
    # attached the way the profiling runner attaches one before each
    # run, and must stop metering and run the counted module.
    reference, megaunit = engines_for(CALLS, profiled=True)
    if attached:
        collector, megaunit.profile = megaunit.profile, None
        assert megaunit.metered
        assert_parity(engines_for(CALLS)[0], megaunit, [5])
        assert megaunit._module().counts is None
        megaunit.profile = collector
    assert not megaunit.metered
    for args in ([5], [9]):
        reference.reset()
        megaunit.reset()
        assert_parity(reference, megaunit, args)
    assert megaunit._module().counts is not None
    assert_same_counts(reference, megaunit)


def _at_width_zero(lines: list[str], width: int) -> list[str]:
    """``lines`` with every packed meter literal re-encoded at ``K =
    0`` with no cycle term: a charge, trap flush or call-site writeback
    keeps its step field, a guard its step bound, and a call-cost
    reload ``e = m[0] + C`` drops its cost."""
    kept = []
    for line in lines:
        packed = re.fullmatch(
            r"(\s*(?:e \+= |m\[0\] = e \+ |if e > ))(-?\d+)(:?)", line
        )
        if packed:
            head, literal, colon = packed.groups()
            line = f"{head}{int(literal) >> width}{colon}"
        kept.append(re.sub(r"^(\s*e = m\[0\]) \+ \d+$", r"\1", line))
    return kept


def test_counted_module_only_differs_by_its_counters():
    # The counted module is the same codegen at K = 0 with no cycle
    # term, plus its counters: a profiling run meters steps only.
    bytecode = translate_program(compile_source(CALLS))
    plain = generate_module_source(bytecode)
    counted = generate_module_source(bytecode, counted=True)
    assert "_counts" not in plain
    bumps = [line for line in counted.splitlines() if "_counts[" in line]
    assert all(line.strip().endswith("] += 1") for line in bumps)
    stripped = [
        line for line in counted.splitlines() if "_counts[" not in line
    ]
    width = meter_width(unit_functions(bytecode), MAX_STEPS)
    assert width > 0
    assert stripped == _at_width_zero(plain.splitlines(), width)
    assert stripped != plain.splitlines()


def test_the_profiling_run_executes_the_verified_counted_module(monkeypatch):
    # verify_bytecode lints (and SOURCE_DIGESTS pins) the text
    # generate_module_source(..., counted=True) returns; it must be the
    # very module a profiling run that moves to megaunit compiles.
    compiled = []
    original = megaunit_module.compile_module

    def capture(bytecode, *args, **kwargs):
        module = original(bytecode, *args, **kwargs)
        compiled.append((bytecode, module))
        return module

    monkeypatch.setattr(megaunit_module, "compile_module", capture)
    program = compile_source(open(APPS["nqueens"][0]).read())
    profile_program(program, "main", [[8]])
    assert len(compiled) == 1
    bytecode, module = compiled[0]
    assert module.counts is not None
    assert module.source == generate_module_source(bytecode, counted=True)


def test_counted_module_never_enters_the_codegen_cache(tmp_path):
    program = compile_source(CALLS)
    cache = ArtifactCache(tmp_path / "cache")
    collector = ProfileCollector()
    tracer = Tracer()
    with use_tracer(tracer):
        MegaunitVirtualMachine(
            translate_program(program), profile=collector, codegen_cache=cache
        ).run("main", [6])
    assert collector.block_counts
    assert not [e for e in tracer.events if e.name.startswith("cache.")]
    assert not (tmp_path / "cache").exists()


# ----------------------------------------------------------------------
# Generated source: shape, lint, verifier integration
# ----------------------------------------------------------------------
def test_module_source_is_real_python_and_lints_clean():
    program, _ = compile_and_profile(CALLS, "main", [[6]], DBDS)
    bytecode = translate_program(program)
    for counted in (False, True):
        source = generate_module_source(bytecode, counted=counted)
        compile(source, "<megaunit-test>", "exec")  # must parse
        assert "def _mu0(vm, m" in source
        assert lint_megaunit_source(bytecode, counted=counted) == []


def test_verify_bytecode_runs_the_megaunit_lint():
    program, _ = compile_and_profile(CALLS, "main", [[6]], DBDS)
    bytecode = translate_program(program)
    report = verify_bytecode(bytecode)
    assert report.ok, report.format()


def _segments_and_calls(bytecode) -> tuple[int, int]:
    """Maximal call-free runs and call sites over every block."""
    segments = calls = 0
    for fn in bytecode.functions.values():
        for start, count, _name in fn.blocks:
            in_segment = False
            for ins in fn.code[start:start + count]:
                if ins[0] == OP_CALL:
                    calls += 1
                    in_segment = False
                elif not in_segment:
                    segments += 1
                    in_segment = True
    return segments, calls


@pytest.mark.parametrize("counted", [False, True], ids=["plain", "counted"])
def test_one_packed_meter_in_the_generated_code(counted):
    # One local meter e, charged once and guarded once per segment (a
    # call site has its own guard); nothing writes state's meters.
    program, _ = compile_and_profile(CALLS, "main", [[6]], DBDS)
    bytecode = translate_program(program)
    tree = ast.parse(generate_module_source(bytecode, counted=counted))
    stored = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    assert "e" in stored and not stored & {"s", "c"}
    assert not [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("steps", "cycles")
    ]
    charges = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Name) and node.target.id == "e"
    ]
    guards = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name) and node.test.left.id == "e"
    ]
    assert all(
        isinstance(node.op, ast.Add) and isinstance(node.value, ast.Constant)
        for node in charges
    )
    assert all(
        isinstance(node.test.ops[0], ast.Gt)
        and isinstance(node.test.comparators[0], ast.Constant)
        for node in guards
    )
    segments, calls = _segments_and_calls(bytecode)
    assert calls
    assert (len(charges), len(guards)) == (segments, segments + calls)


def test_straight_line_function_has_no_dispatch_loop():
    source = "fn main(x: int) -> int { return x * 2 + 1; }"
    bytecode = translate_program(compile_source(source))
    text = generate_module_source(bytecode)
    assert "while True" not in text and "_L" not in text


# ----------------------------------------------------------------------
# Codegen cache
# ----------------------------------------------------------------------
def test_codegen_cache_round_trip(tmp_path):
    program = compile_source(CALLS)
    bytecode = translate_program(program)
    cache = ArtifactCache(tmp_path / "cache")
    tracer = Tracer()
    with use_tracer(tracer):
        cold = MegaunitVirtualMachine(bytecode, codegen_cache=cache)
        cold_result = cold.run("main", [8])
    snap = MetricsSnapshot.from_events(tracer.events)
    assert snap.counter_value(
        "repro_codegen_cache_total", result="miss", engine="megaunit"
    ) == 1
    with use_tracer(tracer):
        warm = MegaunitVirtualMachine(bytecode, codegen_cache=cache)
        warm_result = warm.run("main", [8])
    snap = MetricsSnapshot.from_events(tracer.events)
    assert snap.counter_value(
        "repro_codegen_cache_total", result="hit", engine="megaunit"
    ) == 1
    assert (cold_result.value, cold_result.steps, cold_result.cycles) == (
        warm_result.value, warm_result.steps, warm_result.cycles
    )
    # The exec'd-from-cache module carries the same source text.
    assert warm._module().source == cold._module().source


def test_older_codegen_schema_entries_are_ignored_and_regenerated(
    tmp_path, monkeypatch
):
    # Cached text is keyed by the bytecode, not by the codegen, so text
    # from an older codegen must never be exec'd: schema-1 text calls
    # _finish with the whole register file, schema-2 text calls
    # _is_ref, which the exec namespace no longer holds.  The stale
    # text below is schema-2 shaped and raises NameError once it runs.
    from repro.vm import codegen_cache

    current = codegen_cache.CODEGEN_SCHEMA
    assert current >= 3
    program = compile_source(CALLS)
    bytecode = translate_program(program)
    order = list(bytecode.functions.values())
    stale = {
        "engine": "megaunit",
        "functions": [fn.name for fn in order],
        "source": "".join(
            f"def _mu{i}(vm, m, *regs):\n    return _is_ref(regs[0])\n"
            for i in range(len(order))
        ),
    }
    key = codegen_cache.codegen_key(order, 50_000_000)
    for old in range(1, current):
        cache = ArtifactCache(tmp_path / f"cache-{old}")
        # Under its own (older) key: never looked up by a current run.
        with monkeypatch.context() as patch:
            patch.setattr(codegen_cache, "CODEGEN_SCHEMA", old)
            old_key = codegen_cache.codegen_key(order, 50_000_000)
            codegen_cache.store_source(cache, old_key, stale)
        assert old_key != key
        # Under the current key (a stale or tampered entry): rejected on
        # load.
        cache.put_aux(key, dict(stale, schema=old))
        tracer = Tracer()
        with use_tracer(tracer):
            megaunit = MegaunitVirtualMachine(bytecode, codegen_cache=cache)
            reference, _ = engines_for(CALLS)
            assert_parity(reference, megaunit, [8])
        snap = MetricsSnapshot.from_events(tracer.events)
        assert snap.counter_value(
            "repro_codegen_cache_total", result="miss", engine="megaunit"
        ) == 1
        # The miss regenerated the unit and overwrote the stale entry.
        payload = cache.get_aux(key)
        assert payload["schema"] == current
        assert payload["source"] == megaunit._module().source
        assert cache.get_aux(old_key)["schema"] == old  # never used


def test_codegen_cache_key_tracks_baked_knobs(tmp_path):
    # Different max_steps bake different budget guards: the warm run
    # must miss rather than execute a stale unit.
    program = compile_source(LOOP)
    bytecode = translate_program(program)
    cache = ArtifactCache(tmp_path / "cache")
    tracer = Tracer()
    with use_tracer(tracer):
        MegaunitVirtualMachine(
            bytecode, codegen_cache=cache, max_steps=1000
        ).run("main", [5])
        MegaunitVirtualMachine(
            bytecode, codegen_cache=cache, max_steps=2000
        ).run("main", [5])
    snap = MetricsSnapshot.from_events(tracer.events)
    assert snap.counter_value(
        "repro_codegen_cache_total", result="miss", engine="megaunit"
    ) == 2
    assert snap.counter_value(
        "repro_codegen_cache_total", result="hit", engine="megaunit"
    ) == 0


# ----------------------------------------------------------------------
# Units built from the entry's call graph
# ----------------------------------------------------------------------
#: two entries sharing a callee, and a function neither of them calls
TWO_ENTRIES = """
fn leaf(x: int) -> int { return x * 3 + 1; }
fn unused(x: int) -> int { return x - 7; }
fn first(n: int) -> int { return leaf(n) + 1; }
fn second(n: int) -> int {
  var acc: int = 0;
  var i: int = 0;
  while (i < n) { acc = acc + leaf(i); i = i + 1; }
  return acc;
}
"""


def test_a_function_never_called_is_absent_from_the_unit():
    bytecode = translate_program(compile_source(TWO_ENTRIES))
    assert [fn.name for fn in unit_functions(bytecode, ["first"])] == [
        "leaf", "first",
    ]
    assert [fn.name for fn in unit_functions(bytecode, None)] == [
        "leaf", "unused", "first", "second",
    ]
    source = generate_module_source(bytecode, roots=["second"])
    assert len(re.findall(r"^def _mu", source, re.M)) == 2
    megaunit = MegaunitVirtualMachine(bytecode)
    megaunit.run("second", [4])
    assert megaunit._module().order == ["leaf", "second"]


def test_two_entries_on_one_machine_match_the_reference():
    reference, megaunit = engines_for(TWO_ENTRIES)
    for entry, args in (("first", [5]), ("second", [9]), ("first", [-3])):
        reference.reset()
        megaunit.reset()
        assert_parity(reference, megaunit, args, entry=entry)
        assert megaunit._module().order[-1] == entry


def test_codegen_cache_round_trip_per_entry(tmp_path):
    bytecode = translate_program(compile_source(TWO_ENTRIES))
    cache = ArtifactCache(tmp_path / "cache")
    tracer = Tracer()
    results = []
    for _ in range(2):
        machine = MegaunitVirtualMachine(bytecode, codegen_cache=cache)
        with use_tracer(tracer):
            results.append([
                machine.run(entry, [6])
                for entry in ("first", "second")
            ])
    snap = MetricsSnapshot.from_events(tracer.events)
    for result in ("miss", "hit"):
        assert snap.counter_value(
            "repro_codegen_cache_total", result=result, engine="megaunit"
        ) == 2
    cold, warm = results
    assert [(r.value, r.steps, r.cycles) for r in cold] == [
        (r.value, r.steps, r.cycles) for r in warm
    ]


#: the ids name the metering: the counted module is the unmetered one
@pytest.mark.parametrize("counted", [True, False], ids=["plain", "metered"])
def test_each_entrys_unit_lints_clean(counted):
    bytecode = translate_program(compile_source(TWO_ENTRIES))
    for entry in ("first", "second"):
        # An entry's unit is the whole-program module of the functions
        # it holds, so the whole-program lint checks it as written.
        unit = BytecodeProgram(
            {fn.name: fn for fn in unit_functions(bytecode, [entry])},
            bytecode.globals_init,
        )
        assert generate_module_source(
            bytecode, roots=[entry], counted=counted
        ) == generate_module_source(unit, counted=counted)
        assert lint_megaunit_source(unit, counted=counted) == []


# ----------------------------------------------------------------------
# Generated source stability
# ----------------------------------------------------------------------
#: sha256 of each app's whole-program module (plain, counted) under
#: dbds, compiled with the APPS arguments as its profile.  Cached module
#: text is keyed by the bytecode, not by the compiler, so a change to
#: the plain column must come with a CODEGEN_SCHEMA bump (the counted
#: module is never cached; its column pins the unmetered text that
#: profiling runs execute).
SOURCE_DIGESTS = {
    "matrix": (
        "0d993727d86fba262ff15a869c31274941b87d5cf9a3ce2164fba28cf8a9d955",
        "49dce786ebfc0696bf37c20658f80aa5309314e803247f57221b7709452dfa43",
    ),
    "nqueens": (
        "83c459afbdba0fe482117701b72c37c4fcfc09e9f5f59210c29d8bfb8961032f",
        "d1e79f8db7ca25a7607c4efbbd23282275295b9d182b7d519669d47b52adb79d",
    ),
    "wordfreq": (
        "70a9496decbed095ed68e5c9ab02a88c373d1dd458596b8c5b0a9d43a11577a4",
        "b3e9481434a33e1167fb7752a863be6ae3516b7a394b435f3c24aa4baab3b273",
    ),
}


@pytest.mark.parametrize("name", sorted(APPS))
def test_generated_source_is_byte_stable(name):
    path, args = APPS[name]
    program, _ = compile_and_profile(open(path).read(), "main", [args], DBDS)
    bytecode = translate_program(program)
    digests = tuple(
        hashlib.sha256(
            generate_module_source(bytecode, counted=counted).encode()
        ).hexdigest()
        for counted in (False, True)
    )
    assert digests == SOURCE_DIGESTS[name]


#: AST nodes per bytecode instruction the apps' plain modules may hold.
#: A measured run pays ``compile()`` on every node: 33.1 per instruction
#: with one expression per instruction and no prologue seeds, 34.6 when
#: the prologue seeded every register the body read by name, 42.5 when
#: each add, sub, mul and neg also wrapped through a five-line block and
#: each bitwise op or shift through a mask and fold.
MAX_NODES_PER_INSTRUCTION = 37


@pytest.mark.parametrize("counted", [False, True], ids=["plain", "counted"])
def test_generated_functions_seed_no_registers(counted):
    """Constants are literals and ``bc-defuse`` proves every other
    register written before it is read, so no prologue seeds registers
    and no template cell is read."""
    seed = re.compile(r"\s*r\d+( = r\d+)+ = None")
    for path, args in APPS.values():
        program, _ = compile_and_profile(open(path).read(), "main", [args], DBDS)
        source = generate_module_source(translate_program(program), counted=counted)
        assert "_tmpl" not in source
        assert not [line for line in source.splitlines() if seed.fullmatch(line)]


def test_generated_source_stays_compact():
    nodes = instructions = 0
    for path, args in APPS.values():
        program, _ = compile_and_profile(open(path).read(), "main", [args], DBDS)
        bytecode = translate_program(program)
        tree = ast.parse(generate_module_source(bytecode))
        nodes += sum(1 for _node in ast.walk(tree))
        instructions += sum(len(fn.code) for fn in bytecode.functions.values())
    assert nodes <= MAX_NODES_PER_INSTRUCTION * instructions, (
        f"{nodes / instructions:.1f} AST nodes per instruction"
    )
