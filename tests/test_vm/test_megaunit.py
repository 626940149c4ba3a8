"""The megaunit engine: whole-program exec-unit exactness.

``MegaunitVirtualMachine`` compiles the run's entry and its whole call
graph into one generated Python module — registers as locals, threaded
intra-function dispatch, ``OP_CALL`` as a direct Python call — so every
observable (values, traps, step/cycle accounting, budget stops mid-call
and mid-segment, globals, reset) must match the reference interpreter
bit-for-bit, and every degradation path (hooks, insufficient recursion
headroom) must fall back transparently with a ``vm.fallback`` event.
"""

import hashlib
import re
import sys

import pytest

from repro.analysis.bcverify import lint_megaunit_source, verify_bytecode
from repro.costmodel.model import cycles_of
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
from repro.vm import MegaunitVirtualMachine, translate_program
from repro.vm.bytecode import BytecodeProgram
from repro.vm.megaunit import (
    compile_module,
    generate_module_source,
    stack_headroom_ok,
    unit_functions,
)

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


def engines_for(source: str, metered: bool = True, **kwargs):
    program = compile_source(source)
    reference = Interpreter(
        program,
        cycle_cost=cycles_of if metered else None,
        terminator_cost=cycles_of if metered else None,
        **{k: v for k, v in kwargs.items() if k != "max_steps"},
        max_steps=kwargs.get("max_steps", 50_000_000),
    )
    megaunit = MegaunitVirtualMachine(
        translate_program(program), metered=metered, **kwargs
    )
    return reference, megaunit


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
    reference, megaunit = engines_for(CALLS, metered=False)
    ref = reference.run("main", [9])
    out = megaunit.run("main", [9])
    assert (ref.value, ref.steps) == (out.value, out.steps)
    assert out.cycles == 0.0


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
@pytest.mark.parametrize("metered", [False, True], ids=["plain", "metered"])
def test_budget_stop_exact_at_every_cap(metered):
    program = compile_source(CALLS)
    bytecode = translate_program(program)
    total = MegaunitVirtualMachine(bytecode).run("main", [5]).steps
    for cap in range(1, total + 2):
        reference = Interpreter(
            program,
            max_steps=cap,
            cycle_cost=cycles_of if metered else None,
            terminator_cost=cycles_of if metered else None,
        )
        megaunit = MegaunitVirtualMachine(
            bytecode, max_steps=cap, metered=metered
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
        if metered:
            assert reference.state.cycles == megaunit.state.cycles


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
        reference = Interpreter(
            program, max_steps=cap,
            cycle_cost=cycles_of, terminator_cost=cycles_of,
        )
        megaunit = MegaunitVirtualMachine(bytecode, max_steps=cap, metered=True)
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
    # max_call_depth far above what CPython's recursion limit can host
    # natively: the conservative up-front guard must decline the native
    # path, run the whole activation on the vm loop, and still be
    # bit-identical (the run's actual depth is modest).
    program = compile_source(DEEP)
    bytecode = translate_program(program)
    assert not stack_headroom_ok(1, sys.getrecursionlimit() + 100)
    reference = Interpreter(
        program,
        cycle_cost=cycles_of,
        terminator_cost=cycles_of,
        max_call_depth=sys.getrecursionlimit() + 100,
    )
    tracer = Tracer()
    megaunit = MegaunitVirtualMachine(
        bytecode, metered=True,
        max_call_depth=sys.getrecursionlimit() + 100,
    )
    with use_tracer(tracer):
        assert_parity(reference, megaunit, [150])
    events = [e for e in tracer.events if e.name == "vm.fallback"]
    assert len(events) == 1
    assert events[0].attrs == {
        "engine": "megaunit",
        "fallback": "vm",
        "reason": "recursion-headroom",
    }
    assert MetricsSnapshot.from_tracer(tracer).counter_value(
        "repro_vm_fallback_total", engine="megaunit",
        reason="recursion-headroom",
    ) == 1
    # The fallback is noted once per machine, not once per frame.
    with use_tracer(tracer):
        megaunit.reset()
        megaunit.run("main", [10])
    assert len([e for e in tracer.events if e.name == "vm.fallback"]) == 1


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


@pytest.mark.parametrize("metered", [False, True], ids=["plain", "metered"])
def test_counted_run_keeps_value_step_cycle_parity(metered):
    reference, megaunit = engines_for(
        CALLS, metered=metered, profile=ProfileCollector()
    )
    for args in ([5], [9]):
        reference.reset()
        megaunit.reset()
        assert_parity(reference, megaunit, args)
    assert reference.profile.block_counts == megaunit.profile.block_counts
    assert reference.profile.branch_counts == megaunit.profile.branch_counts


def test_counted_module_only_differs_by_its_counters():
    bytecode = translate_program(compile_source(CALLS))
    plain = generate_module_source(bytecode)
    counted = generate_module_source(bytecode, counted=True)
    assert "_counts" not in plain
    bumps = [line for line in counted.splitlines() if "_counts[" in line]
    assert all(line.strip().endswith("] += 1") for line in bumps)
    stripped = [
        line for line in counted.splitlines() if "_counts[" not in line
    ]
    assert stripped == plain.splitlines()


def test_counted_module_never_enters_the_codegen_cache(tmp_path):
    program = compile_source(CALLS)
    cache = ArtifactCache(tmp_path / "cache")
    collector = ProfileCollector()
    MegaunitVirtualMachine(
        translate_program(program), profile=collector, codegen_cache=cache
    ).run("main", [6])
    assert collector.block_counts
    assert (cache.stats.lookups, cache.stats.stores) == (0, 0)


def test_observer_hook_falls_back_to_machine_loops():
    program = compile_source(LOOP)
    seen_ref, seen_mu = [], []
    Interpreter(program, observer=lambda i, v: seen_ref.append((i, v))).run(
        "main", [7]
    )
    MegaunitVirtualMachine(
        translate_program(program),
        observer=lambda i, v: seen_mu.append((i, v)),
    ).run("main", [7])
    assert seen_ref == seen_mu


# ----------------------------------------------------------------------
# Generated source: shape, lint, verifier integration
# ----------------------------------------------------------------------
def test_module_source_is_real_python_and_lints_clean():
    program, _ = compile_and_profile(CALLS, "main", [[6]], DBDS)
    bytecode = translate_program(program)
    for metered in (False, True):
        source = generate_module_source(bytecode, metered=metered)
        compile(source, "<megaunit-test>", "exec")  # must parse
        assert "def _mu0(vm, m" in source
        assert lint_megaunit_source(bytecode, metered=metered) == []


def test_verify_bytecode_runs_the_megaunit_lint():
    program, _ = compile_and_profile(CALLS, "main", [[6]], DBDS)
    bytecode = translate_program(program)
    report = verify_bytecode(bytecode)
    assert report.ok, report.format()


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
        cold = MegaunitVirtualMachine(
            bytecode, metered=True, codegen_cache=cache
        )
        cold_result = cold.run("main", [8])
    snap = MetricsSnapshot.from_tracer(tracer)
    assert snap.counter_value(
        "repro_codegen_cache_total", result="miss", engine="megaunit"
    ) == 1
    with use_tracer(tracer):
        warm = MegaunitVirtualMachine(
            bytecode, metered=True, codegen_cache=cache
        )
        warm_result = warm.run("main", [8])
    snap = MetricsSnapshot.from_tracer(tracer)
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
    key = codegen_cache.codegen_key(order, True, 50_000_000, 200)
    for old in range(1, current):
        cache = ArtifactCache(tmp_path / f"cache-{old}")
        # Under its own (older) key: never looked up by a current run.
        with monkeypatch.context() as patch:
            patch.setattr(codegen_cache, "CODEGEN_SCHEMA", old)
            old_key = codegen_cache.codegen_key(order, True, 50_000_000, 200)
            codegen_cache.store_source(cache, old_key, stale)
        assert old_key != key
        # Under the current key (a stale or tampered entry): rejected on
        # load.
        cache.put_aux(key, dict(stale, schema=old))
        tracer = Tracer()
        with use_tracer(tracer):
            megaunit = MegaunitVirtualMachine(
                bytecode, metered=True, codegen_cache=cache
            )
            reference, _ = engines_for(CALLS)
            assert_parity(reference, megaunit, [8])
        snap = MetricsSnapshot.from_tracer(tracer)
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
            bytecode, metered=True, codegen_cache=cache, max_steps=1000
        ).run("main", [5])
        MegaunitVirtualMachine(
            bytecode, metered=True, codegen_cache=cache, max_steps=2000
        ).run("main", [5])
    snap = MetricsSnapshot.from_tracer(tracer)
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
    snap = MetricsSnapshot.from_tracer(tracer)
    for result in ("miss", "hit"):
        assert snap.counter_value(
            "repro_codegen_cache_total", result=result, engine="megaunit"
        ) == 2
    cold, warm = results
    assert [(r.value, r.steps, r.cycles) for r in cold] == [
        (r.value, r.steps, r.cycles) for r in warm
    ]


@pytest.mark.parametrize("metered", [False, True], ids=["plain", "metered"])
def test_each_entrys_unit_lints_clean(metered):
    bytecode = translate_program(compile_source(TWO_ENTRIES))
    for entry in ("first", "second"):
        # An entry's unit is the whole-program module of the functions
        # it holds, so the whole-program lint checks it as written.
        unit = BytecodeProgram(
            {fn.name: fn for fn in unit_functions(bytecode, [entry])},
            bytecode.globals_init,
        )
        assert generate_module_source(
            bytecode, metered=metered, roots=[entry]
        ) == generate_module_source(unit, metered=metered)
        assert lint_megaunit_source(unit, metered=metered) == []


# ----------------------------------------------------------------------
# Generated source stability
# ----------------------------------------------------------------------
#: sha256 of each app's whole-program module (plain, counted) under
#: dbds, compiled with the APPS arguments as its profile.  Cached module
#: text is keyed by the bytecode, not by the compiler, so a change here
#: must come with a CODEGEN_SCHEMA bump.
SOURCE_DIGESTS = {
    "matrix": (
        "e4f24c4f32d436f0115b0349ec94f1ba943b0f92af2d4177c74936a5bfb5d214",
        "9c08e07a3f8a486260d3d5a89416d5e9d841f142720a9e779d4891348f7d9c87",
    ),
    "nqueens": (
        "a8d11b6676811a1e917495a45008f6b505153717ba3dc2dfa87c348a55b8db82",
        "666bd7ff162e651fb4f515dcb7772058c33f2a6f6b0f8b0d80b54c87f0f47d33",
    ),
    "wordfreq": (
        "0f2b623ccc1f25cec4de7bec53e9a097cf2b7c84d119ca92362876d1fbfb0a6d",
        "79dd92fb5fbafbcba21ec8a08fce9bf8b33088fdd2265002d2e41ff93ef6fff2",
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
