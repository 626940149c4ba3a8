"""VM semantics: exact parity with the reference interpreter.

Every behaviour the reference interpreter exhibits — values, trap
messages, step counts, metered cycles, budget timing, profile hooks —
must be reproduced bit-for-bit by the VM.  A machine meters exactly
when it has no profile collector, so the references here meter too.
"""

import pytest

from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import (
    BudgetExceeded,
    Interpreter,
    ProfileCollector,
    observable_outcome,
)
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import DBDS
from repro.vm import MegaunitVirtualMachine, VirtualMachine, translate_program

APPS = {
    "nqueens": ("examples/apps/nqueens.mini", [6]),
    "wordfreq": ("examples/apps/wordfreq.mini", [120]),
    "matrix": ("examples/apps/matrix.mini", [8]),
}


def engines_for(source: str, **vm_kwargs):
    program = compile_source(source)
    reference = Interpreter(program, metered=True, **vm_kwargs)
    vm = VirtualMachine(translate_program(program), **vm_kwargs)
    return reference, vm


def both(source: str, args):
    reference, vm = engines_for(source)
    ref = reference.run("main", list(args))
    out = vm.run("main", list(args))
    return (reference, ref), (vm, out)


def assert_parity(source: str, args):
    (reference, ref), (vm, out) = both(source, args)
    assert observable_outcome(ref, reference.state) == observable_outcome(
        out, vm.state
    )
    assert (ref.steps, ref.cycles) == (out.steps, out.cycles)
    return ref, out


# ----------------------------------------------------------------------
# Values, steps, cycles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(APPS))
def test_apps_value_step_cycle_parity(name):
    path, args = APPS[name]
    assert_parity(open(path).read(), args)


def test_parity_on_optimized_program():
    source = open("examples/apps/nqueens.mini").read()
    program, _ = compile_and_profile(source, "main", [[5]], DBDS)
    reference = Interpreter(program, metered=True)
    vm = VirtualMachine(translate_program(program))
    ref = reference.run("main", [7])
    out = vm.run("main", [7])
    assert (ref.value, ref.steps, ref.cycles) == (out.value, out.steps, out.cycles)


def test_wrapping_arithmetic_and_division():
    source = """
    fn main(x: int) -> int {
      var big: int = 4611686018427387904;
      var wrapped: int = big * 4 + x;
      var q: int = (0 - 7) / 2;
      var r: int = (0 - 7) % 2;
      var sh: int = 1 << 70;
      return wrapped + q * 100 + r * 10 + sh;
    }
    """
    ref, out = assert_parity(source, [5])
    assert ref.value == out.value


# ----------------------------------------------------------------------
# Traps: identical messages at identical step counts
# ----------------------------------------------------------------------
TRAP_SOURCES = {
    "division by zero": "fn main(x: int) -> int { return 1 / x; }",
    "modulo by zero": "fn main(x: int) -> int { return 1 % x; }",
    "negative array length": """
        fn main(x: int) -> int {
          var a: int[] = new int[0 - 3];
          return len(a);
        }
    """,
    "array index": """
        fn main(x: int) -> int {
          var a: int[] = new int[2];
          return a[x + 5];
        }
    """,
}


@pytest.mark.parametrize("label", sorted(TRAP_SOURCES))
def test_trap_message_and_step_parity(label):
    (reference, ref), (vm, out) = both(TRAP_SOURCES[label], [0])
    assert ref.trap is not None and label in ref.trap
    assert ref.trap == out.trap
    assert ref.steps == out.steps
    assert ref.cycles == out.cycles


def test_null_field_trap_messages():
    source = """
    class P { x: int; }
    fn main(n: int) -> int {
      var p: P = null;
      if (n > 0) { p.x = 1; } else { return p.x; }
      return 0;
    }
    """
    for args in ([0], [1]):
        (reference, ref), (vm, out) = both(source, args)
        assert ref.trap == out.trap
        assert (ref.steps, ref.cycles) == (out.steps, out.cycles)
        assert "null dereference" in out.trap


def test_stack_overflow_parity():
    source = "fn main(x: int) -> int { return main(x + 1); }"
    (reference, ref), (vm, out) = both(source, [0])
    assert ref.trap == out.trap == "stack overflow"
    assert (ref.steps, ref.cycles) == (out.steps, out.cycles)


# ----------------------------------------------------------------------
# Step budget: checked BEFORE executing, identical timing
# ----------------------------------------------------------------------
LOOP = """
fn main(n: int) -> int {
  var i: int = 0;
  while (i < 1000000) { i = i + 1; }
  return i;
}
"""


def test_budget_exceeded_matches_reference():
    program = compile_source(LOOP)
    reference = Interpreter(
        program, max_steps=500, metered=True
    )
    vm = VirtualMachine(translate_program(program), max_steps=500)
    with pytest.raises(BudgetExceeded) as ref_exc:
        reference.run("main", [0])
    with pytest.raises(BudgetExceeded) as vm_exc:
        vm.run("main", [0])
    assert str(ref_exc.value) == str(vm_exc.value) == "exceeded 500 interpreter steps"
    assert (reference.state.steps, reference.state.cycles) == (
        vm.state.steps, vm.state.cycles
    )


def test_budget_not_hit_just_below_threshold():
    program = compile_source(LOOP)
    reference = Interpreter(program)
    steps = reference.run("main", [0]).steps
    vm = VirtualMachine(translate_program(program), max_steps=steps)
    assert vm.run("main", [0]).value == 1000000


# ----------------------------------------------------------------------
# Globals, reset, call protocol
# ----------------------------------------------------------------------
def test_globals_survive_within_run_and_reset_between():
    source = """
    global total: int;
    fn bump(v: int) -> int { total = total + v; return total; }
    fn main(x: int) -> int { bump(x); bump(x); return total; }
    """
    reference, vm = engines_for(source)
    assert vm.run("main", [5]).value == reference.run("main", [5]).value == 10
    vm.reset()
    reference.reset()
    assert vm.run("main", [3]).value == reference.run("main", [3]).value == 6


def test_arity_mismatch_raises_typeerror_like_reference():
    source = "fn main(x: int) -> int { return x; }"
    reference, vm = engines_for(source)
    with pytest.raises(TypeError) as ref_exc:
        reference.run("main", [1, 2])
    with pytest.raises(TypeError) as vm_exc:
        vm.run("main", [1, 2])
    assert str(ref_exc.value) == str(vm_exc.value)


def test_an_argument_outside_the_64_bit_range_is_refused():
    # The handlers of %, &, |, ^ and >> do not wrap: the VM engines take
    # only what a program can compute, as `--args` does.
    bytecode = translate_program(
        compile_source("fn main(x: int) -> int { return x | 0; }")
    )
    for engine in (VirtualMachine, MegaunitVirtualMachine):
        for arg in (2**63, -(2**63) - 1):
            with pytest.raises(ValueError, match="outside the signed 64-bit"):
                engine(bytecode).run("main", [arg])
        assert engine(bytecode).run("main", [-(2**63)]).value == -(2**63)


def test_unknown_entry_raises_keyerror():
    reference, vm = engines_for("fn main(x: int) -> int { return x; }")
    with pytest.raises(KeyError):
        vm.run("nope", [1])


# ----------------------------------------------------------------------
# Profile hooks
# ----------------------------------------------------------------------
BRANCHY = """
fn main(n: int) -> int {
  var i: int = 0;
  var odd: int = 0;
  while (i < n) {
    if (i % 2 == 1) { odd = odd + 1; }
    i = i + 1;
  }
  return odd;
}
"""


def test_profile_collectors_record_identically():
    program = compile_source(BRANCHY)
    ref_profile, vm_profile = ProfileCollector(), ProfileCollector()
    ref = Interpreter(program, profile=ref_profile).run("main", [9])
    vm = VirtualMachine(translate_program(program), profile=vm_profile)
    assert not vm.metered
    out = vm.run("main", [9])
    assert (ref.value, ref.steps, ref.cycles) == (out.value, out.steps, 0.0)
    assert out.cycles == 0.0
    assert ref_profile.block_counts == vm_profile.block_counts
    assert ref_profile.branch_counts == vm_profile.branch_counts

