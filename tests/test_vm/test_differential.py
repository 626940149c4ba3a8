"""Engine differential suite: the VM against the reference interpreter.

Every bundled example program and a corpus of seeded mutants (the
template-extraction mutation operators of :mod:`repro.analysis.progen`
applied to the examples) run on both engines after a full DBDS compile;
observable outcomes, trap messages and step counts must be identical.
"""

import pathlib

import pytest

from repro.analysis.progen import mutated_program
from repro.analysis.validate import SCREEN_STEP_BUDGET, _screen_mutant, validate_engines
from repro.costmodel.model import cycles_of
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import (
    HeapArray,
    HeapObject,
    Interpreter,
    observable_outcome,
)
from repro.ir.ops import MAX_ARRAY_LENGTH
from repro.vm import MegaunitVirtualMachine, VirtualMachine, translate_program
from repro.vm.bytecode import OP_EQ, OP_NE

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent.parent / "examples").rglob("*.mini")
)
EXAMPLE_ARGS = [[0], [1], [4], [7]]

#: seeded mutants per corpus sweep — comfortably above the 50-mutant
#: floor even after step-budget screening skips a few
MUTANT_COUNT = 64
MUTANT_ARGS = [[0], [2], [5]]


def test_examples_present():
    assert EXAMPLES, "expected bundled .mini examples"


@pytest.mark.parametrize(
    "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
)
def test_examples_identical_on_both_engines(path):
    result = validate_engines(path.read_text(), "main", EXAMPLE_ARGS)
    assert result.ok, "\n".join(r.format() for r in result.divergences)


@pytest.mark.parametrize("seed", range(MUTANT_COUNT))
def test_mutants_identical_on_both_engines(seed):
    corpus = [p.read_text() for p in EXAMPLES]
    mutant = mutated_program(seed, corpus, mutations=2)
    if not _screen_mutant(mutant.source, "main", MUTANT_ARGS, SCREEN_STEP_BUDGET):
        pytest.skip("mutant exceeds the screening step budget")
    result = validate_engines(mutant.source, "main", MUTANT_ARGS, seed=seed)
    assert result.ok, (
        f"[{mutant.base}: {', '.join(mutant.applied) or 'unchanged'}]\n"
        + "\n".join(r.format() for r in result.divergences)
    )


def test_cross_product_covers_every_engine():
    # validate_engines defaults to the full matrix: the reference
    # interpreter plus every VM engine, every pair compared.
    result = validate_engines(EXAMPLES[0].read_text(), "main", [[2]])
    assert result.ok
    assert result.configs == ["reference", "vm", "megaunit"]


#: seeded generator programs for the full-matrix sweep — whole programs
#: from the grammar generator, distinct from the example-derived mutants
GENERATED_COUNT = 32


@pytest.mark.parametrize("seed", range(GENERATED_COUNT))
def test_generated_programs_identical_on_every_engine(seed):
    from repro.analysis.progen import random_program

    source = random_program(seed * 7919 + 17)
    if not _screen_mutant(source, "main", MUTANT_ARGS, SCREEN_STEP_BUDGET):
        pytest.skip("generated program exceeds the screening step budget")
    result = validate_engines(source, "main", MUTANT_ARGS, seed=seed)
    assert result.ok, "\n".join(r.format() for r in result.divergences)


NEW_ARRAY = """
fn main(n: int) -> int {
  var a: int[] = new int[n];
  return len(a);
}
"""


def test_array_lengths_past_the_maximum_trap_alike_on_every_engine():
    # No engine allocates past MAX_ARRAY_LENGTH: each traps with the one
    # message at the same step and cycle, as for a negative length.
    lengths = [[3], [-1], [MAX_ARRAY_LENGTH + 1], [2**63 - 1]]
    result = validate_engines(NEW_ARRAY, "main", lengths)
    assert result.ok, "\n".join(r.format() for r in result.divergences)
    program = compile_source(NEW_ARRAY)
    interpreter = Interpreter(program)
    for n in (MAX_ARRAY_LENGTH + 1, 2**63 - 1):
        interpreter.reset()
        assert interpreter.run("main", [n]).trap == (
            f"array length {n} exceeds the maximum {MAX_ARRAY_LENGTH}"
        )


CALL_HEAVY = """
fn leaf(x: int) -> int { return x * 3 + 1; }
fn mid(x: int) -> int { return leaf(x) + leaf(x + 1); }
fn main(n: int) -> int {
  var acc: int = 0;
  var i: int = 0;
  while (i < n) {
    acc = acc + mid(i);
    i = i + 1;
  }
  return acc;
}
"""


def test_budget_stops_identical_at_every_cap_across_engines():
    # Sweep every step cap over a call-heavy program so stops land
    # mid-call, at call boundaries and inside callees; every engine
    # must report the same BudgetExceeded message, steps and cycles.
    from repro.interp.interpreter import BudgetExceeded
    from repro.pipeline.compiler import compile_and_profile
    from repro.pipeline.front import ENGINES, make_engine
    from repro.pipeline.config import DBDS

    program, _ = compile_and_profile(CALL_HEAVY, "main", [[4]], DBDS)
    bytecode = translate_program(program)
    total = make_engine("vm", program, bytecode=bytecode).run("main", [4]).steps

    def stopped(engine, cap):
        runner = make_engine(
            engine, program, bytecode=bytecode, max_steps=cap
        )
        try:
            runner.run("main", [4])
            message = None
        except BudgetExceeded as exc:
            message = str(exc)
        return message, runner.state.steps, runner.state.cycles

    for cap in list(range(1, 40)) + list(range(40, total + 2, 7)):
        expected = stopped("reference", cap)
        for engine in ENGINES:
            if engine == "reference":
                continue
            assert stopped(engine, cap) == expected, (engine, cap)


def test_fuzz_engines_smoke_over_full_matrix():
    from repro.analysis.validate import fuzz_engines

    report = fuzz_engines(seed=1234, programs=6)
    assert report.ok, report.format()


def test_unoptimized_programs_also_agree():
    # The differential holds for raw front-end output too, not only for
    # the optimized pipeline product validate_engines exercises.
    for path in EXAMPLES:
        program = compile_source(path.read_text())
        reference = Interpreter(
            program, cycle_cost=cycles_of, terminator_cost=cycles_of
        )
        vm = VirtualMachine(translate_program(program), metered=True)
        for args in EXAMPLE_ARGS:
            reference.reset()
            vm.reset()
            ref = reference.run("main", list(args))
            out = vm.run("main", list(args))
            assert observable_outcome(ref, reference.state) == observable_outcome(
                out, vm.state
            )
            assert (ref.steps, ref.cycles) == (out.steps, out.cycles)


#: (left, right, whether ``left == right``): two distinct objects with
#: equal fields (p, q), an object with itself, the same for two arrays
#: of equal contents (a, b), each of them against null in both operand
#: orders, and a null-valued reference against null
IDENTITY_CASES = (
    ("p", "q", False),
    ("p", "p", True),
    ("a", "b", False),
    ("a", "a", True),
    *(
        case
        for ref in ("p", "q", "a", "b")
        for case in ((ref, "null", False), ("null", ref, False))
    ),
    ("none", "null", True),
    ("null", "none", True),
)


def _identity_program() -> tuple[str, int]:
    """Every case under ``==`` and ``!=``, one result bit each; returns
    the source and the pinned result."""
    lines, expected, bit = [], 0, 1
    for left, right, equal in IDENTITY_CASES:
        for op, truth in (("==", equal), ("!=", not equal)):
            lines.append(f"  r = r + bit({left} {op} {right}, {bit});")
            expected += bit if truth else 0
            bit *= 2
    source = (
        "class P { x: int; y: int; }\n"
        "fn bit(b: bool, k: int) -> int {\n"
        "  if (b) { return k; }\n"
        "  return 0;\n"
        "}\n"
        "fn main(n: int) -> int {\n"
        "  var p: P = new P { x = n, y = 2 };\n"
        "  var q: P = new P { x = n, y = 2 };\n"
        "  var a: int[] = new int[n];\n"
        "  var b: int[] = new int[n];\n"
        "  var none: P = null;\n"
        "  var r: int = 0;\n"
        + "\n".join(lines)
        + "\n  return r;\n}\n"
    )
    return source, expected


def test_reference_equality_is_identity_on_every_engine():
    # Every engine compiles ==/!= to Python's bare ==/!=, which is
    # identity on the heap classes only while they define neither.
    for cls in (HeapObject, HeapArray):
        assert cls.__eq__ is object.__eq__, cls
        assert cls.__ne__ is object.__ne__, cls
    source, expected = _identity_program()
    # Unoptimized, so no comparison is folded away before it runs.
    program = compile_source(source)
    bytecode = translate_program(program)
    compares = [
        ins for fn in bytecode.functions.values() for ins in fn.code
        if ins[0] in (OP_EQ, OP_NE)
    ]
    assert len(compares) == 2 * len(IDENTITY_CASES)
    engines = {
        "reference": Interpreter(
            program, cycle_cost=cycles_of, terminator_cost=cycles_of
        ),
        "vm": VirtualMachine(bytecode, metered=True),
        "megaunit": MegaunitVirtualMachine(bytecode, metered=True),
    }
    outcomes = {}
    for name, engine in engines.items():
        out = engine.run("main", [3])
        outcomes[name] = (out.value, out.trap, out.steps, out.cycles)
    assert engines["megaunit"].fallbacks == set()
    assert outcomes["reference"][:2] == (expected, None)
    assert outcomes["vm"] == outcomes["reference"]
    assert outcomes["megaunit"] == outcomes["reference"]
