"""Engine differential suite: the VM engines against the reference
interpreter.

Every bundled example program, a corpus of seeded mutants (the
template-extraction mutation operators of :mod:`repro.analysis.progen`
applied to the examples) and seeded generated programs go through the
differential oracle after a full DBDS compile: observable outcomes,
trap messages, steps and cycles must be identical on every engine (and
the outcomes equal the baseline's, every value inside its stamp).
"""

import pathlib

import pytest

from repro.analysis.progen import mutated_program
from repro.analysis.validate import (
    FUZZ_ARGS,
    SCREEN_STEP_BUDGET,
    _screen_mutant,
    fuzz,
)
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import (
    ExecutionResult,
    HeapArray,
    HeapObject,
    Interpreter,
    observable_outcome,
)
from repro.ir.ops import MAX_ARRAY_LENGTH
from repro.vm import MegaunitVirtualMachine, VirtualMachine, translate_program
from repro.vm.bytecode import OP_EQ, OP_NE

from tests.helpers import oracle

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
    problems = oracle(path.read_text(), EXAMPLE_ARGS)
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("seed", range(MUTANT_COUNT))
def test_mutants_identical_on_both_engines(seed):
    corpus = [p.read_text() for p in EXAMPLES]
    mutant = mutated_program(seed, corpus, mutations=2)
    if not _screen_mutant(mutant.source, "main", MUTANT_ARGS, SCREEN_STEP_BUDGET):
        pytest.skip("mutant exceeds the screening step budget")
    problems = oracle(mutant.source, MUTANT_ARGS)
    assert not problems, (
        f"[{mutant.base}: {', '.join(mutant.applied) or 'unchanged'}]\n"
        + "\n".join(problems)
    )


def test_cross_product_covers_every_engine(monkeypatch):
    # The oracle runs the full matrix: a step too many planted in either
    # VM engine's metered runs is reported against the reference.
    for engine in (VirtualMachine, MegaunitVirtualMachine):
        monkeypatch.setattr(engine, "run", _one_step_more(engine.run))
    problems = oracle(EXAMPLES[0].read_text(), [[2]])
    assert len(problems) == 2
    for problem, engine in zip(problems, ("vm", "megaunit")):
        assert problem.startswith("engine-diff: main(2): reference -> ")
        assert f" but {engine} -> " in problem


def _one_step_more(run):
    def planted(self, function, args):
        result = run(self, function, args)
        if not self.metered:
            return result
        return ExecutionResult(
            result.value, result.trap, result.steps + 1, result.cycles
        )

    return planted


#: seeded generator programs for the full-matrix sweep — whole programs
#: from the grammar generator, distinct from the example-derived mutants
GENERATED_COUNT = 32


@pytest.mark.parametrize("seed", range(GENERATED_COUNT))
def test_generated_programs_identical_on_every_engine(seed):
    from repro.analysis.progen import random_program

    source = random_program(seed * 7919 + 17)
    if not _screen_mutant(source, "main", MUTANT_ARGS, SCREEN_STEP_BUDGET):
        pytest.skip("generated program exceeds the screening step budget")
    problems = oracle(source, MUTANT_ARGS)
    assert not problems, "\n".join(problems)


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
    problems = oracle(NEW_ARRAY, lengths)
    assert not problems, "\n".join(problems)
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
    problems = []

    def check(source: str, name: str) -> int:
        found = oracle(source, FUZZ_ARGS)
        problems.extend(f"{name}: {problem}" for problem in found)
        return len(found)

    report = fuzz(check, seed=1234, programs=6)
    assert report.ok, "\n".join([report.format(), *problems])


def test_unoptimized_programs_also_agree():
    # The differential holds for raw front-end output too, not only for
    # the optimized pipeline product the oracle exercises.
    for path in EXAMPLES:
        program = compile_source(path.read_text())
        reference = Interpreter(program, metered=True)
        vm = VirtualMachine(translate_program(program))
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
        "reference": Interpreter(program, metered=True),
        "vm": VirtualMachine(bytecode),
        "megaunit": MegaunitVirtualMachine(bytecode),
    }
    outcomes = {}
    for name, engine in engines.items():
        out = engine.run("main", [3])
        outcomes[name] = (out.value, out.trap, out.steps, out.cycles)
    assert engines["megaunit"].fallbacks == set()
    assert outcomes["reference"][:2] == (expected, None)
    assert outcomes["vm"] == outcomes["reference"]
    assert outcomes["megaunit"] == outcomes["reference"]


INT_MIN, INT_MAX = -(2**63), 2**63 - 1

#: operands at and next to the edges of the signed 64-bit range
EDGE_VALUES = (INT_MIN, INT_MIN + 1, -2, -1, 0, 1, 2, INT_MAX - 1, INT_MAX)

#: shift counts: the ones the low six bits keep, and ones they wrap
SHIFT_COUNTS = (0, 1, 62, 63, 64, 65, -1)

#: every ArithOp in MiniLang and NEG: the operator and its right
#: operands (``None``: no right operand)
EDGE_OPERATORS = {
    "add": ("+", EDGE_VALUES), "sub": ("-", EDGE_VALUES),
    "mul": ("*", EDGE_VALUES), "div": ("/", EDGE_VALUES),
    "mod": ("%", EDGE_VALUES), "and": ("&", EDGE_VALUES),
    "or": ("|", EDGE_VALUES), "xor": ("^", EDGE_VALUES),
    "shl": ("<<", SHIFT_COUNTS), "shr": (">>", SHIFT_COUNTS),
    "ushr": (">>>", SHIFT_COUNTS), "neg": ("-", None),
}


def _edge_functions(op: str, rights) -> tuple[str, list]:
    """One function per operand form of ``op``: each operand a
    parameter or a local bound to a literal, which the unoptimized
    compile keeps as an interned constant, so the instruction reads it
    as a literal.  Returns the source and ``(function, args)`` of every
    case."""
    functions, cases = [], []

    def form(name, params, bound, expr, args):
        lets = "".join(f"  var {var}: int = {value};\n" for var, value in bound)
        functions.append(
            f"fn {name}({', '.join(f'{p}: int' for p in params)}) -> int {{\n"
            f"{lets}  return {expr};\n}}"
        )
        cases.extend((name, arg) for arg in args)

    if rights is None:
        form("p", ["a"], [], "-a", [[a] for a in EDGE_VALUES])
        for i, a in enumerate(EDGE_VALUES):
            form(f"l{i}", [], [("a", a)], "-a", [[]])
        return "\n".join(functions), cases
    expr = f"a {op} b"
    form("pp", ["a", "b"], [], expr, [[a, b] for a in EDGE_VALUES for b in rights])
    for i, a in enumerate(EDGE_VALUES):
        form(f"l{i}p", ["b"], [("a", a)], expr, [[b] for b in rights])
        for j, b in enumerate(rights):
            form(f"l{i}l{j}", [], [("a", a), ("b", b)], expr, [[]])
    for j, b in enumerate(rights):
        form(f"pl{j}", ["a"], [("b", b)], expr, [[a] for a in EDGE_VALUES])
    return "\n".join(functions), cases


@pytest.mark.parametrize("name", sorted(EDGE_OPERATORS))
def test_edge_values_agree_on_every_engine(name):
    # Unoptimized, so no operation folds away and both operand forms
    # reach codegen: a register, and an inlined literal.
    source, cases = _edge_functions(*EDGE_OPERATORS[name])
    program = compile_source(source)
    bytecode = translate_program(program)
    # The operation and the return, per function: nothing folded.
    assert {len(fn.code) for fn in bytecode.functions.values()} == {2}
    engines = {
        "reference": Interpreter(program, metered=True),
        "vm": VirtualMachine(bytecode),
        "megaunit": MegaunitVirtualMachine(bytecode),
    }
    for function, args in cases:
        outcomes = {}
        for engine_name, engine in engines.items():
            engine.reset()
            out = engine.run(function, list(args))
            outcomes[engine_name] = (out.value, out.trap, out.steps, out.cycles)
            assert out.trap or type(out.value) is int, (engine_name, function)
        assert outcomes["vm"] == outcomes["reference"], (function, args)
        assert outcomes["megaunit"] == outcomes["reference"], (function, args)
    assert engines["megaunit"].fallbacks == set()
