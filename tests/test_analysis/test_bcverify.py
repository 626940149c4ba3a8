"""Static bytecode verifier: checkers, tampering, orchestrator."""

from __future__ import annotations

import ast
import re

import pytest

from repro.analysis.bcverify import (
    lint_megaunit_function,
    lint_megaunit_source,
    run_bc_checkers,
    verify_bytecode,
)
from repro.analysis.bcverify.lint import BANNED_NAMES, _lint_names
from repro.ir.ops import MAX_STEPS
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import CONFIGURATIONS
from repro.pipeline.front import jit
from repro.vm.bytecode import OP_ADD, OP_CALL, OP_RETURN, BytecodeFunction
from repro.vm.megaunit import (
    MEGAUNIT_NAMESPACE,
    finish_live_ins,
    generate_module_source,
    meter_width,
    segment_steps,
)
from repro.vm.translate import translate_program

LOOP_SOURCE = """
fn helper(x: int) -> int {
  if (x < 2) { return x; }
  return helper(x - 1) + x * 3;
}
fn main(n: int) -> int {
  var acc: int = 0;
  var i: int = 0;
  while (i < n) {
    if (i % 2 == 0) { acc = acc + helper(i); }
    else { acc = acc - 1; }
    i = i + 1;
  }
  return acc;
}
"""


@pytest.fixture(scope="module")
def compiled():
    program, _report = compile_and_profile(
        LOOP_SOURCE, "main", [[8]], CONFIGURATIONS["dbds"]
    )
    return program


@pytest.fixture()
def bytecode(compiled):
    # Translated fresh per test: mutation tests tamper with it.
    return translate_program(compiled)


def _replace(fn, pc, ins):
    code = list(fn.code)
    code[pc] = ins
    fn.code = tuple(code)


# ----------------------------------------------------------------------
# Clean programs verify clean
# ----------------------------------------------------------------------
def test_clean_program_verifies(bytecode):
    report = verify_bytecode(bytecode)
    assert report.ok, report.format()
    # one report per function
    assert len(report.reports) == len(bytecode.functions)


def test_report_json_shape(bytecode):
    payload = verify_bytecode(bytecode).to_json()
    assert payload["ok"] is True
    assert payload["errors"] == 0
    assert "main" in payload["functions"]


# ----------------------------------------------------------------------
# bc-structure
# ----------------------------------------------------------------------
def test_structure_rejects_unknown_opcode(bytecode):
    fn = bytecode.function("main")
    _replace(fn, 0, (99_999,) + fn.code[0][1:])
    report = run_bc_checkers(fn, bytecode)
    assert not report.ok
    assert any(v.checker == "bc-structure" for v in report.errors())


def test_structure_rejects_truncated_tuple(bytecode):
    fn = bytecode.function("main")
    pc = next(i for i, ins in enumerate(fn.code) if ins[0] == OP_ADD)
    _replace(fn, pc, fn.code[pc][:-1])
    report = run_bc_checkers(fn, bytecode)
    assert any(v.checker == "bc-structure" for v in report.errors())


def test_structure_rejects_out_of_range_register(bytecode):
    fn = bytecode.function("main")
    pc = next(i for i, ins in enumerate(fn.code) if ins[0] == OP_ADD)
    ins = fn.code[pc]
    _replace(fn, pc, ins[:4] + (fn.nregs + 7,) + ins[5:])
    report = run_bc_checkers(fn, bytecode)
    assert any(
        "out-of-range" in v.message
        for v in report.errors()
        if v.checker == "bc-structure"
    )


def test_structure_rejects_missing_block_spans(bytecode):
    # Every translation emits block spans: a function without them is
    # malformed, not a stream to check tuple by tuple.
    fn = bytecode.function("main")
    fn.blocks = ()
    report = run_bc_checkers(fn, bytecode)
    assert any(
        v.checker == "bc-structure" and "no block-span metadata" in v.message
        for v in report.errors()
    ), report.errors()
    assert not verify_bytecode(bytecode).ok


def test_structure_rejects_foreign_call_target(bytecode):
    import copy

    fn = bytecode.function("main")
    pc = next(i for i, ins in enumerate(fn.code) if ins[0] == OP_CALL)
    ins = fn.code[pc]
    foreign = copy.copy(ins[4])
    _replace(fn, pc, ins[:4] + (foreign,) + ins[5:])
    report = run_bc_checkers(fn, bytecode)
    assert any(
        "not the program's function" in v.message for v in report.errors()
    )


# ----------------------------------------------------------------------
# bc-defuse
# ----------------------------------------------------------------------
def test_defuse_rejects_read_before_write(bytecode):
    fn = bytecode.function("main")
    pc = next(i for i, ins in enumerate(fn.code) if ins[0] == OP_ADD)
    ins = fn.code[pc]
    # redirect an operand to a scratch register no path has written
    scratch = fn.nregs
    fn.nregs += 1
    fn.template = list(fn.template) + [None]
    _replace(fn, pc, ins[:5] + (scratch,) + ins[6:])
    report = run_bc_checkers(fn, bytecode)
    assert any(v.checker == "bc-defuse" for v in report.errors())


# ----------------------------------------------------------------------
# bc-codegen-lint
# ----------------------------------------------------------------------
def test_lint_accepts_generated_source(bytecode):
    for name in bytecode.functions:
        assert lint_megaunit_function(bytecode, name) == []


def test_lint_flags_banned_names():
    assert "eval" in BANNED_NAMES and "exec" in BANNED_NAMES
    tree = ast.parse("def _mu0(vm, m, r0, d):\n    eval('1')\n")
    messages: list[str] = []
    _lint_names(tree.body[0], messages)
    assert any("banned name 'eval'" in m for m in messages)


def test_lint_flags_unknown_globals():
    tree = ast.parse("def _mu0(vm, m, r0, d):\n    r0 = os\n")
    messages: list[str] = []
    _lint_names(tree.body[0], messages)
    assert any("unexpected global 'os'" in m for m in messages)


def test_lint_catches_block_table_tamper(bytecode):
    fn = bytecode.function("main")
    # claim an extra instruction in the entry block: codegen (or its
    # accounting) no longer agrees with the block spans
    start, count, name = fn.blocks[0]
    fn.blocks = ((start, count + 1, name),) + tuple(fn.blocks[1:])
    assert lint_megaunit_function(bytecode, "main") != []


def _packed_lines(source: str, pattern: str) -> list:
    """``(index, literal)`` of every line of ``source`` matching
    ``pattern``, whose one group is a packed meter literal."""
    return [
        (index, int(match.group(1)))
        for index, line in enumerate(source.splitlines())
        for match in [re.fullmatch(pattern, line)]
        if match
    ]


def _with_line(source: str, index: int, old: str, new: str) -> str:
    lines = source.splitlines()
    assert old in lines[index]
    lines[index] = lines[index].replace(old, new)
    return "\n".join(lines) + "\n"


def test_lint_catches_unbalanced_accounting(bytecode, monkeypatch):
    from repro.analysis.bcverify.lint import _lint_accounting

    # Packed at K = 8: one segment charge, (2 << 8) + 5.
    func = ast.parse(
        "def _mu0(vm, m, r0, d):\n"
        "    e += 517\n"
    ).body[0]
    fn = BytecodeFunction("f", 1)
    fn.code = ((0, 7, None, 0, 1, 2),) * 3
    messages: list[str] = []
    # the function has 3 instructions costing 21 cycles; the generated
    # source only accounts for 2 steps and 5 cycles
    _lint_accounting(func, fn, 8, messages)
    assert any("step increments sum to 2" in m for m in messages)

    messages = []
    steps_ok = ast.parse(
        "def _mu0(vm, m, r0, d):\n"
        "    e += 773\n"
    ).body[0]
    _lint_accounting(steps_ok, fn, 8, messages)
    assert any("cycle increments sum to 5" in m for m in messages)

    # Generated text: one charge literal's cycle field, then its step
    # field, off by one.
    source = generate_module_source(bytecode)
    width = meter_width(list(bytecode.functions.values()), MAX_STEPS)
    index, charge = _packed_lines(source, r"\s*e \+= (\d+)")[0]
    for delta, label in ((1, "cycle"), (1 << width, "step")):
        tampered = _with_line(
            source, index, f"e += {charge}", f"e += {charge + delta}"
        )
        messages = _lint_tampered(monkeypatch, bytecode, tampered)
        assert any(f"{label} increments sum to" in m for m in messages), (
            label, messages,
        )


def test_lint_rejects_a_guard_that_admits_one_step_too_many(
    bytecode, monkeypatch
):
    # Raising a guard literal by 1 << K lets the segment run one step
    # past max_steps before _finish replays it.
    order = list(bytecode.functions.values())
    width = meter_width(order, MAX_STEPS)
    for counted, step in ((False, 1 << width), (True, 1)):
        source = generate_module_source(bytecode, counted=counted)
        index, bound = _packed_lines(source, r"\s*if e > (\d+):")[0]
        # The guard's body is _mu0's _finish(vm, m, _fn0, e, <pc>, ...).
        guarded = source.splitlines()[index + 1]
        pc = int(re.search(r"_fn0, e, (\d+)", guarded)[1])
        tampered = _with_line(
            source, index, f"e > {bound}:", f"e > {bound + step}:"
        )
        messages = _lint_tampered(monkeypatch, bytecode, tampered, counted)
        assert messages == [
            f"_mu0: _finish at pc {pc} is not guarded by e > {bound} "
            f"(its segment's {segment_steps(order[0], pc)} step(s) "
            f"against {MAX_STEPS})"
        ], messages


def test_lint_catches_missing_trap_flush(bytecode, monkeypatch):
    from repro.analysis.bcverify.lint import _lint_trap_flushes

    func = ast.parse(
        "def _mu0(vm, m, r0, d):\n"
        "    if r0 == 0:\n"
        "        raise EvaluationTrap('division by zero')\n"
    ).body[0]
    messages: list[str] = []
    _lint_trap_flushes(func, messages)
    assert any("m[0] flush" in m for m in messages)

    flushed = ast.parse(
        "def _mu0(vm, m, r0, d):\n"
        "    if d > 200:\n"
        "        raise EvaluationTrap('stack overflow')\n"
        "    e = m[0]\n"
        "    if r0 == 0:\n"
        "        m[0] = e + 1\n"
        "        raise EvaluationTrap('division by zero')\n"
    ).body[0]
    messages = []
    _lint_trap_flushes(flushed, messages)
    assert messages == []

    # Generated text: a trap site that lost its flush (the prologue's
    # depth guard is the one raise that needs none).
    source = generate_module_source(bytecode)
    lines = source.splitlines()
    index = next(
        i for i, line in enumerate(lines)
        if "raise EvaluationTrap" in line and "stack overflow" not in line
    )
    assert lines[index - 1].strip().startswith("m[0] = e + ")
    del lines[index - 1]
    messages = _lint_tampered(
        monkeypatch, bytecode, "\n".join(lines) + "\n"
    )
    assert any("m[0] flush" in m for m in messages), messages


def _finish_calls(source: str) -> list:
    """Every ``_finish(...)`` call in a megaunit module, with its
    enclosing function's index."""
    calls = []
    for func in ast.parse(source).body:
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_finish"
            ):
                calls.append((int(func.name[3:]), node))
    return calls


def test_megaunit_finish_passes_exactly_the_replay_live_ins(bytecode):
    source = generate_module_source(bytecode)
    order = list(bytecode.functions.values())
    calls = _finish_calls(source)
    assert calls
    for index, node in calls:
        fn = order[index]
        pc = node.args[4].value
        passed = [arg.id for arg in node.args[5:]]
        assert passed == [f"r{k}" for k in finish_live_ins(fn, pc)]
        if fn.code[pc][0] == OP_CALL:
            assert passed == []  # a call-site guard replays nothing
    assert lint_megaunit_source(bytecode) == []


def _lint_tampered(
    monkeypatch, bytecode, source: str, counted: bool = False
) -> list[str]:
    """Lint ``source`` as if the megaunit compiler had generated it."""
    from repro.analysis.bcverify import lint

    monkeypatch.setattr(
        lint, "generate_module_source", lambda _bytecode, **_kw: source
    )
    return lint_megaunit_source(bytecode, counted=counted)


def test_megaunit_finish_live_ins_of_a_call_site_guard_are_empty():
    from repro.frontend.irbuilder import compile_source

    program = compile_source(
        "fn f(x: int) -> int { return x + 1; }\n"
        "fn main(n: int) -> int { return f(n) + f(n * 3); }"
    )
    fn = translate_program(program).function("main")
    calls = [pc for pc, ins in enumerate(fn.code) if ins[0] == OP_CALL]
    assert calls[0] == 0  # the entry block opens with a call
    assert all(finish_live_ins(fn, pc) == () for pc in calls)
    # A one-instruction segment (the multiply) replays nothing; the add
    # after the second call reads both call results before the return.
    assert finish_live_ins(fn, 1) == ()
    assert finish_live_ins(fn, 3) == (fn.code[0][3], fn.code[2][3])


def test_megaunit_lint_rejects_a_missing_live_in(bytecode, monkeypatch):
    source = generate_module_source(bytecode)
    lines = source.splitlines()
    # drop the last register of the first budget exit that passes any
    node = next(
        node for _index, node in _finish_calls(source) if len(node.args) > 5
    )
    line = lines[node.lineno - 1]
    dropped = node.args[-1].id
    lines[node.lineno - 1] = line.replace(f", {dropped})", ")")
    tampered = "\n".join(lines) + "\n"
    messages = _lint_tampered(monkeypatch, bytecode, tampered)
    assert any(
        f"_finish at pc {node.args[4].value} passes" in m and dropped in m
        for m in messages
    ), messages


def test_megaunit_lint_rejects_a_full_register_file_exit(
    bytecode, monkeypatch
):
    # The schema-1 form handed the whole register file as a list.
    source = generate_module_source(bytecode)
    _index, node = _finish_calls(source)[0]
    lines = source.splitlines()
    line = lines[node.lineno - 1]
    head = line[: line.index("_finish(")]
    lines[node.lineno - 1] = head + "_finish(vm, _fn0, [r0], m, 0)"
    messages = _lint_tampered(monkeypatch, bytecode, "\n".join(lines) + "\n")
    assert any("does not pass (vm, m, _fn" in m for m in messages), messages


def test_megaunit_lint_rejects_the_retired_is_ref(bytecode, monkeypatch):
    # Codegen schema 2 spelled ==/!= through _is_ref; the exec namespace
    # no longer holds it, so text that still calls it must be flagged.
    assert "_is_ref" not in MEGAUNIT_NAMESPACE
    source = generate_module_source(bytecode)
    lines = source.splitlines()
    pattern = re.compile(r"\A(\s*r\d+) = (\w+) == (\w+)\Z")
    index = next(i for i, line in enumerate(lines) if pattern.match(line))
    dest, a, b = pattern.match(lines[index]).groups()
    lines[index] = (
        f"{dest} = {a} is {b} if _is_ref({a}) or _is_ref({b}) else {a} == {b}"
    )
    messages = _lint_tampered(monkeypatch, bytecode, "\n".join(lines) + "\n")
    assert any("unexpected global '_is_ref'" in m for m in messages), messages


def test_counted_megaunit_module_lints_clean(bytecode):
    assert lint_megaunit_source(bytecode, counted=True) == []
    report = verify_bytecode(bytecode)
    assert report.ok, report.format()


def test_counted_megaunit_lint_rejects_a_stray_global(bytecode, monkeypatch):
    source = generate_module_source(bytecode, counted=True)
    assert "_counts[0] += 1" in source
    tampered = source.replace("_counts[0] += 1", "_counts[0] += stray", 1)
    messages = _lint_tampered(monkeypatch, bytecode, tampered, counted=True)
    assert any("unexpected global 'stray'" in m for m in messages), messages
    # The plain module may not reach the counter list at all.
    messages = _lint_tampered(monkeypatch, bytecode, source)
    assert any("unexpected global '_counts'" in m for m in messages), messages


def test_counted_megaunit_lint_rejects_a_lost_counter(bytecode, monkeypatch):
    source = generate_module_source(bytecode, counted=True)
    tampered = source.replace("_counts[1] += 1", "_counts[0] += 1", 1)
    messages = _lint_tampered(monkeypatch, bytecode, tampered, counted=True)
    assert any("not one per function entry" in m for m in messages), messages


# ----------------------------------------------------------------------
# The translation every verb runs (``check --verify-bytecode`` checks it)
# ----------------------------------------------------------------------
def test_checked_translate_passes_clean():
    artifact = jit(LOOP_SOURCE, "main", [[8]], CONFIGURATIONS["dbds"])
    bytecode = artifact.bytecode()
    assert artifact.bytecode() is bytecode  # translated once
    assert verify_bytecode(bytecode).ok


def test_return_terminates_every_function(bytecode):
    for fn in bytecode.functions.values():
        assert any(ins[0] == OP_RETURN for ins in fn.code)
