"""Static bytecode verifier: checkers, tampering, orchestrator."""

from __future__ import annotations

import ast

import pytest

from repro.analysis.bcverify import (
    BytecodeVerificationError,
    lint_closure_source,
    lint_megaunit_source,
    run_bc_checkers,
    verify_artifact,
    verify_bytecode,
)
from repro.analysis.bcverify.lint import BANNED_NAMES, _lint_names
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import CONFIGURATIONS
from repro.vm.bytecode import OP_ADD, OP_CALL, OP_RETURN
from repro.vm.megaunit import finish_live_ins, generate_module_source
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
def test_clean_program_verifies(compiled, bytecode):
    report = verify_bytecode(bytecode, compiled, quicken=True)
    assert report.ok, report.format()
    # one plain report and one quickened-clone report per function
    assert len(report.reports) == 2 * len(bytecode.functions)


def test_verify_artifact_profile(compiled, bytecode):
    report = verify_artifact(compiled, bytecode)
    assert report.ok, report.format()
    # the artifact profile skips codegen lint but keeps retranslation
    checkers = {v.checker for r in report.reports for v in r.violations}
    assert "bc-codegen-lint" not in checkers


def test_report_json_shape(compiled, bytecode):
    payload = verify_bytecode(bytecode, compiled).to_json()
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


def test_structure_rejects_bad_weight(bytecode):
    fn = bytecode.function("main")
    ins = fn.xcode[0]
    fn.xcode[0] = ins[:-1] + (ins[-1] + 1,)
    report = run_bc_checkers(fn, bytecode)
    assert any(v.checker == "bc-structure" for v in report.errors())


# ----------------------------------------------------------------------
# bc-accounting / bc-xcode-equivalence
# ----------------------------------------------------------------------
def _fused_site(fn):
    pc = 0
    while pc < len(fn.xcode):
        ins = fn.xcode[pc]
        if ins[-1] >= 2:
            return pc, ins
        pc += ins[-1]
    pytest.skip("no fused site in this function")


def test_accounting_rejects_cost_drift(bytecode):
    fn = bytecode.function("main")
    pc, ins = _fused_site(fn)
    fn.xcode[pc] = ins[:1] + (ins[1] + 1,) + ins[2:]
    report = run_bc_checkers(fn, bytecode)
    assert any(v.checker == "bc-accounting" for v in report.errors())


def test_accounting_rejects_dropped_halves(bytecode):
    fn = bytecode.function("main")
    pc, ins = _fused_site(fn)
    fn.xcode[pc] = ins[:-2] + ((), ins[-1])
    report = run_bc_checkers(fn, bytecode)
    assert not report.ok


def test_equivalence_rejects_padding_tamper(bytecode):
    fn = bytecode.function("main")
    pc, ins = _fused_site(fn)
    # the slot after a weight-2 superinstruction is unreachable padding
    pad = fn.xcode[pc + 1]
    fn.xcode[pc + 1] = pad[:1] + (pad[1] + 5,) + pad[2:]
    report = run_bc_checkers(fn, bytecode)
    assert any(
        v.checker == "bc-xcode-equivalence" for v in report.errors()
    )


def test_equivalence_rejects_code_xcode_divergence(bytecode):
    fn = bytecode.function("main")
    pc = next(i for i, ins in enumerate(fn.code) if ins[0] == OP_ADD)
    ins = fn.code[pc]
    # change the code stream only: the fast stream no longer decompiles
    _replace(fn, pc, ins[:1] + (ins[1] + 2,) + ins[2:])
    report = run_bc_checkers(fn, bytecode)
    assert not report.ok


# ----------------------------------------------------------------------
# bc-retranslate (orchestrator-level)
# ----------------------------------------------------------------------
def test_retranslate_catches_template_tamper(compiled, bytecode):
    fn = bytecode.function("main")
    for reg in range(fn.const_base, fn.const_base + fn.const_count):
        if type(fn.template[reg]) is int:
            fn.template = list(fn.template)
            fn.template[reg] += 3
            break
    else:
        pytest.skip("no integer constant in template")
    report = verify_bytecode(bytecode, compiled)
    assert any(v.checker == "bc-retranslate" for v in report.errors())


def test_retranslate_catches_dropped_blocks(compiled, bytecode):
    bytecode.function("main").blocks = ()
    report = verify_bytecode(bytecode, compiled)
    assert not report.ok


def test_retranslate_catches_missing_function(compiled, bytecode):
    del bytecode.functions["helper"]
    report = verify_bytecode(bytecode, compiled)
    assert any("function set" in v.message for v in report.errors())


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
    for fn in bytecode.functions.values():
        assert lint_closure_source(fn) == []


def test_lint_flags_banned_names():
    assert "eval" in BANNED_NAMES and "exec" in BANNED_NAMES
    tree = ast.parse("def _blk_0(vm, r, m, state):\n    eval('1')\n")
    messages: list[str] = []
    _lint_names(tree.body[0], messages)
    assert any("banned name 'eval'" in m for m in messages)


def test_lint_flags_unknown_globals():
    tree = ast.parse("def _blk_0(vm, r, m, state):\n    r[0] = os\n")
    messages: list[str] = []
    _lint_names(tree.body[0], messages)
    assert any("unexpected global 'os'" in m for m in messages)


def test_lint_catches_block_table_tamper(bytecode):
    fn = bytecode.function("main")
    # claim an extra instruction in the entry block: codegen (or its
    # accounting) no longer agrees with the block spans
    start, count, name = fn.blocks[0]
    fn.blocks = ((start, count + 1, name),) + tuple(fn.blocks[1:])
    assert lint_closure_source(fn) != []


def test_lint_catches_unbalanced_accounting():
    from repro.analysis.bcverify.lint import _lint_accounting

    func = ast.parse(
        "def _blk_0(vm, r, m, state):\n"
        "    m[0] += 2\n"
        "    m[1] += 5\n"
    ).body[0]
    code = ((0, 7, None, 0, 1, 2),) * 3
    messages: list[str] = []
    # the block claims 3 instructions costing 21 cycles; the closure
    # only accounts for 2 steps and 5 cycles
    _lint_accounting(func, 0, {0: 3}, code, True, messages)
    assert any("step increments sum to 2" in m for m in messages)

    messages = []
    steps_ok = ast.parse(
        "def _blk_0(vm, r, m, state):\n"
        "    m[0] += 3\n"
        "    m[1] += 5\n"
    ).body[0]
    _lint_accounting(steps_ok, 0, {0: 3}, code, True, messages)
    assert any("cycle increments sum to 5" in m for m in messages)


def test_lint_catches_missing_trap_flush():
    from repro.analysis.bcverify.lint import _lint_trap_flushes

    func = ast.parse(
        "def _blk_0(vm, r, m, state):\n"
        "    if r[0] == 0:\n"
        "        raise EvaluationTrap('division by zero')\n"
    ).body[0]
    messages: list[str] = []
    _lint_trap_flushes(func, messages)
    assert any("state.steps flush" in m for m in messages)

    flushed = ast.parse(
        "def _blk_0(vm, r, m, state):\n"
        "    if r[0] == 0:\n"
        "        state.steps = m[0] + 1\n"
        "        raise EvaluationTrap('division by zero')\n"
    ).body[0]
    messages = []
    _lint_trap_flushes(flushed, messages)
    assert messages == []


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
    assert any("does not pass (vm, _fn" in m for m in messages), messages


def test_counted_megaunit_module_lints_clean(compiled, bytecode):
    for metered in (False, True):
        assert lint_megaunit_source(
            bytecode, metered=metered, counted=True
        ) == []
    report = verify_bytecode(bytecode, compiled, quicken=True)
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
# translate_program(check_bc=...)
# ----------------------------------------------------------------------
def test_checked_translate_passes_clean(compiled):
    bytecode = translate_program(compiled, check_bc="rewrite")
    assert bytecode.function("main").code


def test_checked_translate_raises_on_violation(compiled, monkeypatch):
    import repro.vm.fusion as fusion

    real = fusion.fuse_function

    def sabotage(fn, plan):
        result = real(fn, plan)
        if fn.xcode is not None and fn.name == "main":
            ins = fn.xcode[0]
            fn.xcode[0] = ins[:1] + (ins[1] + 1,) + ins[2:]
        return result

    monkeypatch.setattr(fusion, "fuse_function", sabotage)
    with pytest.raises(BytecodeVerificationError) as excinfo:
        translate_program(compiled, check_bc="rewrite")
    assert not excinfo.value.report.ok


def test_return_terminates_every_function(bytecode):
    for fn in bytecode.functions.values():
        assert any(ins[0] == OP_RETURN for ins in fn.code)
