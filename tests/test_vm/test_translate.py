"""Unit tests for the IR-to-bytecode translator."""

import pytest

from repro.frontend.irbuilder import compile_source
from repro.vm.bytecode import (
    OP_CALL,
    OP_GOTO,
    OP_IF,
    OP_RETURN,
    OPCODE_NAMES,
    disassemble,
)
from repro.vm.translate import _sequentialize, translate_graph, translate_program

DIAMOND = """
fn main(x: int) -> int {
  var p: int = 0;
  if (x > 0) { p = x; } else { p = 7; }
  return 2 + p;
}
"""

TWO_FUNCTIONS = """
fn helper(a: int) -> int { return a * 3; }
fn main(x: int) -> int { return helper(x) + 1; }
"""

GLOBALS = """
global counter: int;
fn main(x: int) -> int {
  counter = counter + x;
  return counter;
}
"""


# ----------------------------------------------------------------------
# Parallel-copy sequentialization
# ----------------------------------------------------------------------
def test_sequentialize_independent_moves():
    assert _sequentialize([(1, 2), (3, 4)], scratch=9) == ((1, 2), (3, 4))


def test_sequentialize_drops_self_moves():
    assert _sequentialize([(1, 1), (2, 3)], scratch=9) == ((2, 3),)


def test_sequentialize_orders_chain():
    # r1 <- r2 <- r3: r2 must be copied out of before being clobbered.
    out = _sequentialize([(2, 3), (1, 2)], scratch=9)
    assert out == ((1, 2), (2, 3))


def test_sequentialize_breaks_swap_cycle_with_scratch():
    out = _sequentialize([(1, 2), (2, 1)], scratch=9)
    assert out == ((9, 1), (1, 2), (2, 9))


def test_sequentialize_three_cycle():
    out = _sequentialize([(1, 2), (2, 3), (3, 1)], scratch=9)
    # Simulate the emitted moves and check the permutation happened.
    regs = {1: "a", 2: "b", 3: "c", 9: None}
    for d, s in out:
        regs[d] = regs[s]
    assert (regs[1], regs[2], regs[3]) == ("b", "c", "a")


# ----------------------------------------------------------------------
# Register layout and encoding
# ----------------------------------------------------------------------
def test_template_materializes_constants():
    program = compile_source(DIAMOND)
    fn = translate_graph(program, program.function("main"))
    assert fn.nparams == 1
    # Every interned constant appears ready-made in the template.
    assert {0, 2, 7}.issubset(set(v for v in fn.template if isinstance(v, int)))


def test_every_code_entry_is_a_flat_tuple():
    program = compile_source(DIAMOND)
    fn = translate_graph(program, program.function("main"))
    assert isinstance(fn.code, tuple) and fn.code
    for ins in fn.code:
        assert isinstance(ins, tuple)
        assert 0 <= ins[0] < len(OPCODE_NAMES)
        assert isinstance(ins[1], (int, float))  # baked cycle cost


def test_branch_targets_are_instruction_indices():
    program = compile_source(DIAMOND)
    fn = translate_graph(program, program.function("main"))
    size = len(fn.code)
    for ins in fn.code:
        if ins[0] == OP_GOTO:
            assert 0 <= ins[4][0] < size
        elif ins[0] == OP_IF:
            assert 0 <= ins[5][0] < size and 0 <= ins[6][0] < size


def test_phis_lower_to_edge_moves():
    program = compile_source(DIAMOND)
    fn = translate_graph(program, program.function("main"))
    edges = []
    for ins in fn.code:
        if ins[0] == OP_GOTO:
            edges.append(ins[4])
        elif ins[0] == OP_IF:
            edges.extend([ins[5], ins[6]])
    # No PHI opcode exists; the merge's phi shows up as (dst, src)
    # register moves (or pre-materialized constants) on incoming edges,
    # which are (target_pc, moves, target_block) descriptors.
    assert all(len(edge) == 3 for edge in edges)
    moved = [edge for edge in edges if edge[1]]
    assert moved, "edges into the merge must carry the phi's moves"
    assert all(edge[2].phis for edge in moved)
    assert all(
        isinstance(d, int) and isinstance(s, int)
        for edge in moved for d, s in edge[1]
    )


def test_translate_program_covers_all_functions_and_globals():
    bytecode = translate_program(compile_source(GLOBALS))
    assert set(bytecode.functions) == {"main"}
    assert ("counter", 0) in bytecode.globals_init

    bytecode = translate_program(compile_source(TWO_FUNCTIONS))
    assert set(bytecode.functions) == {"helper", "main"}
    call = [i for i in bytecode.function("main").code if i[0] == OP_CALL]
    # Calls reference the callee's BytecodeFunction shell directly.
    assert call and call[0][4] is bytecode.function("helper")


def test_entry_block_recorded_for_profiling():
    program = compile_source(DIAMOND)
    fn = translate_graph(program, program.function("main"))
    assert fn.entry_block is program.function("main").entry


def test_return_encodes_missing_value_as_negative():
    program = compile_source("fn main(x: int) { return; }")
    fn = translate_graph(program, program.function("main"))
    returns = [i for i in fn.code if i[0] == OP_RETURN]
    assert returns and returns[0][4] == -1


def test_disassemble_mentions_opcodes_and_registers():
    program = compile_source(DIAMOND)
    fn = translate_graph(program, program.function("main"))
    listing = disassemble(fn)
    assert "fn main" in listing
    assert "if" in listing and "return" in listing
    assert "r0" in listing


def test_translation_is_deterministic():
    program = compile_source(DIAMOND)
    a = translate_graph(program, program.function("main"))
    b = translate_graph(program, program.function("main"))
    assert a.nregs == b.nregs
    assert len(a.code) == len(b.code)
    assert [i[0] for i in a.code] == [i[0] for i in b.code]


def test_unknown_function_lookup_raises_keyerror():
    bytecode = translate_program(compile_source(DIAMOND))
    with pytest.raises(KeyError):
        bytecode.function("nope")
