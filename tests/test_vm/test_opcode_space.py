"""Opcode-space exhaustiveness: specs, handlers and engines agree.

The ``vm`` loop dispatches the 32 base opcodes through
``machine._HANDLERS``; ``opspec.OPCODE_SPECS`` describes their tuple
shapes for the verifier and megaunit's budget-exit analysis.  These
tests pin the invariants both depend on: the two tables cover exactly
the same opcodes, numbering is collision-free, and megaunit's codegen
emits a body for every opcode.
"""

from __future__ import annotations

import pytest

from repro.pipeline.front import ENGINES
from repro.vm.bytecode import OP_CALL, OPCODE_NAMES, BytecodeFunction
from repro.vm.machine import _HANDLERS
from repro.vm.megaunit import _FunctionCompiler
from repro.vm.opspec import OPCODE_SPECS, TERMINATOR_FAMILIES

BASE_FAMILIES = {"base", "call", "goto", "if", "return"}


def test_specs_cover_exactly_the_handler_table():
    assert set(OPCODE_SPECS) == set(range(len(_HANDLERS)))
    assert all(callable(h) for h in _HANDLERS)


def test_numbering_is_collision_free():
    # dict keys can't collide, so drift shows up as *names* colliding
    names = [spec.name for spec in OPCODE_SPECS.values()]
    assert len(names) == len(set(names))


def test_base_opcodes_are_the_first_32():
    assert len(OPCODE_NAMES) == len(OPCODE_SPECS) == 32
    for op in range(len(OPCODE_NAMES)):
        assert OPCODE_SPECS[op].family in BASE_FAMILIES
        assert OPCODE_SPECS[op].name == OPCODE_NAMES[op]


def _sample(op: int, fn: BytecodeFunction) -> tuple:
    """A well-shaped instruction tuple for ``op`` (never executed)."""
    spec = OPCODE_SPECS[op]
    edge = (0, ((2, 1),), None)
    if spec.family == "call":
        return (op, 1, None, 0, fn, (1,))
    if spec.family == "goto":
        return (op, 1, None, -1, edge)
    if spec.family == "if":
        return (op, 1, None, -1, 1, edge, edge)
    if spec.family == "return":
        return (op, 1, None, -1, 1)
    return (op, 1, None, 0) + tuple(
        1 if kind == "r" else "k" for kind in spec.sig
    )


def test_megaunit_codegen_covers_the_full_base_space():
    fn = BytecodeFunction("f", 0)
    fn.nregs, fn.template = 3, [None] * 3
    fn.code = (_sample(OP_CALL, fn),)
    for op, spec in OPCODE_SPECS.items():
        compiler = _FunctionCompiler(fn, 100, 0, {id(fn): "_mu0"})
        ins = _sample(op, fn)
        if spec.family == "call":
            compiler.gen_call(0, ins, 0)
        elif spec.terminator:
            compiler.gen_terminator(0, ins)
        else:
            compiler.gen_ins(0, ins, 1, 0)
        assert compiler.lines, spec.name
    compiler = _FunctionCompiler(fn, 100, 0, {id(fn): "_mu0"})
    with pytest.raises(AssertionError):
        compiler.gen_ins(0, (len(OPCODE_NAMES), 1, None, 0), 1, 0)


def test_terminator_flag_matches_family():
    for spec in OPCODE_SPECS.values():
        assert spec.terminator == (spec.family in TERMINATOR_FAMILIES)


def test_engine_registry_names():
    assert ENGINES == ("reference", "vm", "megaunit")
