"""Opcode-space exhaustiveness: specs, handlers and engines agree.

The extended opcode space grows by appending — fusion and quickening
register handlers into ``machine.XHANDLERS`` and shapes into
``opspec.OPCODE_SPECS`` side by side.  These tests pin the invariants
the verifier (and the pickled cache format) depend on: the two tables
cover exactly the same opcodes, numbering is collision-free, every
fused/quickened form decomposes into base opcodes every engine can run,
and the fast loops' inline-dispatch bindings stay sound.
"""

from __future__ import annotations

import repro.vm.quicken  # noqa: F401  (registers fusion's opcodes, then its own)
from repro.pipeline.compiler import ALL_ENGINES, ENGINES
from repro.vm.bytecode import OPCODE_NAMES
from repro.vm.closure import CLOSURE_COVERED
from repro.vm.machine import XHANDLERS, fast_op_bindings
from repro.vm.opspec import (
    BASE_FAMILIES,
    OPCODE_SPECS,
    TERMINATOR_FAMILIES,
)

#: families whose handlers may return a negative pc (returns) or embed
#: an arbitrary second half — they must sit *below* the fast loops'
#: range-dispatch base so the return-pc check still runs for them
_RANGE_UNSAFE = BASE_FAMILIES | {"fused-if", "fused2", "fused2-goto"}


def test_specs_cover_exactly_the_handler_table():
    assert set(OPCODE_SPECS) == set(range(len(XHANDLERS)))
    assert all(callable(h) for h in XHANDLERS)


def test_numbering_is_collision_free():
    # dict keys can't collide, so drift shows up as *names* colliding
    names = [spec.name for spec in OPCODE_SPECS.values()]
    assert len(names) == len(set(names))


def test_base_opcodes_are_the_first_32():
    for op in range(len(OPCODE_NAMES)):
        assert OPCODE_SPECS[op].family in BASE_FAMILIES
        assert OPCODE_SPECS[op].name == OPCODE_NAMES[op]
    for op in range(len(OPCODE_NAMES), len(XHANDLERS)):
        assert OPCODE_SPECS[op].family not in BASE_FAMILIES


def test_every_extended_opcode_decomposes_to_base_opcodes():
    """Each fused/quickened form names base-opcode origins, so the
    nofuse engine (plain ``fn.code``) always has a generic fallback and
    the accounting checker can price the constituents."""
    for op in range(len(OPCODE_NAMES), len(XHANDLERS)):
        spec = OPCODE_SPECS[op]
        if spec.family in ("fused2", "fused2-goto"):
            # dynamic pair fusion: constituents live in the tuple itself
            assert spec.origin == ()
            continue
        assert spec.origin, spec.name
        assert all(0 <= o < len(OPCODE_NAMES) for o in spec.origin), spec.name


def test_weights_match_family():
    expected = {
        "fused-if": 2, "fused-pair": 2, "fused-goto": 2,
        "fused-triple": 3, "fused2": 2, "fused2-goto": 2,
        "quick-const": 1, "quick-guard": 1,
    }
    for spec in OPCODE_SPECS.values():
        if spec.family in BASE_FAMILIES:
            assert spec.weight == 1
        else:
            assert spec.weight == expected[spec.family], spec.name


def test_closure_engine_covers_the_full_base_space():
    assert CLOSURE_COVERED == frozenset(range(len(OPCODE_NAMES)))


def test_fast_dispatch_bindings_are_sound():
    spec_base, if_lt, if_gt, if_ge = fast_op_bindings()
    assert spec_base <= len(XHANDLERS)
    # the dedicated inline arms point at the fused compare+branch forms
    for op, name in ((if_lt, "if_lt"), (if_gt, "if_gt"), (if_ge, "if_ge")):
        assert OPCODE_SPECS[op].name == name
        assert OPCODE_SPECS[op].family == "fused-if"
        assert op < spec_base
    # everything dispatched by range must hand back a non-negative pc:
    # no returns, no calls, no embedded arbitrary second halves
    for op in range(spec_base, len(XHANDLERS)):
        assert OPCODE_SPECS[op].family not in _RANGE_UNSAFE, (
            op, OPCODE_SPECS[op].name
        )


def test_terminator_flag_matches_family():
    for spec in OPCODE_SPECS.values():
        assert spec.terminator == (spec.family in TERMINATOR_FAMILIES)


def test_engine_registry_names():
    assert set(ENGINES) <= set(ALL_ENGINES)
    assert "vm-nofuse" in ALL_ENGINES
