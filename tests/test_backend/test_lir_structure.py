"""Structural tests on LIR containers and dumps."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.progen import random_program
from repro.backend.lir import PReg, StackSlot, VReg, fresh_vreg, Immediate
from repro.backend.lowering import lower_graph, lower_program
from repro.backend.regalloc import allocate, allocate_program
from repro.frontend.irbuilder import compile_source


class TestContainers:
    def test_fresh_vregs_unique(self):
        regs = [fresh_vreg() for _ in range(100)]
        assert len({r.id for r in regs}) == 100

    def test_operand_hashability(self):
        # The machine keys frames by operand; all kinds must hash.
        frame = {PReg(0): 1, StackSlot(2): 2, fresh_vreg(): 3}
        assert len(frame) == 3
        assert PReg(0) == PReg(0) and StackSlot(2) == StackSlot(2)

    def test_describe_contains_blocks(self):
        program = compile_source(
            "fn f(x: int) -> int { if (x > 0) { return 1; } return 2; }"
        )
        fn = lower_graph(program.function("f"))
        text = fn.describe()
        assert "lir f" in text
        assert "L0:" in text
        assert "br" in text and "ret" in text

    def test_instruction_count(self):
        program = compile_source("fn f(a: int) -> int { return a + 1; }")
        fn = lower_graph(program.function("f"))
        assert fn.instruction_count() == 2  # add + ret

    def test_block_order_sorted(self):
        program = compile_source(
            "fn f(x: int) -> int { if (x > 0) { return 1; } return 2; }"
        )
        fn = lower_graph(program.function("f"))
        ids = [b.id for b in fn.block_order()]
        assert ids == sorted(ids)


class TestAllocationProperties:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=8),
    )
    def test_register_file_bound_respected(self, seed, registers):
        program = compile_source(random_program(seed))
        lir = lower_program(program)
        results = allocate_program(lir, registers)
        for name, fn in lir.functions.items():
            used = set()
            for block in fn.blocks.values():
                for ins in block.instructions:
                    for op in list(ins.uses()) + list(ins.defs()):
                        if isinstance(op, PReg):
                            used.add(op.index)
                        assert not isinstance(op, VReg)
            assert all(0 <= r < registers for r in used), name

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(min_value=0, max_value=10_000))
    def test_stack_slots_unique_per_function(self, seed):
        program = compile_source(random_program(seed))
        lir = lower_program(program)
        results = allocate_program(lir, 3)
        for name, result in results.items():
            slots = [
                loc.index
                for loc in result.mapping.values()
                if isinstance(loc, StackSlot)
            ]
            assert len(slots) == len(set(slots)), name
            assert lir.function(name).frame_slots == len(slots)
