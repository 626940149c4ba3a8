"""Cross-cutting IR invariant properties."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.progen import random_program
from repro.frontend.irbuilder import compile_source
from repro.ir import ArithOp, BinOp, verify_graph
from repro.ir.cfgutils import canonical_cfg_cleanup, reverse_post_order
from repro.ir.verifier import VerificationError


class TestUseCountIntegrity:
    def test_corrupted_use_count_detected(self, diamond):
        add = diamond["add"]
        operand = add.inputs[1]
        # Sabotage the bookkeeping directly.
        operand.uses[add] = 5
        with pytest.raises(VerificationError, match="bookkeeping"):
            verify_graph(diamond["graph"])

    def test_dangling_use_detected(self, diamond):
        g = diamond["graph"]
        x = diamond["x"]
        # An instruction that was never inserted into a block but uses x
        # is invisible; but an inserted instruction whose operand's use
        # map was cleared is caught.
        add = diamond["add"]
        phi = diamond["phi"]
        phi.uses.clear()
        with pytest.raises(VerificationError, match="bookkeeping"):
            verify_graph(g)


class TestCleanupIdempotence:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(min_value=0, max_value=10_000))
    def test_canonical_cleanup_idempotent(self, seed):
        program = compile_source(random_program(seed))
        for graph in program.functions.values():
            canonical_cfg_cleanup(graph)
            verify_graph(graph)
            blocks_after_first = len(graph.blocks)
            instructions_after_first = graph.instruction_count()
            canonical_cfg_cleanup(graph)
            assert len(graph.blocks) == blocks_after_first
            assert graph.instruction_count() == instructions_after_first

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(min_value=0, max_value=10_000))
    def test_rpo_covers_exactly_reachable_blocks(self, seed):
        program = compile_source(random_program(seed))
        for graph in program.functions.values():
            order = reverse_post_order(graph)
            assert len(order) == len(set(order))
            assert set(order) <= set(graph.blocks)
            assert order[0] is graph.entry


class TestPhaseIdempotence:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(min_value=0, max_value=10_000))
    def test_canonicalizer_fixpoint_is_stable(self, seed):
        from repro.opts.canonicalize import CanonicalizerPhase

        program = compile_source(random_program(seed))
        for graph in program.functions.values():
            CanonicalizerPhase().run(graph)
            # A second run finds nothing left to do.
            assert CanonicalizerPhase().run(graph) == 0

    #: seeds whose first run used to stop one round early: a CFG cleanup
    #: (block merge, degenerate phi) exposed rewrites nobody revisited
    @pytest.mark.parametrize("seed", [57, 551, 662, 1199, 1463])
    def test_canonicalizer_fixpoint_pinned_seeds(self, seed):
        from repro.opts.canonicalize import CanonicalizerPhase

        program = compile_source(random_program(seed))
        for graph in program.functions.values():
            CanonicalizerPhase().run(graph)
            assert CanonicalizerPhase().run(graph) == 0

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(min_value=0, max_value=10_000))
    def test_gvn_fixpoint_is_stable(self, seed):
        from repro.opts.canonicalize import CanonicalizerPhase
        from repro.opts.gvn import GlobalValueNumberingPhase

        program = compile_source(random_program(seed))
        for graph in program.functions.values():
            CanonicalizerPhase().run(graph)
            GlobalValueNumberingPhase().run(graph)
            assert GlobalValueNumberingPhase().run(graph) == 0
