"""Tests for CFG traversals and structural cleanup passes."""

import pytest

from repro.ir import (
    ArithOp,
    BinOp,
    CmpOp,
    Compare,
    Goto,
    Graph,
    If,
    INT,
    Phi,
    Return,
    verify_graph,
)
from repro.ir.cfgutils import (
    _walk_reverse_post_order,
    canonical_cfg_cleanup,
    fold_redundant_ifs,
    insert_block_on_edge,
    merge_straightline_blocks,
    reachable_blocks,
    remove_unreachable_blocks,
    reverse_post_order,
    simplify_degenerate_phis,
    split_critical_edges,
)


class TestReversePostOrder:
    def test_entry_first(self, diamond):
        order = reverse_post_order(diamond["graph"])
        assert order[0] is diamond["graph"].entry

    def test_merge_after_predecessors(self, diamond):
        order = reverse_post_order(diamond["graph"])
        merge = diamond["merge"]
        assert order.index(merge) > order.index(diamond["true_block"])
        assert order.index(merge) > order.index(diamond["false_block"])

    def test_excludes_unreachable(self, diamond):
        g = diamond["graph"]
        dead = g.new_block("dead")
        dead.set_terminator(Return(None))
        assert dead not in reverse_post_order(g)
        assert dead not in reachable_blocks(g)

    def test_loop_header_before_body(self):
        g = Graph("loop", [("n", INT)], INT)
        header, body, exit_ = g.new_block("h"), g.new_block("b"), g.new_block("e")
        g.entry.set_terminator(Goto(header))
        cond = header.append(Compare(CmpOp.LT, g.const_int(0), g.parameters[0]))
        header.set_terminator(If(cond, body, exit_))
        body.set_terminator(Goto(header))
        exit_.set_terminator(Return(g.const_int(0)))
        order = reverse_post_order(g)
        assert order.index(header) < order.index(body)


def _detour(d):
    """Send the true branch to a terminator-less ``tail`` and park a
    ``Goto merge`` in an unreachable block, for ``move_terminator``."""
    g = d["graph"]
    tail, parked = g.new_block("tail"), g.new_block("parked")
    d["true_block"].set_terminator(Goto(tail))
    parked.set_terminator(Goto(d["merge"]))
    return tail, parked


def _exit_block(g):
    block = g.new_block("exit")
    block.set_terminator(Return(None))
    return block


def _dead_edge_into_merge(d):
    g = d["graph"]
    dead = g.new_block("dead")
    dead.set_terminator(Goto(d["merge"]))
    d["phi"]._append_input(g.const_int(99))
    return dead


#: one CFG edit each: prepare(diamond) -> state, edit(diamond, state)
CFG_EDITS = {
    "set_terminator": (
        lambda d: None,
        lambda d, _: d["graph"].entry.set_terminator(Goto(d["true_block"])),
    ),
    "set_target": (
        lambda d: _exit_block(d["graph"]),
        lambda d, exit_: d["graph"].entry.terminator.set_target(1, exit_),
    ),
    "route_through": (
        lambda d: d["graph"].new_block("via"),
        lambda d, via: d["merge"].route_through(d["true_block"], via),
    ),
    "move_terminator": (
        _detour,
        lambda d, state: state[1].move_terminator(state[0]),
    ),
    "new_block": (
        lambda d: None,
        lambda d, _: d["graph"].new_block("fresh"),
    ),
    "remove_block": (
        _dead_edge_into_merge,
        lambda d, dead: d["graph"].remove_block(dead),
    ),
}


@pytest.mark.parametrize("edit", sorted(CFG_EDITS))
def test_cached_order_is_a_fresh_walk_after_each_cfg_edit(diamond, edit):
    prepare, apply = CFG_EDITS[edit]
    g = diamond["graph"]
    state = prepare(diamond)
    before = list(reverse_post_order(g))
    assert reverse_post_order(g) is reverse_post_order(g)  # cached
    apply(diamond, state)
    assert reverse_post_order(g) == _walk_reverse_post_order(g)
    if edit not in ("new_block", "remove_block"):
        # Unreachable blocks come and go without moving the order; every
        # other edit here changes it, so a stale order would fail above.
        assert reverse_post_order(g) != before


class TestUnreachableRemoval:
    def test_removes_dead_region(self, diamond):
        g = diamond["graph"]
        dead1 = g.new_block("dead1")
        dead2 = g.new_block("dead2")
        dead1.set_terminator(Goto(dead2))
        dead2.set_terminator(Return(None))
        removed = remove_unreachable_blocks(g)
        assert removed == 2
        assert dead1 not in g.blocks and dead2 not in g.blocks
        verify_graph(g)

    def test_dead_edge_into_live_merge_is_cleaned(self, diamond):
        g = diamond["graph"]
        merge = diamond["merge"]
        dead = g.new_block("dead")
        dead.set_terminator(Goto(merge))
        # The phi gains an input for the dead edge.
        diamond["phi"]._append_input(g.const_int(99))
        remove_unreachable_blocks(g)
        assert len(merge.predecessors) == 2
        assert len(diamond["phi"].inputs) == 2
        verify_graph(g)

    def test_noop_when_all_reachable(self, diamond):
        assert remove_unreachable_blocks(diamond["graph"]) == 0


class TestCriticalEdges:
    def test_insert_block_on_edge_preserves_phi_positions(self, diamond):
        g = diamond["graph"]
        merge, phi = diamond["merge"], diamond["phi"]
        original_inputs = phi.inputs
        edge_block = insert_block_on_edge(g, diamond["true_block"], merge)
        assert merge.predecessors[0] is edge_block
        assert phi.inputs == original_inputs
        verify_graph(g)

    def test_split_critical_edges(self):
        # entry branches directly into a merge: both edges critical.
        g = Graph("crit", [("x", INT)], INT)
        other = g.new_block("other")
        merge = g.new_block("merge")
        cond = g.entry.append(Compare(CmpOp.GT, g.parameters[0], g.const_int(0)))
        g.entry.set_terminator(If(cond, merge, other))
        other.set_terminator(Goto(merge))
        phi = Phi(merge, INT, [g.const_int(1), g.const_int(2)])
        merge.add_phi(phi)
        merge.set_terminator(Return(phi))
        split = split_critical_edges(g)
        assert split == 1
        verify_graph(g)

    def test_no_split_needed(self, diamond):
        assert split_critical_edges(diamond["graph"]) == 0


class TestFoldRedundantIfs:
    def test_identical_targets_fold(self):
        g = Graph("f", [("x", INT)], INT)
        target = g.new_block()
        cond = g.entry.append(Compare(CmpOp.GT, g.parameters[0], g.const_int(0)))
        branch = If(cond, target, target)
        # install raw (If with identical targets is transient state)
        g.entry.terminator = branch
        branch.block = g.entry
        target.add_predecessor(g.entry)
        target.add_predecessor(g.entry)
        target.set_terminator(Return(None))
        assert fold_redundant_ifs(g) == 1
        assert isinstance(g.entry.terminator, Goto)
        assert target.predecessors == [g.entry]


class TestDegeneratePhis:
    def test_single_pred_phi_collapses(self, diamond):
        g = diamond["graph"]
        merge, phi = diamond["merge"], diamond["phi"]
        # Retarget the false branch away from the merge; its edge (and
        # the corresponding phi input) disappears.
        diamond["false_block"].set_terminator(Return(g.const_int(0)))
        count = simplify_degenerate_phis(g)
        assert count == 1
        assert phi.block is None
        assert diamond["add"].inputs[1] is diamond["x"]

    def test_identical_inputs_collapse(self, diamond):
        g = diamond["graph"]
        phi = diamond["phi"]
        phi.set_input(1, diamond["x"])
        assert simplify_degenerate_phis(g) == 1
        assert diamond["add"].inputs[1] is diamond["x"]

    def test_loop_phi_with_self_input_collapses(self):
        g = Graph("loop", [("n", INT)], INT)
        header, body, exit_ = g.new_block("h"), g.new_block("b"), g.new_block("e")
        g.entry.set_terminator(Goto(header))
        phi = Phi(header, INT, [g.parameters[0]])
        header.add_phi(phi)
        cond = header.append(Compare(CmpOp.GT, phi, g.const_int(0)))
        header.set_terminator(If(cond, body, exit_))
        body.set_terminator(Goto(header))
        phi._append_input(phi)  # invariant through the loop
        exit_.set_terminator(Return(phi))
        assert simplify_degenerate_phis(g) == 1
        assert exit_.terminator.value is g.parameters[0]


class TestStraightlineMerging:
    def test_fuses_goto_chain(self):
        g = Graph("chain", [("x", INT)], INT)
        b1, b2 = g.new_block(), g.new_block()
        g.entry.set_terminator(Goto(b1))
        add = b1.append(ArithOp(BinOp.ADD, g.parameters[0], g.const_int(1)))
        b1.set_terminator(Goto(b2))
        b2.set_terminator(Return(add))
        fused = merge_straightline_blocks(g)
        assert fused == 2
        assert len(g.blocks) == 1
        assert g.entry.instructions == [add]
        assert isinstance(g.entry.terminator, Return)
        verify_graph(g)

    def test_does_not_fuse_merge(self, diamond):
        g = diamond["graph"]
        before = len(g.blocks)
        merge_straightline_blocks(g)
        # merge has 2 preds: nothing to fuse.
        assert len(g.blocks) == before


class TestPredecessorPairs:
    def test_canonical_cleanup_keeps_valid(self, diamond):
        canonical_cfg_cleanup(diamond["graph"])
        verify_graph(diamond["graph"])
