"""The graph change log: each IR mutation method logs itself.

Every test starts from the Figure 1 diamond at a canonicalizer
fixpoint, so the log keeps its sets and starts empty, then makes one
edit through one entry point and checks what it logged.
"""

from __future__ import annotations

import pickle

import pytest

from repro.ir import ArithOp, BinOp, Goto, Phi, Return
from repro.ir.cfgutils import insert_block_on_edge
from repro.ir.types import INT
from repro.opts.canonicalize import CanonicalizerPhase


@pytest.fixture
def d(diamond):
    CanonicalizerPhase().run(diamond["graph"])
    log = diamond["graph"].changes
    assert log.fixpoint == log.serial
    assert not log.revisit and not log.dead and not log.cfg
    diamond["log"] = log
    diamond["serial"] = log.serial
    return diamond


def logged(d) -> int:
    """How many writes the edit made."""
    return d["log"].serial - d["serial"]


def test_a_new_graph_is_all_dirty_and_keeps_no_sets(diamond):
    log = diamond["graph"].changes
    assert log.fixpoint is None and log.revisit is None and log.dead is None
    assert log.serial > 0  # the edits that built the graph were counted


def test_set_input_logs_the_user_its_users_and_the_lost_value(d):
    g, cond = d["graph"], d["cond"]
    cond.set_input(1, g.const_int(5))
    assert logged(d) == 1
    assert cond in d["log"].revisit
    assert g.entry.terminator in d["log"].revisit  # a user of the user
    assert g.const_int(0) in d["log"].dead
    assert not d["log"].cfg


def test_a_phi_input_edit_is_a_cfg_change(d):
    d["phi"].set_input(0, d["graph"].const_int(7))
    assert d["log"].cfg
    assert d["add"] in d["log"].revisit


def test_phi_input_add_logs_the_phi(d):
    d["phi"]._append_input(d["x"])
    assert logged(d) == 1
    assert d["log"].cfg and d["phi"] in d["log"].revisit


def test_phi_input_remove_logs_the_lost_value(d):
    d["phi"]._remove_input_at(1)
    assert logged(d) == 1
    assert d["log"].cfg and d["graph"].const_int(0) in d["log"].dead


def test_insert_logs_the_instruction(d):
    ins = ArithOp(BinOp.MUL, d["x"], d["x"])
    d["merge"].insert(0, ins)
    assert logged(d) == 1
    assert ins in d["log"].revisit and ins in d["log"].dead
    assert not d["log"].cfg


def test_append_logs_the_instruction(d):
    ins = d["true_block"].append(ArithOp(BinOp.MUL, d["x"], d["x"]))
    assert logged(d) == 1
    assert ins in d["log"].revisit and ins in d["log"].dead


def test_add_phi_logs_a_dead_candidate_and_a_cfg_change(d):
    phi = d["merge"].add_phi(Phi(d["merge"], INT, [d["x"], d["x"]]))
    assert logged(d) == 1
    assert phi in d["log"].dead and d["log"].cfg


def test_remove_instruction_logs_its_inputs(d):
    ins = d["true_block"].append(ArithOp(BinOp.MUL, d["x"], d["x"]))
    d["graph"].changes.reached_fixpoint()
    d["serial"] = d["log"].serial
    d["true_block"].remove_instruction(ins)
    assert logged(d) == 1
    assert d["log"].dead == {d["x"]}
    assert not d["log"].cfg


def test_removing_a_phi_is_a_cfg_change(d):
    d["add"].set_input(1, d["x"])
    d["graph"].changes.reached_fixpoint()
    d["merge"].remove_instruction(d["phi"])
    assert d["log"].cfg


def test_set_terminator_logs_the_new_terminator_and_the_old_inputs(d):
    g = d["graph"]
    goto = g.entry.set_terminator(Goto(d["true_block"]))
    assert d["log"].cfg
    assert goto in d["log"].revisit
    assert d["cond"] in d["log"].dead  # the old If's condition


def test_clear_terminator_logs_a_cfg_change(d):
    d["merge"].clear_terminator()
    assert logged(d) >= 1
    assert d["log"].cfg and d["add"] in d["log"].dead


def test_predecessor_edits_log_a_cfg_change(d):
    merge, bt = d["merge"], d["true_block"]
    merge.add_predecessor(bt)
    assert logged(d) == 1 and d["log"].cfg
    d["log"].cfg = False
    merge.remove_predecessor(bt)
    assert d["log"].cfg


def test_replace_and_reorder_predecessors_log_a_cfg_change(d):
    merge, bt, bf = d["merge"], d["true_block"], d["false_block"]
    merge.reorder_predecessors([bf, bt])
    assert logged(d) == 1 and d["log"].cfg
    edge = d["graph"].new_block()
    d["log"].cfg = False
    d["serial"] = d["log"].serial
    merge.replace_predecessor(bt, edge)
    assert logged(d) == 1 and d["log"].cfg


def test_new_block_and_remove_block_log_a_cfg_change(d):
    g = d["graph"]
    block = g.new_block()
    assert logged(d) == 1 and d["log"].cfg
    d["log"].cfg = False
    ins = block.append(ArithOp(BinOp.MUL, d["x"], d["x"]))
    block.set_terminator(Return(ins))
    d["log"].reached_fixpoint()
    g.remove_block(block)
    assert d["log"].cfg and d["x"] in d["log"].dead


def test_invalidate_analyses_logs_a_cfg_change(d):
    d["graph"].invalidate_analyses()
    assert logged(d) == 1 and d["log"].cfg


def test_moving_instructions_changes_only_the_serial(d):
    ins = d["true_block"].append(ArithOp(BinOp.MUL, d["x"], d["x"]))
    d["log"].reached_fixpoint()
    d["serial"] = d["log"].serial
    d["true_block"].move_instructions([ins], d["false_block"])
    assert logged(d) == 1
    assert ins.block is d["false_block"] and d["false_block"].instructions == [ins]
    assert not d["log"].revisit and not d["log"].dead and not d["log"].cfg


def test_move_terminator_keeps_the_edge_slots(d):
    g, bt, merge = d["graph"], d["true_block"], d["merge"]
    block = g.new_block()
    slot = merge.predecessors.index(bt)
    bt.move_terminator(block)
    assert d["log"].cfg
    assert merge.predecessors[slot] is block and bt.terminator is None


def test_route_through_logs_the_new_goto(d):
    edge = insert_block_on_edge(d["graph"], d["true_block"], d["merge"])
    assert d["log"].cfg and edge.terminator in d["log"].revisit
    assert d["merge"].predecessors[0] is edge


def test_untracked_writes_count_but_keep_no_sets(diamond):
    log = diamond["graph"].changes
    serial = log.serial
    diamond["cond"].set_input(1, diamond["graph"].const_int(3))
    assert log.serial == serial + 1 and log.revisit is None


def test_a_pickled_graph_drops_its_log_and_counts_as_all_dirty(d):
    d["cond"].set_input(1, d["graph"].const_int(5))
    blob = pickle.dumps(d["graph"])
    assert b"ChangeLog" not in blob
    clone = pickle.loads(blob)
    assert clone.changes.fixpoint is None and clone.changes.serial == 0
    assert [b.id for b in clone.blocks] == [b.id for b in d["graph"].blocks]
