"""Tests for basic-block structure and edge maintenance."""

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
)


@pytest.fixture
def graph():
    return Graph("f", [("x", INT)], INT)


class TestTerminatorInstallation:
    def test_set_terminator_registers_predecessors(self, graph):
        b = graph.new_block()
        graph.entry.set_terminator(Goto(b))
        assert b.predecessors == [graph.entry]
        assert graph.entry.successors == (b,)

    def test_replacing_terminator_unregisters(self, graph):
        b, c = graph.new_block(), graph.new_block()
        graph.entry.set_terminator(Goto(b))
        graph.entry.set_terminator(Goto(c))
        assert b.predecessors == []
        assert c.predecessors == [graph.entry]

    def test_if_registers_both_targets(self, graph):
        x = graph.parameters[0]
        t, f = graph.new_block(), graph.new_block()
        cond = graph.entry.append(Compare(CmpOp.GT, x, graph.const_int(0)))
        graph.entry.set_terminator(If(cond, t, f))
        assert t.predecessors == [graph.entry]
        assert f.predecessors == [graph.entry]
        assert graph.entry.successors == (t, f)

    def test_clear_terminator(self, graph):
        b = graph.new_block()
        graph.entry.set_terminator(Goto(b))
        graph.entry.clear_terminator()
        assert graph.entry.terminator is None
        assert b.predecessors == []


class TestPredecessorRemoval:
    def test_remove_predecessor_drops_phi_input(self, graph):
        x = graph.parameters[0]
        p1, p2, m = graph.new_block(), graph.new_block(), graph.new_block()
        p1.set_terminator(Goto(m))
        p2.set_terminator(Goto(m))
        phi = Phi(m, INT, [x, graph.const_int(0)])
        m.add_phi(phi)
        index = m.remove_predecessor(p1)
        assert index == 0
        assert m.predecessors == [p2]
        assert phi.inputs == (graph.const_int(0),)

    def test_remove_unknown_predecessor_raises(self, graph):
        m = graph.new_block()
        with pytest.raises(ValueError):
            m.remove_predecessor(graph.entry)

    def test_predecessor_index(self, graph):
        p1, p2, m = graph.new_block(), graph.new_block(), graph.new_block()
        p1.set_terminator(Goto(m))
        p2.set_terminator(Goto(m))
        assert m.predecessor_index(p1) == 0
        assert m.predecessor_index(p2) == 1


class TestInstructionManagement:
    def test_append_sets_block(self, graph):
        x = graph.parameters[0]
        add = graph.entry.append(ArithOp(BinOp.ADD, x, x))
        assert add.block is graph.entry
        assert graph.entry.instructions == [add]

    def test_insert_at_position(self, graph):
        x = graph.parameters[0]
        a = graph.entry.append(ArithOp(BinOp.ADD, x, x))
        b = graph.entry.insert(0, ArithOp(BinOp.MUL, x, x))
        assert graph.entry.instructions == [b, a]

    def test_remove_instruction_releases_uses(self, graph):
        x = graph.parameters[0]
        add = graph.entry.append(ArithOp(BinOp.ADD, x, x))
        graph.entry.remove_instruction(add)
        assert not x.uses
        assert add.block is None
        assert graph.entry.instructions == []

    def test_remove_used_instruction_asserts(self, graph):
        x = graph.parameters[0]
        a = graph.entry.append(ArithOp(BinOp.ADD, x, x))
        graph.entry.append(ArithOp(BinOp.MUL, a, a))
        with pytest.raises(AssertionError):
            graph.entry.remove_instruction(a)

    def test_all_instructions_phis_first(self, graph):
        x = graph.parameters[0]
        p1, p2, m = graph.new_block(), graph.new_block(), graph.new_block()
        p1.set_terminator(Goto(m))
        p2.set_terminator(Goto(m))
        phi = Phi(m, INT, [x, x])
        m.add_phi(phi)
        add = m.append(ArithOp(BinOp.ADD, phi, phi))
        assert list(m.all_instructions()) == [phi, add]


class TestQueries:
    def test_is_merge(self, graph):
        p1, p2, m = graph.new_block(), graph.new_block(), graph.new_block()
        assert not m.is_merge()
        p1.set_terminator(Goto(m))
        assert not m.is_merge()
        p2.set_terminator(Goto(m))
        assert m.is_merge()

    def test_describe_contains_structure(self, graph):
        b = graph.new_block("body")
        graph.entry.set_terminator(Goto(b))
        b.set_terminator(Return(None))
        text = b.describe()
        assert "body" in text and "Return" in text and "entry" in text
