"""Tests for Graph and Program containers."""

import pytest

from repro.ir import (
    ArithOp,
    BinOp,
    Goto,
    Graph,
    INT,
    ObjectType,
    Program,
    Return,
    VOID,
)
from repro.ir.types import ClassDecl, FieldDecl


class TestGraph:
    def test_entry_created(self):
        g = Graph("f", [("a", INT)], INT)
        assert g.entry in g.blocks
        assert g.entry.name == "entry"
        assert len(g.parameters) == 1
        assert g.parameters[0].index == 0

    def test_block_ids_unique(self):
        g = Graph("f", [], VOID)
        blocks = [g.new_block() for _ in range(10)]
        assert len({b.id for b in blocks}) == 10

    def test_instruction_count(self):
        g = Graph("f", [("a", INT)], INT)
        a = g.parameters[0]
        g.entry.append(ArithOp(BinOp.ADD, a, a))
        g.entry.append(ArithOp(BinOp.MUL, a, a))
        assert g.instruction_count() == 2

    def test_merge_blocks_query(self):
        g = Graph("f", [], VOID)
        p1, p2, m = g.new_block(), g.new_block(), g.new_block()
        p1.set_terminator(Goto(m))
        assert g.merge_blocks() == []
        p2.set_terminator(Goto(m))
        assert g.merge_blocks() == [m]

    def test_remove_block(self):
        g = Graph("f", [], VOID)
        b = g.new_block()
        b.set_terminator(Return(None))
        g.remove_block(b)
        assert b not in g.blocks

    def test_cannot_remove_entry(self):
        g = Graph("f", [], VOID)
        with pytest.raises(AssertionError):
            g.remove_block(g.entry)

    def test_describe_mentions_signature(self):
        g = Graph("myfn", [("a", INT)], INT)
        g.entry.set_terminator(Return(g.const_int(0)))
        text = g.describe()
        assert "myfn" in text and "int" in text

    def test_repr(self):
        g = Graph("f", [], VOID)
        assert "f" in repr(g)


class TestProgram:
    def test_function_registry(self):
        p = Program()
        g = Graph("f", [], VOID)
        p.add_function(g)
        assert p.function("f") is g
        with pytest.raises(ValueError):
            p.add_function(Graph("f", [], VOID))

    def test_globals(self):
        p = Program()
        p.declare_global("g", INT)
        assert p.globals["g"] == INT
        with pytest.raises(ValueError):
            p.declare_global("g", INT)

    def test_class_table(self):
        p = Program()
        p.class_table.declare(ClassDecl("A", [FieldDecl("x", INT)]))
        assert "A" in p.class_table

    def test_describe_all_functions(self):
        p = Program()
        for name in ("f", "g"):
            graph = Graph(name, [], VOID)
            graph.entry.set_terminator(Return(None))
            p.add_function(graph)
        text = p.describe()
        assert "fn f" in text and "fn g" in text
