"""Tests for IR values/instructions: use-def bookkeeping, properties."""

import pytest

from repro.ir import (
    ArithOp,
    ArrayLength,
    ArrayLoad,
    ArrayStore,
    BinOp,
    BOOL,
    Call,
    CmpOp,
    Compare,
    Goto,
    Graph,
    If,
    INT,
    LoadField,
    LoadGlobal,
    Neg,
    New,
    NewArray,
    Not,
    ObjectType,
    Phi,
    Return,
    StoreField,
    StoreGlobal,
)
from repro.ir.stamps import IntStamp, ObjectStamp


@pytest.fixture
def graph():
    return Graph("f", [("a", INT), ("b", INT)], INT)


class TestUseDef:
    def test_inputs_registered(self, graph):
        a, b = graph.parameters
        add = ArithOp(BinOp.ADD, a, b)
        assert add in a.uses and add in b.uses
        assert a.uses[add] == 1

    def test_duplicate_operand_counted(self, graph):
        a = graph.parameters[0]
        add = ArithOp(BinOp.ADD, a, a)
        assert a.uses[add] == 2

    def test_set_input_updates_uses(self, graph):
        a, b = graph.parameters
        add = ArithOp(BinOp.ADD, a, a)
        add.set_input(0, b)
        assert a.uses[add] == 1
        assert b.uses[add] == 1
        assert add.inputs == (b, a)

    def test_replace_input_all_slots(self, graph):
        a, b = graph.parameters
        add = ArithOp(BinOp.ADD, a, a)
        add.replace_input(a, b)
        assert add.inputs == (b, b)
        assert a.uses.get(add) is None
        assert b.uses[add] == 2

    def test_replace_all_uses(self, graph):
        a, b = graph.parameters
        add1 = ArithOp(BinOp.ADD, a, graph.const_int(1))
        add2 = ArithOp(BinOp.MUL, add1, add1)
        add1.replace_all_uses(b)
        assert add2.inputs == (b, b)
        assert not add1.has_uses()

    def test_replace_all_uses_with_self_is_noop(self, graph):
        a = graph.parameters[0]
        add = ArithOp(BinOp.ADD, a, a)
        a.replace_all_uses(a)
        assert add.inputs == (a, a)

    def test_drop_inputs(self, graph):
        a, b = graph.parameters
        add = ArithOp(BinOp.ADD, a, b)
        add.drop_inputs()
        assert not a.uses and not b.uses
        assert add.inputs == ()


class TestProperties:
    def test_side_effect_flags(self, graph):
        a = graph.parameters[0]
        obj_ty = ObjectType("A")
        assert New(obj_ty).has_side_effect
        assert StoreGlobal("g", a).has_side_effect
        assert Call("f", [a], INT).has_side_effect
        assert not ArithOp(BinOp.ADD, a, a).has_side_effect
        assert not Compare(CmpOp.LT, a, a).has_side_effect

    def test_trap_flags(self, graph):
        a = graph.parameters[0]
        assert ArithOp(BinOp.DIV, a, a).can_trap
        assert not ArithOp(BinOp.ADD, a, a).can_trap
        alloc = New(ObjectType("A"))
        assert LoadField(alloc, "x", INT).can_trap
        assert ArrayLength(alloc).can_trap

    def test_is_removable(self, graph):
        a = graph.parameters[0]
        assert ArithOp(BinOp.ADD, a, a).is_removable
        assert not ArithOp(BinOp.DIV, a, a).is_removable
        assert not StoreGlobal("g", a).is_removable

    def test_types_from_stamps(self, graph):
        a = graph.parameters[0]
        assert ArithOp(BinOp.ADD, a, a).type == INT
        assert Compare(CmpOp.LT, a, a).type == BOOL
        assert Not(Compare(CmpOp.LT, a, a)).type == BOOL
        assert Neg(a).type == INT

    def test_new_stamp_non_null(self):
        alloc = New(ObjectType("A"))
        assert isinstance(alloc.stamp, ObjectStamp)
        assert alloc.stamp.non_null

    def test_array_length_stamp_non_negative(self, graph):
        arr = NewArray(INT, graph.const_int(4))
        length = ArrayLength(arr)
        assert isinstance(length.stamp, IntStamp)
        assert length.stamp.lo == 0

    def test_declared_types(self, graph):
        alloc = New(ObjectType("A"))
        assert LoadField(alloc, "x", INT).type == INT
        assert LoadGlobal("g", BOOL).type == BOOL
        assert ArrayLoad(alloc, graph.const_int(0), INT).type == INT
        assert Call("f", [], BOOL).type == BOOL


class TestConstants:
    def test_interning(self, graph):
        assert graph.const_int(3) is graph.const_int(3)
        assert graph.const_int(3) is not graph.const_int(4)
        assert graph.const_bool(True) is graph.const_bool(True)
        # int 1 and bool True must not collide
        assert graph.const_int(1) is not graph.const_bool(True)

    def test_null_interning(self, graph):
        ty = ObjectType("A")
        assert graph.const_null(ty) is graph.const_null(ty)

    def test_constant_values(self, graph):
        assert graph.const_int(-7).value == -7
        assert graph.const_bool(False).value is False
        assert graph.const_null(ObjectType("A")).value is None

    def test_infer_type(self, graph):
        assert graph.constant(5).type == INT
        assert graph.constant(True).type == BOOL
        with pytest.raises(TypeError):
            graph.constant(None)

    def test_repr(self, graph):
        assert repr(graph.const_int(9)) == "c9"
        assert repr(graph.const_bool(True)) == "true"
        assert repr(graph.const_null(ObjectType("A"))) == "null"


class TestTerminators:
    def test_if_probability(self, graph):
        a = graph.parameters[0]
        t1, t2 = graph.new_block(), graph.new_block()
        cond = Compare(CmpOp.GT, a, graph.const_int(0))
        branch = If(cond, t1, t2, 0.8)
        assert branch.probability_of(t1) == pytest.approx(0.8)
        assert branch.probability_of(t2) == pytest.approx(0.2)
        assert branch.condition is cond

    def test_return_value_optional(self, graph):
        assert Return(None).value is None
        r = Return(graph.const_int(1))
        assert r.value is graph.const_int(1)

    def test_goto_target(self, graph):
        b = graph.new_block()
        assert Goto(b).target is b

    def test_terminator_describe(self, graph):
        b = graph.new_block("tgt")
        assert "tgt" in Goto(b).describe()
        assert "Return" in Return(None).describe()


class TestPhi:
    def test_positional_inputs(self, graph):
        a, b = graph.parameters
        p1, p2, merge = graph.new_block(), graph.new_block(), graph.new_block()
        p1.set_terminator(Goto(merge))
        p2.set_terminator(Goto(merge))
        phi = Phi(merge, INT, [a, b])
        merge.add_phi(phi)
        assert phi.input(0) is a
        assert phi.input(1) is b
        assert phi.type == INT
        assert "Phi" in phi.describe()
