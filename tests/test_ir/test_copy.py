"""Tests for instruction, graph and program cloning."""

import pytest

from repro.bench.workloads.suites import MICRO, generate_suite
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import Interpreter
from repro.ir import (
    ArithOp,
    BinOp,
    Goto,
    Graph,
    INT,
    LoadField,
    New,
    ObjectType,
    Phi,
    Return,
    StoreField,
    verify_graph,
)
from repro.ir.copy import clone_instruction, copy_graph, copy_program
from repro.ir.nodes import If
from repro.obs import Tracer
from repro.pipeline.cache import artifact_manifest, normalize_ir
from repro.pipeline.compiler import Compiler, ProfiledSource
from repro.pipeline.front import jit
from repro.pipeline.config import CONFIGURATIONS

from tests.helpers import REPO


class TestCloneInstruction:
    def test_clone_with_mapping(self):
        g = Graph("f", [("a", INT), ("b", INT)], INT)
        a, b = g.parameters
        add = ArithOp(BinOp.ADD, a, a)
        clone = clone_instruction(add, lambda v: b if v is a else v)
        assert clone is not add
        assert clone.inputs == (b, b)
        assert clone.op is BinOp.ADD

    def test_clone_memory_ops(self):
        g = Graph("f", [], INT)
        alloc = New(ObjectType("A"))
        store = StoreField(alloc, "x", g.const_int(1))
        load = LoadField(alloc, "x", INT)
        s2 = clone_instruction(store, lambda v: v)
        l2 = clone_instruction(load, lambda v: v)
        assert s2.field == "x" and l2.field == "x"
        assert l2.type == INT

    def test_phi_not_clonable(self):
        g = Graph("f", [], INT)
        b = g.new_block()
        phi = Phi(b, INT, [])
        with pytest.raises(TypeError):
            clone_instruction(phi, lambda v: v)


PROGRAM = """
class A { x: int; n: A; }
global total: int;

fn work(a: A, k: int) -> int {
  var acc: int = 0;
  var i: int = 0;
  while (i < k) {
    if (a != null) { acc = acc + a.x; } else { acc = acc + 1; }
    i = i + 1;
  }
  total = acc;
  return acc;
}
"""


class TestCopyGraph:
    def test_copy_verifies(self):
        program = compile_source(PROGRAM)
        graph = program.function("work")
        copy, value_map = copy_graph(graph)
        verify_graph(copy)

    def test_copy_is_disjoint(self):
        program = compile_source(PROGRAM)
        graph = program.function("work")
        copy, value_map = copy_graph(graph)
        copied_blocks = set(copy.blocks)
        assert not copied_blocks & set(graph.blocks)
        for old, new in value_map.items():
            assert old is not new

    def test_copy_preserves_structure(self):
        program = compile_source(PROGRAM)
        graph = program.function("work")
        copy, _ = copy_graph(graph)
        assert len(copy.blocks) == len(graph.blocks)
        assert copy.instruction_count() == graph.instruction_count()
        assert copy.return_type == graph.return_type
        assert [p.param_name for p in copy.parameters] == [
            p.param_name for p in graph.parameters
        ]

    def test_copy_runs_identically(self):
        program = compile_source(PROGRAM)
        graph = program.function("work")
        copy, _ = copy_graph(graph)
        # Swap the copy in and compare behaviour.
        original_result = Interpreter(program).run("work", [None, 5])
        program.functions["work"] = copy
        copied_result = Interpreter(program).run("work", [None, 5])
        assert copied_result.value == original_result.value

    def test_mutating_copy_leaves_original(self):
        program = compile_source(PROGRAM)
        graph = program.function("work")
        before = graph.instruction_count()
        copy, _ = copy_graph(graph)
        # Chop the copy apart.
        for block in list(copy.blocks):
            if block is not copy.entry:
                block.clear_terminator()
        assert graph.instruction_count() == before
        verify_graph(graph)

    def test_probabilities_and_trips_copied(self):
        program = compile_source(PROGRAM)
        graph = program.function("work")
        from repro.ir.nodes import If as IfNode

        for block in graph.blocks:
            if isinstance(block.terminator, IfNode):
                block.terminator.true_probability = 0.77
            block.profile_trip_count = 5.5
        copy, _ = copy_graph(graph)
        for block in copy.blocks:
            if isinstance(block.terminator, IfNode):
                assert block.terminator.true_probability == pytest.approx(0.77)
        assert all(
            getattr(b, "profile_trip_count", None) == 5.5 for b in copy.blocks
        )

    def test_phi_inputs_positional(self):
        program = compile_source(PROGRAM)
        graph = program.function("work")
        copy, value_map = copy_graph(graph)
        for old_block in graph.blocks:
            for phi in old_block.phis:
                new_phi = value_map[phi]
                assert len(new_phi.inputs) == len(phi.inputs)
                for old_in, new_in in zip(phi.inputs, new_phi.inputs):
                    mapped = value_map.get(old_in)
                    if mapped is not None:
                        assert new_in is mapped


#: (row id, source, entry, profiling arguments): the example apps and
#: the generated micro suite
PROGRAMS = [
    (f"examples/{path.stem}", path.read_text(), "main", [[4]])
    for path in sorted((REPO / "examples" / "apps").glob("*.mini"))
] + [
    (f"micro/{w.name}", w.source, w.entry, w.profile_args)
    for w in generate_suite(MICRO, 0)
]


def profile_data(program) -> list:
    """Every branch probability and loop trip count, in block order."""
    return [
        (
            block.id,
            block.terminator.true_probability
            if isinstance(block.terminator, If) else None,
            getattr(block, "profile_trip_count", None),
        )
        for graph in program.functions.values()
        for block in graph.blocks
    ]


@pytest.mark.parametrize(
    "source, entry, profile_args",
    [row[1:] for row in PROGRAMS],
    ids=[row[0] for row in PROGRAMS],
)
def test_copy_program_is_faithful_and_independent(source, entry, profile_args):
    template = ProfiledSource(source, entry, profile_args).program()
    before = normalize_ir(template.describe())
    clone = copy_program(template)
    assert normalize_ir(clone.describe()) == before
    assert profile_data(clone) == profile_data(template)
    assert clone.globals == template.globals
    assert clone.class_table is template.class_table
    for config in CONFIGURATIONS.values():
        program = copy_program(template)
        tracer = Tracer()
        report = Compiler(config, tracer=tracer).compile_program(program)
        assert normalize_ir(template.describe()) == before, config.name
        fresh = jit(source, entry, profile_args, config, tracer=Tracer())
        assert (
            artifact_manifest(program, report, tracer.events)["digest"]
            == artifact_manifest(fresh.program, fresh.report, fresh.events)["digest"]
        ), config.name
