"""Tests for read elimination."""

import pytest

from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import HeapObject, Interpreter
from repro.ir import LoadField, LoadGlobal, ArrayLoad, verify_graph
from repro.ir.cfgutils import reverse_post_order
from repro.opts.readelim import (
    MemoryCache,
    ReadEliminationPhase,
    may_alias,
    memory_walk,
)


def count_loads(graph, kind=LoadField):
    return sum(
        1 for b in graph.blocks for i in b.instructions if isinstance(i, kind)
    )


def run_phase(source: str, name: str = "f"):
    program = compile_source(source)
    graph = program.function(name)
    eliminated = ReadEliminationPhase(program).run(graph)
    verify_graph(graph)
    return program, graph, eliminated


class TestMayAlias:
    def test_identity_aliases(self):
        from repro.ir import Graph, INT, New, ObjectType

        alloc = New(ObjectType("A"))
        assert may_alias(alloc, alloc)

    def test_distinct_allocations_do_not_alias(self):
        from repro.ir import New, ObjectType

        a, b = New(ObjectType("A")), New(ObjectType("A"))
        assert not may_alias(a, b)

    def test_parameter_may_alias_parameter(self):
        from repro.ir import Graph, INT, ObjectType

        g = Graph("f", [("a", ObjectType("A")), ("b", ObjectType("A"))], INT)
        assert may_alias(g.parameters[0], g.parameters[1])


class TestFieldLoads:
    def test_repeated_load_eliminated(self):
        _, graph, eliminated = run_phase(
            "class A { x: int; }\nfn f(a: A) -> int { return a.x + a.x; }"
        )
        assert eliminated == 1
        assert count_loads(graph) == 1

    def test_store_to_load_forwarding(self):
        program, graph, eliminated = run_phase(
            "class A { x: int; }\nfn f(a: A, v: int) -> int { a.x = v; return a.x; }"
        )
        assert eliminated == 1
        assert count_loads(graph) == 0
        obj = HeapObject("A", {"x": 0})
        assert Interpreter(program).run("f", [obj, 42]).value == 42
        assert obj.fields["x"] == 42  # store still happens

    def test_aliasing_store_invalidates(self):
        _, graph, eliminated = run_phase(
            """
class A { x: int; }
fn f(a: A, b: A, v: int) -> int {
  var first: int = a.x;
  b.x = v;
  return first + a.x;
}
"""
        )
        # b may alias a: the second a.x load must survive.
        assert eliminated == 0
        assert count_loads(graph) == 2

    def test_different_field_does_not_invalidate(self):
        _, graph, eliminated = run_phase(
            """
class A { x: int; y: int; }
fn f(a: A, b: A, v: int) -> int {
  var first: int = a.x;
  b.y = v;
  return first + a.x;
}
"""
        )
        assert eliminated == 1

    def test_store_to_fresh_object_does_not_invalidate(self):
        _, graph, eliminated = run_phase(
            """
class A { x: int; }
fn f(a: A) -> int {
  var first: int = a.x;
  var fresh: A = new A { x = 1 };
  return first + a.x + fresh.x;
}
"""
        )
        # The allocation's store cannot alias a's field; both the second
        # a.x and fresh.x (forwarded default/init) are removable.
        assert eliminated == 2

    def test_call_invalidates_everything(self):
        _, graph, eliminated = run_phase(
            """
class A { x: int; }
fn g(a: A) { a.x = 5; }
fn f(a: A) -> int {
  var first: int = a.x;
  g(a);
  return first + a.x;
}
"""
        )
        assert eliminated == 0

    def test_new_object_default_forwarded(self):
        program, graph, eliminated = run_phase(
            "class A { x: int; }\nfn f() -> int { var a: A = new A; return a.x; }"
        )
        assert eliminated == 1
        assert Interpreter(program).run("f", []).value == 0


class TestGlobals:
    def test_repeated_global_load(self):
        _, graph, eliminated = run_phase(
            "global g: int;\nfn f() -> int { return g + g; }"
        )
        assert eliminated == 1
        assert count_loads(graph, LoadGlobal) == 1

    def test_global_store_forwarding(self):
        _, graph, eliminated = run_phase(
            "global g: int;\nfn f(v: int) -> int { g = v; return g; }"
        )
        assert eliminated == 1
        assert count_loads(graph, LoadGlobal) == 0

    def test_distinct_globals_independent(self):
        _, graph, eliminated = run_phase(
            "global g: int;\nglobal h: int;\nfn f(v: int) -> int { g = v; h = v; return g + h; }"
        )
        assert eliminated == 2


class TestArrays:
    def test_same_index_load_eliminated(self):
        _, graph, eliminated = run_phase(
            "fn f(xs: int[], i: int) -> int { return xs[i] + xs[i]; }"
        )
        assert eliminated == 1
        assert count_loads(graph, ArrayLoad) == 1

    def test_store_with_unknown_index_invalidates(self):
        _, graph, eliminated = run_phase(
            """
fn f(xs: int[], i: int, j: int, v: int) -> int {
  var first: int = xs[i];
  xs[j] = v;
  return first + xs[i];
}
"""
        )
        assert eliminated == 0

    def test_array_store_forwarding_same_index(self):
        program, graph, eliminated = run_phase(
            "fn f(xs: int[], i: int, v: int) -> int { xs[i] = v; return xs[i]; }"
        )
        assert eliminated == 1


class TestMergeBoundaries:
    def test_partially_redundant_read_not_eliminated(self):
        """Listing 5: Read2 is only partially redundant — read
        elimination alone must NOT remove it (duplication promotes it)."""
        _, graph, eliminated = run_phase(
            """
class A { x: int; }
global s: int;
fn f(a: A, i: int) -> int {
  if (i > 0) { s = a.x; } else { s = 0; }
  return a.x;
}
"""
        )
        assert eliminated == 0
        assert count_loads(graph) == 2

    def test_straightline_across_blocks_eliminated(self):
        _, graph, eliminated = run_phase(
            """
class A { x: int; }
fn f(a: A, i: int) -> int {
  var first: int = a.x;
  if (i > 0) { return first + a.x; }
  return first;
}
"""
        )
        # The branch target has a single predecessor: state flows.
        assert eliminated == 1

    def test_semantics_preserved(self):
        source = """
class A { x: int; y: int; }
global s: int;
fn f(a: A, b: A, i: int) -> int {
  var t: int = a.x;
  b.x = i;
  s = a.y;
  if (i > 0) { t = t + a.x; }
  return t + a.y + s;
}
"""
        program = compile_source(source)
        def run_all(p):
            outs = []
            for i in (-1, 0, 1, 5):
                interp = Interpreter(p)
                obj_a = HeapObject("A", {"x": 10, "y": 20})
                outs.append(interp.run("f", [obj_a, obj_a, i]).value)
            return outs

        expected = run_all(program)
        ReadEliminationPhase(program).run(program.function("f"))
        verify_graph(program.function("f"))
        assert run_all(program) == expected


class TestMemoryWalk:
    def test_fresh_at_entry_and_merges_copied_along_single_edges(self, diamond):
        """Each block's received cache, then a mark the caller leaves
        in it: the entry and the merge start empty, each branch target
        starts with a copy of the entry's cache as the caller left it."""
        graph = diamond["graph"]
        received: dict = {}
        caches: dict = {}
        for block, cache in memory_walk(graph):
            received[block] = dict(cache.globals_)
            caches[block] = cache
            cache.globals_[block.name] = graph.const_int(block.id)
        assert list(received) == reverse_post_order(graph)
        entry, merge = graph.entry, diamond["merge"]
        assert received[entry] == {}
        assert received[merge] == {}
        for branch in (diamond["true_block"], diamond["false_block"]):
            assert received[branch] == {entry.name: graph.const_int(entry.id)}
            assert caches[branch] is not caches[entry]
        assert len({id(cache) for cache in caches.values()}) == len(caches)
