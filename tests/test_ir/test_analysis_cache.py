"""Graph-level analysis caching and invalidation.

The accessors ``dominator_tree``/``loop_forest``/``block_frequencies``
memoize on the graph and count each fresh computation on the ambient
tracer, so a straight-line compile can be asserted to compute each
analysis at most once per phase.
"""

import pickle

from repro.frontend.irbuilder import compile_source
from repro.ir.cfgutils import insert_block_on_edge
from repro.obs.tracer import Tracer, use_tracer
from repro.pipeline.compiler import Compiler
from repro.pipeline.config import DBDS

LOOPY = """
fn main(n: int) -> int {
  var i: int = 0;
  var s: int = 0;
  while (i < n) {
    if (i % 3 == 0) { s = s + i; } else { s = s + 1; }
    i = i + 1;
  }
  return s;
}
"""

COUNTERS = ("analysis.dominators", "analysis.loops", "analysis.frequency")


def fresh_graph():
    return compile_source(LOOPY).function("main")


def test_accessors_memoize():
    graph = fresh_graph()
    tracer = Tracer()
    with use_tracer(tracer):
        dom = graph.dominator_tree()
        assert graph.dominator_tree() is dom
        forest = graph.loop_forest()
        assert graph.loop_forest() is forest
        freqs = graph.block_frequencies()
        assert graph.block_frequencies() is freqs
    assert all(tracer.counters[c] == 1 for c in COUNTERS)


def test_derived_analyses_reuse_cached_prerequisites():
    graph = fresh_graph()
    tracer = Tracer()
    with use_tracer(tracer):
        # frequency pulls in loops pulls in dominators — each once.
        graph.block_frequencies()
    assert all(tracer.counters[c] == 1 for c in COUNTERS)


def test_new_block_invalidates():
    graph = fresh_graph()
    dom = graph.dominator_tree()
    graph.new_block("fresh")
    assert graph.dominator_tree() is not dom


def test_edge_mutation_invalidates():
    graph = fresh_graph()
    forest = graph.loop_forest()
    header = forest.loops[0].header
    pred = next(
        p for p in header.predecessors
        if p not in forest.loops[0].back_edge_predecessors
    )
    insert_block_on_edge(graph, pred, header)
    assert graph.loop_forest() is not forest


def test_block_removal_invalidates():
    graph = fresh_graph()
    tracer = Tracer()
    with use_tracer(tracer):
        graph.dominator_tree()
        dead = graph.new_block("dead")
        graph.dominator_tree()
        graph.remove_block(dead)
        graph.dominator_tree()
    # new_block and remove_block each cleared the cache.
    assert tracer.counters["analysis.dominators"] == 3


def test_pickle_drops_cached_analyses():
    graph = fresh_graph()
    graph.dominator_tree()
    graph.loop_forest()
    rehydrated = pickle.loads(pickle.dumps(compile_source(LOOPY))).function("main")
    assert rehydrated._analysis_cache == {}


def test_straightline_compile_computes_each_analysis_once_per_phase():
    """The satellite acceptance assertion: compiling a straight-line
    function must not recompute any CFG analysis within a phase —
    with no CFG mutations, each analysis is computed at most once
    TOTAL across the whole pipeline (strictly stronger than the
    per-phase bound)."""
    source = "fn main(x: int) -> int { return x * 2 + 1; }"
    program = compile_source(source)
    tracer = Tracer()
    with use_tracer(tracer):
        Compiler(DBDS).compile_program(program)
    for counter in COUNTERS:
        assert tracer.counters.get(counter, 0) <= 1, (
            counter, dict(tracer.counters)
        )


def test_loopy_compile_bounded_by_mutation_count():
    """Phases that mutate the CFG may recompute, but a DBDS compile of a
    small loop must stay within a small number of recomputations —
    the cached accessors cap each phase at one compute per mutation."""
    program = compile_source(LOOPY)
    tracer = Tracer()
    with use_tracer(tracer):
        Compiler(DBDS).compile_program(program)
    for counter in COUNTERS:
        assert tracer.counters.get(counter, 0) <= 25, (
            counter, dict(tracer.counters)
        )
