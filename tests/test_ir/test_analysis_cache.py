"""Graph-level analysis caching and invalidation.

The accessors ``dominator_tree``/``loop_forest``/``block_frequencies``
memoize on the graph; counting the constructions they make shows a
straight-line compile computes each analysis at most once per phase.
"""

import pickle

from repro.frontend.irbuilder import compile_source
from repro.ir import dominators, frequency, loops
from repro.ir.cfgutils import insert_block_on_edge
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

#: the analysis classes the graph accessors construct, by module
ANALYSES = (
    (dominators, "DominatorTree"),
    (loops, "LoopForest"),
    (frequency, "BlockFrequencies"),
)


def count_analyses(monkeypatch) -> dict[str, int]:
    """From now on, count the constructions made through a graph
    accessor (each imports its class at call time); returns the live
    analysis class name -> count table."""
    counts: dict[str, int] = {}
    for module, name in ANALYSES:
        def construct(*args, _cls=getattr(module, name), **kwargs):
            counts[_cls.__name__] = counts.get(_cls.__name__, 0) + 1
            return _cls(*args, **kwargs)

        monkeypatch.setattr(module, name, construct)
    return counts


def fresh_graph():
    return compile_source(LOOPY).function("main")


def test_accessors_memoize(monkeypatch):
    graph = fresh_graph()
    computed = count_analyses(monkeypatch)
    dom = graph.dominator_tree()
    assert graph.dominator_tree() is dom
    forest = graph.loop_forest()
    assert graph.loop_forest() is forest
    freqs = graph.block_frequencies()
    assert graph.block_frequencies() is freqs
    assert computed == dict.fromkeys((name for _, name in ANALYSES), 1)


def test_derived_analyses_reuse_cached_prerequisites(monkeypatch):
    graph = fresh_graph()
    computed = count_analyses(monkeypatch)
    # frequency pulls in loops pulls in dominators — each once.
    graph.block_frequencies()
    assert computed == dict.fromkeys((name for _, name in ANALYSES), 1)


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


def test_block_removal_invalidates(monkeypatch):
    graph = fresh_graph()
    computed = count_analyses(monkeypatch)
    graph.dominator_tree()
    dead = graph.new_block("dead")
    graph.dominator_tree()
    graph.remove_block(dead)
    graph.dominator_tree()
    # new_block and remove_block each cleared the cache.
    assert computed == {"DominatorTree": 3}


def test_pickle_drops_cached_analyses():
    graph = fresh_graph()
    graph.dominator_tree()
    graph.loop_forest()
    rehydrated = pickle.loads(pickle.dumps(compile_source(LOOPY))).function("main")
    assert rehydrated._analysis_cache == {}


def test_straightline_compile_computes_each_analysis_once_per_phase(monkeypatch):
    """The satellite acceptance assertion: compiling a straight-line
    function must not recompute any CFG analysis within a phase —
    with no CFG mutations, each analysis is computed at most once
    TOTAL across the whole pipeline (strictly stronger than the
    per-phase bound)."""
    source = "fn main(x: int) -> int { return x * 2 + 1; }"
    program = compile_source(source)
    computed = count_analyses(monkeypatch)
    Compiler(DBDS).compile_program(program)
    for _, name in ANALYSES:
        assert computed.get(name, 0) <= 1, computed


def test_loopy_compile_bounded_by_mutation_count(monkeypatch):
    """Phases that mutate the CFG may recompute, but a DBDS compile of a
    small loop must stay within a small number of recomputations —
    the cached accessors cap each phase at one compute per mutation."""
    program = compile_source(LOOPY)
    computed = count_analyses(monkeypatch)
    Compiler(DBDS).compile_program(program)
    assert computed  # the compile asked for analyses at all
    for _, name in ANALYSES:
        assert computed.get(name, 0) <= 25, computed
