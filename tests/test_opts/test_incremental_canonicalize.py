"""The incremental canonicalizer does what a full sweep does, and no more.

The oracle (``tests/canonicalize_oracle.py``) compares every
canonicalizer run of a compile with a full sweep of an all-dirty pickle
clone of the same graph.  The unit tests make one logged edit on a
graph at a fixpoint and check that the next run finds what a full sweep
finds while visiting only what the edit logged.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import pytest

from repro.frontend.irbuilder import compile_source
from repro.ir import INT, ArithOp, BinOp, CmpOp, Compare, Graph, If, Return
from repro.opts import canonicalize
from repro.opts.canonicalize import CanonicalizerPhase

from tests.canonicalize_oracle import check_suites, full_sweep_oracle

SOURCE = """
fn f(x: int, y: int) -> int {
  var s: int = 0;
  var i: int = 0;
  while (i < x) {
    if (i % 2 == 0) { s = s + i * y; } else { s = s - 1; }
    i = i + 1;
  }
  return s + (x + y);
}
"""


@pytest.fixture
def graph():
    graph = compile_source(SOURCE).function("f")
    CanonicalizerPhase().run(graph)
    return graph


class Checks:
    """Per graph, the instructions the canonicalizer asked for
    applicability checks, and how many CFG cleanups it ran."""

    def __init__(self) -> None:
        self.checked: dict = defaultdict(list)
        self.cleanups: Counter = Counter()

    def clear(self) -> None:
        self.checked.clear()
        self.cleanups.clear()


@pytest.fixture
def checks(monkeypatch):
    seen = Checks()
    check = canonicalize.canonicalize_instruction
    cleanup = canonicalize.canonical_cfg_cleanup

    def counted_check(ins, ctx):
        seen.checked[ctx.graph].append(ins)
        return check(ins, ctx)

    def counted_cleanup(graph):
        seen.cleanups[graph] += 1
        return cleanup(graph)

    monkeypatch.setattr(canonicalize, "canonicalize_instruction", counted_check)
    monkeypatch.setattr(canonicalize, "canonical_cfg_cleanup", counted_cleanup)
    return seen


def test_every_run_of_the_micro_suite_at_seed_1_equals_a_full_sweep():
    report = check_suites(["micro"], seed=1)
    assert report.runs > 500
    assert report.mismatches == []


def test_a_second_run_on_an_unchanged_graph_checks_nothing(graph, checks):
    assert CanonicalizerPhase().run(graph) == 0
    assert not checks.checked and not checks.cleanups


def test_a_first_run_checks_every_instruction(checks):
    graph = compile_source(SOURCE).function("f")
    before = [ins for block in graph.blocks for ins in block.instructions]
    CanonicalizerPhase().run(graph)
    assert set(before) <= set(checks.checked[graph])
    assert checks.cleanups[graph] >= 1


def test_an_edit_is_revisited_with_the_users_of_the_edited_user(checks):
    """``b = a + 2`` reads ``a``'s inputs: making ``a = x + 1`` lets
    ``b`` reassociate to ``x + 3``, though only ``a`` was edited."""
    graph = Graph("f", [("x", INT), ("y", INT)], INT)
    x, y = graph.parameters
    a = graph.entry.append(ArithOp(BinOp.ADD, x, y))
    b = graph.entry.append(ArithOp(BinOp.ADD, a, graph.const_int(2)))
    graph.entry.set_terminator(Return(b))
    assert CanonicalizerPhase().run(graph) == 0
    checks.clear()
    with full_sweep_oracle() as report:
        a.set_input(1, graph.const_int(1))
        assert CanonicalizerPhase().run(graph) == 1
    assert report.runs == 1 and report.mismatches == []
    assert checks.checked[graph][:2] == [a, b]
    assert a.block is None and b.block is None  # reassociated, then dead
    assert checks.cleanups[graph] == 0  # no edge, terminator or phi changed


def test_a_new_terminator_is_revisited(checks):
    """An ``If`` installed on a constant folds, though no instruction
    changed."""
    graph = Graph("f", [("x", INT)], INT)
    then_block, else_block = graph.new_block(), graph.new_block()
    then_block.set_terminator(Return(graph.const_int(1)))
    else_block.set_terminator(Return(graph.const_int(2)))
    cond = graph.entry.append(
        Compare(CmpOp.GT, graph.parameters[0], graph.const_int(0))
    )
    graph.entry.set_terminator(If(cond, then_block, else_block))
    CanonicalizerPhase().run(graph)
    checks.clear()
    with full_sweep_oracle() as report:
        graph.entry.set_terminator(
            If(graph.const_bool(True), then_block, else_block)
        )
        CanonicalizerPhase().run(graph)
    assert report.runs == 1 and report.mismatches == []
    # Folded to a Goto, whose target the CFG cleanup then merged.
    assert graph.blocks == [graph.entry]
    assert graph.entry.terminator.value is graph.const_int(1)
    assert graph not in checks.checked


def test_dead_code_is_found_from_the_logged_candidates(graph):
    x, y = graph.parameters
    dead = graph.entry.append(ArithOp(BinOp.MUL, x, y))
    chain = graph.entry.append(ArithOp(BinOp.ADD, dead, x))
    CanonicalizerPhase().run(graph)
    assert dead.block is None and chain.block is None
    assert not graph.changes.dead
