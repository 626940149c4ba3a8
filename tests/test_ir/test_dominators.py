"""Tests for dominator computation, queries and frontiers.

Includes a hypothesis property comparing the fast algorithm against a
brute-force dominance definition on random structured CFGs.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import CmpOp, Compare, Goto, Graph, If, INT, Return
from repro.ir.dominators import DominatorTree


def linear_graph(n: int) -> Graph:
    g = Graph("lin", [("x", INT)], INT)
    blocks = [g.entry] + [g.new_block() for _ in range(n)]
    for a, b in zip(blocks, blocks[1:]):
        a.set_terminator(Goto(b))
    blocks[-1].set_terminator(Return(g.const_int(0)))
    return g


def random_structured_graph(seed: int, depth: int = 3) -> Graph:
    """Random nest of diamonds and straight-line blocks (reducible)."""
    rng = random.Random(seed)
    g = Graph("rand", [("x", INT)], INT)
    x = g.parameters[0]

    def build(block, remaining):
        """Build a region starting at `block`; return its exit block."""
        if remaining == 0 or rng.random() < 0.3:
            return block
        if rng.random() < 0.5:
            nxt = g.new_block()
            block.set_terminator(Goto(nxt))
            return build(nxt, remaining - 1)
        t, f, m = g.new_block(), g.new_block(), g.new_block()
        cond = block.append(Compare(CmpOp.GT, x, g.const_int(rng.randint(0, 9))))
        block.set_terminator(If(cond, t, f))
        t_exit = build(t, remaining - 1)
        f_exit = build(f, remaining - 1)
        t_exit.set_terminator(Goto(m))
        f_exit.set_terminator(Goto(m))
        return build(m, remaining - 1)

    exit_block = build(g.entry, depth)
    exit_block.set_terminator(Return(x))
    return g


def brute_force_dominates(graph: Graph, a, b) -> bool:
    """a dominates b iff removing a makes b unreachable from entry."""
    if a is b:
        return True
    seen = set()
    stack = [graph.entry]
    while stack:
        block = stack.pop()
        if block is a or block in seen:
            continue
        seen.add(block)
        stack.extend(block.successors)
    return b not in seen


class TestDiamond:
    def test_idoms(self, diamond):
        dom = DominatorTree(diamond["graph"])
        entry = diamond["graph"].entry
        assert dom.immediate_dominator(diamond["true_block"]) is entry
        assert dom.immediate_dominator(diamond["false_block"]) is entry
        assert dom.immediate_dominator(diamond["merge"]) is entry
        assert dom.immediate_dominator(entry) is entry

    def test_dominates_queries(self, diamond):
        dom = DominatorTree(diamond["graph"])
        entry = diamond["graph"].entry
        assert dom.dominates(entry, diamond["merge"])
        assert dom.dominates(entry, entry)
        assert not dom.dominates(diamond["true_block"], diamond["merge"])

    def test_children(self, diamond):
        dom = DominatorTree(diamond["graph"])
        kids = set(dom.children[diamond["graph"].entry])
        assert kids == {
            diamond["true_block"],
            diamond["false_block"],
            diamond["merge"],
        }

    def test_walk_up(self, diamond):
        dom = DominatorTree(diamond["graph"])
        chain = list(dom.walk_up(diamond["merge"]))
        assert chain == [diamond["merge"], diamond["graph"].entry]

    def test_frontiers(self, diamond):
        dom = DominatorTree(diamond["graph"])
        df = dom.dominance_frontiers()
        assert df[diamond["true_block"]] == {diamond["merge"]}
        assert df[diamond["false_block"]] == {diamond["merge"]}
        assert df[diamond["graph"].entry] == set()

    def test_iterated_frontier(self, diamond):
        dom = DominatorTree(diamond["graph"])
        idf = dom.iterated_dominance_frontier(
            {diamond["true_block"], diamond["false_block"]}
        )
        assert idf == {diamond["merge"]}


class TestLinear:
    def test_chain_idoms(self):
        g = linear_graph(5)
        dom = DominatorTree(g)
        order = dom.rpo
        for prev, cur in zip(order, order[1:]):
            assert dom.immediate_dominator(cur) is prev

    def test_all_frontiers_empty(self):
        dom = DominatorTree(linear_graph(4))
        assert all(not f for f in dom.dominance_frontiers().values())


class TestLoops:
    def test_loop_header_dominates_body(self):
        g = Graph("loop", [("n", INT)], INT)
        header, body, exit_ = g.new_block("h"), g.new_block("b"), g.new_block("e")
        g.entry.set_terminator(Goto(header))
        cond = header.append(Compare(CmpOp.LT, g.const_int(0), g.parameters[0]))
        header.set_terminator(If(cond, body, exit_))
        body.set_terminator(Goto(header))
        exit_.set_terminator(Return(g.const_int(0)))
        dom = DominatorTree(g)
        assert dom.dominates(header, body)
        assert dom.dominates(header, exit_)
        assert not dom.dominates(body, header)
        # header's frontier includes itself (the back edge).
        assert header in dom.dominance_frontiers()[body]


class TestWalk:
    def graph(self) -> Graph:
        g = Graph("nest", [("x", INT)], INT)
        x = g.parameters[0]
        names = ("h", "body", "t", "f", "m", "e", "a", "a1", "a2", "am", "b", "z", "u")
        blk = {name: g.new_block(name) for name in names}

        def branch(name, yes, no, k):
            cond = blk[name].append(Compare(CmpOp.GT, x, g.const_int(k)))
            blk[name].set_terminator(If(cond, blk[yes], blk[no]))

        def goto(name, target):
            blk[name].set_terminator(Goto(blk[target]))

        # A loop h..m whose body is a diamond, then nested diamonds
        # e/a/a1/a2/am/b merging at z; u is unreachable.
        g.entry.set_terminator(Goto(blk["h"]))
        branch("h", "body", "e", 0)
        branch("body", "t", "f", 1)
        goto("t", "m")
        goto("f", "m")
        goto("m", "h")
        branch("e", "a", "b", 2)
        branch("a", "a1", "a2", 3)
        goto("a1", "am")
        goto("a2", "am")
        goto("am", "z")
        goto("b", "z")
        blk["z"].set_terminator(Return(x))
        blk["u"].set_terminator(Return(x))
        return g

    def test_enters_and_leaves_each_reachable_block_once(self):
        g = self.graph()
        dom = DominatorTree(g)
        steps = list(dom.walk())
        reachable = sorted(b.name for b in dom.rpo)
        assert "u" not in reachable
        assert sorted(b.name for b, entering in steps if entering) == reachable
        assert sorted(b.name for b, entering in steps if not entering) == reachable
        assert steps[0] == (g.entry, True) and steps[-1] == (g.entry, False)

    def test_leaves_a_block_only_after_its_whole_subtree(self):
        g = self.graph()
        dom = DominatorTree(g)
        steps = list(dom.walk())
        for block in dom.rpo:
            start = steps.index((block, True))
            end = steps.index((block, False))
            inside = {b for b, _ in steps[start + 1 : end]}
            subtree = {
                b for b in dom.rpo if b is not block and brute_force_dominates(g, block, b)
            }
            assert inside == subtree, block.name

    def test_visits_children_in_rpo_order(self):
        g = self.graph()
        dom = DominatorTree(g)
        entered = [b for b, entering in dom.walk() if entering]
        widest = 0
        for block in dom.rpo:
            kids = [
                b for b in entered if b is not block and dom.immediate_dominator(b) is block
            ]
            assert kids == sorted(kids, key=dom.rpo.index), block.name
            widest = max(widest, len(kids))
        assert widest == 3  # body, e and a each have three children


class TestAgainstBruteForce:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_brute_force(self, seed):
        g = random_structured_graph(seed, depth=4)
        dom = DominatorTree(g)
        blocks = dom.rpo
        for a in blocks:
            for b in blocks:
                assert dom.dominates(a, b) == brute_force_dominates(g, a, b), (
                    f"disagree on {a.name} dom {b.name} (seed {seed})"
                )
