"""Conditional elimination (Section 2, Listing 1/2).

A depth-first traversal of the dominator tree
(:meth:`~repro.ir.dominators.DominatorTree.walk`) carries a stack of
facts derived from dominating branch conditions ("Every split in the
control-flow graph narrows the information for a dominating condition's
operands", Section 4.1).  Dominated conditions that the facts decide are
folded, letting the CFG cleanup remove the dead branch.

The DBDS simulation tier walks the same traversal with the same fact
store (:class:`FactScope`), edge-fact step (:func:`apply_edge_facts`)
and branch decision (:func:`decide`), so at each predecessor-merge pair
it sees exactly what this phase would see after the duplication.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..ir.block import Block
from ..ir.cfgutils import canonical_cfg_cleanup
from ..ir.dominators import DominatorTree
from ..ir.graph import Graph
from ..ir.nodes import Compare, Constant, Goto, If, Not, Value
from ..ir.ops import CmpOp
from ..ir.stamps import (
    FALSE_STAMP,
    IntStamp,
    ObjectStamp,
    Stamp,
    TRUE_STAMP,
    join as stamp_join,
)
from .base import Phase
from .canonicalize import remove_dead_instructions
from .stampmath import compare_stamps, refine_by_compare


class FactScope:
    """A scoped map of value → refined stamp with undo support."""

    def __init__(self) -> None:
        self._facts: dict[Value, Stamp] = {}
        self._undo: list[list[tuple[Value, Optional[Stamp]]]] = []

    def push_scope(self) -> None:
        self._undo.append([])

    def pop_scope(self) -> None:
        for value, old in reversed(self._undo.pop()):
            if old is None:
                del self._facts[value]
            else:
                self._facts[value] = old

    def refine(self, value: Value, stamp: Stamp) -> None:
        if isinstance(value, Constant):
            return  # constants cannot be refined further
        current = self._facts.get(value)
        try:
            combined = stamp_join(current, stamp) if current is not None else stamp_join(value.stamp, stamp)
        except TypeError:
            return  # mismatched stamp kinds: ignore the fact
        if self._undo:
            self._undo[-1].append((value, current))
        self._facts[value] = combined

    def stamp_of(self, value: Value) -> Stamp:
        return self._facts.get(value, value.stamp)


def assume_condition(facts: FactScope, condition: Value, holds: bool) -> None:
    """Record everything implied by ``condition == holds``.

    * the condition value itself becomes a known boolean;
    * ``Not`` unwraps with the outcome flipped;
    * a :class:`Compare` refines both operand stamps (integer ranges,
      null-ness for reference equality).
    """
    facts.refine(condition, TRUE_STAMP if holds else FALSE_STAMP)
    if isinstance(condition, Not):
        assume_condition(facts, condition.input(0), not holds)
        return
    if not isinstance(condition, Compare):
        return
    x, y = condition.x, condition.y
    sx, sy = facts.stamp_of(x), facts.stamp_of(y)
    if isinstance(sx, IntStamp) and isinstance(sy, IntStamp):
        nx, ny = refine_by_compare(condition.op, sx, sy, holds)
        facts.refine(x, nx)
        facts.refine(y, ny)
        return
    if isinstance(sx, ObjectStamp) and isinstance(sy, ObjectStamp):
        op = condition.op if holds else condition.op.negate()
        if op is CmpOp.EQ:
            if sy.always_null:
                facts.refine(x, ObjectStamp(sx.type, always_null=True))
            if sx.always_null:
                facts.refine(y, ObjectStamp(sy.type, always_null=True))
        elif op is CmpOp.NE:
            if sy.always_null:
                facts.refine(x, ObjectStamp(sx.type, non_null=True))
            if sx.always_null:
                facts.refine(y, ObjectStamp(sy.type, non_null=True))


def apply_edge_facts(block: Block, dom: DominatorTree, facts: FactScope) -> None:
    """When ``block`` is a branch target of its immediate dominator's
    ``If`` (and its only predecessor), the branch condition holds or
    fails throughout the dominator subtree rooted here."""
    if len(block.predecessors) != 1:
        return
    pred = block.predecessors[0]
    if dom.immediate_dominator(block) is not pred:
        return
    term = pred.terminator
    if isinstance(term, If):
        assume_condition(facts, term.condition, block is term.true_target)


def _identity(value: Value) -> Value:
    return value


def decide(
    condition: Value,
    facts: FactScope,
    resolve: Callable[[Value], Value] = _identity,
) -> Optional[bool]:
    """The outcome ``facts`` fix for ``condition``, or None when open.

    ``resolve`` maps each value to the one the facts are about: the
    identity in this phase, the synonym map of a duplication
    simulation traversal in :mod:`repro.dbds.simulation`.
    """
    condition = resolve(condition)
    known = facts.stamp_of(condition).as_constant()
    if known is not None:
        return bool(known[0])
    if isinstance(condition, Compare):
        return compare_stamps(
            condition.op,
            facts.stamp_of(resolve(condition.x)),
            facts.stamp_of(resolve(condition.y)),
        )
    return None


class ConditionalEliminationPhase(Phase):
    """Fold dominated conditions that dominating branches decide."""

    name = "conditional-elimination"

    def run(self, graph: Graph) -> int:
        dom = graph.dominator_tree()
        facts = FactScope()
        #: each decided If's block with the target it keeps
        folds: list[tuple[Block, Block]] = []
        for block, entering in dom.walk():
            if not entering:
                facts.pop_scope()
                continue
            facts.push_scope()
            apply_edge_facts(block, dom, facts)
            term = block.terminator
            if isinstance(term, If):
                outcome = decide(term.condition, facts)
                if outcome is not None:
                    folds.append(
                        (block, term.true_target if outcome else term.false_target)
                    )
        for block, target in folds:
            block.set_terminator(Goto(target))
        if folds:
            canonical_cfg_cleanup(graph)
            remove_dead_instructions(graph)
        return len(folds)
