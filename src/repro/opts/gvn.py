"""Global value numbering over the dominator tree.

Pure instructions (arithmetic, comparisons, boolean/arithmetic negation)
with identical operation and operands compute identical results, so a
dominated occurrence can reuse the dominating one.  Trapping arithmetic
(div/mod) is included: with identical operands the dominating instance
traps first or produces the same value, either way the dominated copy is
redundant.

Graal performs this continuously through its canonicalizer framework;
here it is a standalone phase run in the cleanup pipeline.  It also
matters to DBDS evaluation hygiene: tail duplication introduces clones,
and value numbering (like read elimination) is what collapses clones
that turned out identical.
"""

from __future__ import annotations

from ..ir.graph import Graph
from ..ir.nodes import ArithOp, Compare, Instruction, Neg, Not, Value
from .base import Phase


def _value_key(ins: Instruction):
    """Hashable structural identity of a numberable instruction."""
    if isinstance(ins, ArithOp):
        ids = (ins.x.id, ins.y.id)
        if ins.op.commutative:
            ids = tuple(sorted(ids))
        return ("arith", ins.op, ids)
    if isinstance(ins, Compare):
        return ("cmp", ins.op, (ins.x.id, ins.y.id))
    if isinstance(ins, Not):
        return ("not", ins.input(0).id)
    if isinstance(ins, Neg):
        return ("neg", ins.input(0).id)
    return None


class GlobalValueNumberingPhase(Phase):
    """Dominator-tree-scoped common-subexpression elimination."""

    name = "global-value-numbering"

    def run(self, graph: Graph) -> int:
        available: dict[object, Value] = {}
        scopes: list[list[object]] = []
        eliminated = 0
        for block, entering in graph.dominator_tree().walk():
            if not entering:
                for key in scopes.pop():
                    del available[key]
                continue
            introduced: list[object] = []
            scopes.append(introduced)
            for ins in list(block.instructions):
                key = _value_key(ins)
                if key is None:
                    continue
                existing = available.get(key)
                if existing is not None:
                    ins.replace_all_uses(existing)
                    block.remove_instruction(ins)
                    eliminated += 1
                else:
                    available[key] = ins
                    introduced.append(key)
        return eliminated
