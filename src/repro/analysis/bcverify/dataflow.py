"""Worklist dataflow over recovered bytecode CFGs.

A deliberately small lattice API: an *analysis* is an object with

* ``boundary(cfg)`` — the state at the entry block;
* ``join(a, b)`` — the lattice join of two states;
* ``transfer(cfg, block, state)`` — the block transfer function (entry
  state → exit state);
* ``edge_transfer(edge, state)`` — the effect of one edge descriptor's
  phi-move sequence (the state *after* the moves).

States must be value-comparable with ``==`` and treated immutably —
transfer functions return fresh objects.  The solver is
**optimistic**: block entry states start as the unreached sentinel
``None`` and only blocks reachable from the entry ever get a state, so
``join`` is never asked to merge with "unreached".

The verifier runs one analysis, :class:`MustDefined` — forward,
intersection: the registers guaranteed written on *every* path (seeded
with parameters and the interned-constant range).  The def-before-use
checker re-walks each block against its entry state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .cfg import BytecodeCFG, instruction_events


@dataclass
class DataflowResult:
    """Fixpoint states per block index: ``entry`` holds the state
    *before* the block, ``exit`` after.  An ``entry`` of ``None`` marks
    a block unreachable from the function entry.
    """

    entry: dict
    exit: dict


def solve_forward(cfg: BytecodeCFG, analysis) -> DataflowResult:
    """Run the forward ``analysis`` to fixpoint over ``cfg``."""
    entry = {block.index: None for block in cfg.blocks}
    exit_ = {block.index: None for block in cfg.blocks}
    blocks = {block.index: block for block in cfg.blocks}
    entry[cfg.entry.index] = analysis.boundary(cfg)
    work = deque((cfg.entry.index,))
    queued = {cfg.entry.index}
    while work:
        index = work.popleft()
        queued.discard(index)
        block = blocks[index]
        out = analysis.transfer(cfg, block, entry[index])
        exit_[index] = out
        for edge, succ in zip(block.edges, block.succs):
            contribution = analysis.edge_transfer(edge, out)
            current = entry[succ]
            merged = (
                contribution if current is None
                else analysis.join(current, contribution)
            )
            if current is None or merged != current:
                entry[succ] = merged
                if succ not in queued:
                    work.append(succ)
                    queued.add(succ)
    return DataflowResult(entry, exit_)


# ----------------------------------------------------------------------
# Must-defined registers (forward, intersection)
# ----------------------------------------------------------------------
class MustDefined:
    """Registers written on every path from the entry."""

    def boundary(self, cfg):
        fn = cfg.fn
        defined = set(range(fn.nparams))
        defined.update(range(fn.const_base, fn.const_base + fn.const_count))
        return frozenset(defined)

    def join(self, a, b):
        return a & b

    def edge_transfer(self, edge, state):
        if not edge[1]:
            return state
        return frozenset(state | {dest for dest, _src in edge[1]})

    def transfer(self, cfg, block, state):
        defined = set(state)
        stream = cfg.stream()
        for pc in block.pcs:
            for kind, value in instruction_events(stream[pc]):
                if kind == "def":
                    defined.add(value)
        return frozenset(defined)


__all__ = ["DataflowResult", "MustDefined", "solve_forward"]
