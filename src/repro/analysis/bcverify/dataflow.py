"""Worklist dataflow over recovered bytecode CFGs.

A deliberately small lattice API: an *analysis* is an object with

* ``direction`` — ``"forward"`` or ``"backward"``;
* ``boundary(cfg)`` — the state at the entry block (forward) or at
  exit blocks, i.e. blocks with no successors (backward);
* ``bottom(cfg)`` — the least element (backward solver only);
* ``join(a, b)`` — the lattice join of two states;
* ``transfer(cfg, block, state)`` — the block transfer function
  (forward: entry state → exit state; backward: live-out → live-in);
* ``edge_transfer(edge, state)`` — the effect of one edge descriptor's
  phi-move sequence (forward: state *after* the moves; backward: the
  successor's live-in renamed *through* the moves).

States must be value-comparable with ``==`` and treated immutably —
transfer functions return fresh objects.  The forward solver is
**optimistic**: block entry states start as the unreached sentinel
``None`` and only blocks reachable from the entry ever get a state, so
``join`` is never asked to merge with "unreached".  The backward
solver is **pessimistic from bottom**, the standard shape for
union-style may-analyses like liveness.

Three analyses ship with the verifier:

* :class:`MustDefined` — forward, intersection: the registers
  guaranteed written on *every* path (seeded with parameters and the
  interned-constant range).  The def-before-use checker re-walks each
  block against its entry state.
* :class:`Liveness` — backward, union: registers whose current value
  may still be read.
* :class:`ConstProp` — forward over the plain code stream: register →
  known constant value, folding the wrap64 arithmetic exactly as the
  machine computes it (division by a known zero never folds — that
  path traps at runtime).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ...vm.bytecode import (
    OP_ADD,
    OP_AND,
    OP_DIV,
    OP_EQ,
    OP_GE,
    OP_GT,
    OP_LE,
    OP_LT,
    OP_MOD,
    OP_MUL,
    OP_NE,
    OP_NEG,
    OP_NOT,
    OP_OR,
    OP_SHL,
    OP_SHR,
    OP_SUB,
    OP_USHR,
    OP_XOR,
)
from ...vm.machine import _MASK, _SIGN, _TWO64
from .cfg import BytecodeCFG, instruction_events


@dataclass
class DataflowResult:
    """Fixpoint states per block index.

    Forward: ``entry`` holds the state *before* the block, ``exit``
    after.  Backward: ``entry`` is the live-in, ``exit`` the live-out.
    A forward ``entry`` of ``None`` marks a block unreachable from the
    function entry.
    """

    entry: dict
    exit: dict


def solve_forward(cfg: BytecodeCFG, analysis) -> DataflowResult:
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


def solve_backward(cfg: BytecodeCFG, analysis) -> DataflowResult:
    exit_ = {block.index: analysis.bottom(cfg) for block in cfg.blocks}
    entry = {
        block.index: analysis.transfer(cfg, block, exit_[block.index])
        for block in cfg.blocks
    }
    blocks = {block.index: block for block in cfg.blocks}
    work = deque(block.index for block in reversed(cfg.blocks))
    queued = set(work)
    while work:
        index = work.popleft()
        queued.discard(index)
        block = blocks[index]
        if block.succs:
            out = analysis.bottom(cfg)
            for edge, succ in zip(block.edges, block.succs):
                out = analysis.join(
                    out, analysis.edge_transfer(edge, entry[succ])
                )
        else:
            out = analysis.boundary(cfg)
        exit_[index] = out
        new_in = analysis.transfer(cfg, block, out)
        if new_in != entry[index]:
            entry[index] = new_in
            for pred in block.preds:
                if pred not in queued:
                    work.append(pred)
                    queued.add(pred)
    return DataflowResult(entry, exit_)


def solve(cfg: BytecodeCFG, analysis) -> DataflowResult:
    """Run ``analysis`` to fixpoint over ``cfg``."""
    if analysis.direction == "forward":
        return solve_forward(cfg, analysis)
    return solve_backward(cfg, analysis)


# ----------------------------------------------------------------------
# Must-defined registers (forward, intersection)
# ----------------------------------------------------------------------
class MustDefined:
    """Registers written on every path from the entry."""

    direction = "forward"

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


# ----------------------------------------------------------------------
# Liveness (backward, union)
# ----------------------------------------------------------------------
class Liveness:
    """Registers whose current value may still be read."""

    direction = "backward"

    def bottom(self, cfg):
        return frozenset()

    def boundary(self, cfg):
        return frozenset()

    def join(self, a, b):
        return a | b

    def edge_transfer(self, edge, state):
        # The move sequence runs d1<-s1; d2<-s2; ... — renaming the
        # successor's live-in backwards means walking it in reverse.
        live = set(state)
        for dest, src in reversed(edge[1]):
            if dest in live:
                live.discard(dest)
                live.add(src)
        return frozenset(live)

    def transfer(self, cfg, block, state):
        live = set(state)
        stream = cfg.stream()
        for pc in reversed(block.pcs):
            events = instruction_events(stream[pc])
            for kind, value in reversed(events):
                if kind == "def":
                    live.discard(value)
                elif kind == "use":
                    live.add(value)
        return frozenset(live)


# ----------------------------------------------------------------------
# Constant propagation (forward, over the plain code stream)
# ----------------------------------------------------------------------
def _wrap64(value: int) -> int:
    value &= _MASK
    return value - _TWO64 if value & _SIGN else value


def _fold(op: int, a, b):
    """Fold one binary base op exactly as the machine computes it.

    Raises on anything unfoldable (bad operand types, division by a
    constant zero) — the caller treats that as "unknown".
    """
    if op == OP_ADD:
        return _wrap64(a + b)
    if op == OP_SUB:
        return _wrap64(a - b)
    if op == OP_MUL:
        return _wrap64(a * b)
    if op in (OP_DIV, OP_MOD):
        if b == 0:
            raise ZeroDivisionError  # runtime trap: never fold
        if op == OP_DIV:
            quotient = abs(a) // abs(b)
            if (a >= 0) != (b >= 0):
                quotient = -quotient
            return _wrap64(quotient)
        remainder = abs(a) % abs(b)
        if a < 0:
            remainder = -remainder
        return _wrap64(remainder)
    if op == OP_AND:
        return _wrap64(a & b)
    if op == OP_OR:
        return _wrap64(a | b)
    if op == OP_XOR:
        return _wrap64(a ^ b)
    if op == OP_SHL:
        return _wrap64(a << (b & 63))
    if op == OP_SHR:
        return _wrap64(a >> (b & 63))
    if op == OP_USHR:
        return _wrap64((a & _MASK) >> (b & 63))
    if op == OP_EQ:
        return a == b
    if op == OP_NE:
        return a != b
    if op == OP_LT:
        return a < b
    if op == OP_LE:
        return a <= b
    if op == OP_GT:
        return a > b
    if op == OP_GE:
        return a >= b
    raise ValueError(f"not a foldable binary op: {op}")


_BINARY_OPS = frozenset(range(OP_ADD, OP_GE + 1))
_MISSING = object()


class ConstProp:
    """Register → known constant value, over the plain code stream.

    States are dicts mapping a register to its proven value; absence
    means unknown.  The join keeps a binding only where both sides
    agree on value *and* type (``True`` and ``1`` compare equal but
    behave differently downstream, e.g. under ``repr`` in codegen).
    """

    direction = "forward"

    def boundary(self, cfg):
        fn = cfg.fn
        env = {}
        for reg in range(fn.const_base, fn.const_base + fn.const_count):
            value = fn.template[reg]
            if value is None or type(value) in (int, bool):
                env[reg] = value
        return env

    def join(self, a, b):
        return {
            reg: value
            for reg, value in a.items()
            if reg in b
            and type(b[reg]) is type(value)
            and b[reg] == value
        }

    def edge_transfer(self, edge, state):
        if not edge[1]:
            return state
        env = dict(state)
        for dest, src in edge[1]:
            if src in env:
                env[dest] = env[src]
            else:
                env.pop(dest, None)
        return env

    def transfer(self, cfg, block, state):
        env = dict(state)
        code = cfg.fn.code
        for pc in block.pcs:
            self._step(env, code[pc])
        return env

    def _step(self, env, ins) -> None:
        op, dest = ins[0], ins[3]
        if op in _BINARY_OPS:
            a = env.get(ins[4], _MISSING)
            b = env.get(ins[5], _MISSING)
            if a is not _MISSING and b is not _MISSING:
                try:
                    env[dest] = _fold(op, a, b)
                    return
                except Exception:
                    pass  # unfoldable operands: fall through to kill
        elif op == OP_NOT:
            a = env.get(ins[4], _MISSING)
            if a is not _MISSING:
                env[dest] = not a
                return
        elif op == OP_NEG:
            a = env.get(ins[4], _MISSING)
            if a is not _MISSING and type(a) in (int, bool):
                env[dest] = _wrap64(-a)
                return
        if dest >= 0:
            env.pop(dest, None)


__all__ = [
    "ConstProp",
    "DataflowResult",
    "Liveness",
    "MustDefined",
    "solve",
    "solve_backward",
    "solve_forward",
]
