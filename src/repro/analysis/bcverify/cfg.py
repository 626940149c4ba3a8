"""Bytecode CFG recovery: block structure over flat instruction streams.

The verifier's first job is turning a translated function's flat
``fn.code`` stream back into a control-flow graph it can reason about.
:func:`build_cfg` walks the block spans recorded at translation time
(``fn.blocks``), decodes each instruction through the
:mod:`repro.vm.opspec` registry, and produces a :class:`BytecodeCFG`
whose blocks know their instructions, their terminator and their
successor edges.

Anything that prevents sound CFG recovery — an unknown opcode, a span
tiling mismatch, a terminator in the middle of a block, a block that
falls through without one, a branch into the middle of a block —
raises :class:`DecodeError`; the structure checker converts that into
a report violation and the downstream dataflow checkers skip the
function.

:func:`instruction_events` linearizes one instruction into its
``("use", reg)`` / ``("def", reg)`` / ``("edge", descriptor)`` events
in execution order — the one decoder every dataflow analysis shares.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...vm.opspec import OPCODE_SPECS, OpSpec


class DecodeError(Exception):
    """An instruction stream cannot be soundly decoded into a CFG."""


def spec_of(ins_or_op) -> OpSpec:
    """The :class:`OpSpec` for an opcode (or instruction tuple)."""
    opcode = ins_or_op[0] if isinstance(ins_or_op, tuple) else ins_or_op
    spec = OPCODE_SPECS.get(opcode)
    if spec is None:
        raise DecodeError(f"unknown opcode {opcode!r}")
    return spec


def is_terminator(ins: tuple) -> bool:
    """Does this instruction end its basic block?"""
    return spec_of(ins).terminator


def instruction_events(ins: tuple) -> list:
    """``("use", r)`` / ``("def", r)`` / ``("edge", e)`` in exec order."""
    spec = spec_of(ins)
    fam = spec.family
    out: list = []
    if fam == "base":
        for i, kind in enumerate(spec.sig):
            if kind == "r":
                out.append(("use", ins[4 + i]))
        if ins[3] >= 0:
            out.append(("def", ins[3]))
    elif fam == "call":
        for reg in ins[5]:
            out.append(("use", reg))
        out.append(("def", ins[3]))
    elif fam == "goto":
        out.append(("edge", ins[4]))
    elif fam == "if":
        out.append(("use", ins[4]))
        out.append(("edge", ins[5]))
        out.append(("edge", ins[6]))
    elif fam == "return":
        if ins[4] >= 0:
            out.append(("use", ins[4]))
    else:  # pragma: no cover - every registered family is handled
        raise DecodeError(f"unhandled instruction family {fam!r}")
    return out


@dataclass
class BCBlock:
    """One recovered basic block of an instruction stream."""

    index: int
    name: str
    start: int
    count: int
    #: instruction pcs in order
    pcs: tuple = ()
    terminator_pc: int = -1
    #: outgoing edge descriptors, parallel to ``succs``
    edges: tuple = ()
    #: successor block indices, parallel to ``edges``
    succs: tuple = ()
    preds: tuple = ()


class BytecodeCFG:
    """The recovered control-flow graph of one function's stream."""

    def __init__(self, fn, blocks: list[BCBlock]) -> None:
        self.fn = fn
        self.blocks = blocks
        self.by_start = {block.start: block for block in blocks}

    @property
    def entry(self) -> BCBlock:
        return self.blocks[0]

    def stream(self) -> tuple:
        return self.fn.code

    def __repr__(self) -> str:
        return f"<BytecodeCFG {self.fn.name}: {len(self.blocks)} block(s)>"


def _edge_target(edge) -> int:
    if (
        not isinstance(edge, tuple)
        or len(edge) != 3
        or not isinstance(edge[0], int)
    ):
        raise DecodeError(f"malformed edge descriptor {edge!r}")
    return edge[0]


def build_cfg(fn) -> BytecodeCFG:
    """Recover the CFG of ``fn.code`` from its block spans
    (``fn.blocks``, which every translation emits); raises
    :class:`DecodeError`, also for a function without spans."""
    stream = fn.code
    if not fn.blocks:
        raise DecodeError("function has no block-span metadata")
    spans = sorted(fn.blocks, key=lambda span: span[0])
    expected_start = 0
    for start, count, _name in spans:
        if start != expected_start or count <= 0:
            raise DecodeError(
                f"block spans do not tile the stream: span at {start} "
                f"(expected {expected_start}, count {count})"
            )
        expected_start = start + count
    if expected_start != len(stream):
        raise DecodeError(
            f"block spans cover {expected_start} slots but the stream "
            f"has {len(stream)}"
        )

    blocks: list[BCBlock] = []
    for index, (start, count, name) in enumerate(spans):
        end = start + count
        terminator_pc = -1
        for pc in range(start, end):
            ins = stream[pc]
            if not isinstance(ins, tuple) or len(ins) < 4:
                raise DecodeError(f"malformed instruction at pc {pc}: {ins!r}")
            if is_terminator(ins):
                if pc + 1 != end:
                    raise DecodeError(
                        f"terminator {spec_of(ins).name!r} in the middle of "
                        f"block {name!r} at pc {pc}"
                    )
                terminator_pc = pc
        if terminator_pc < 0:
            raise DecodeError(f"block {name!r} falls through (no terminator)")
        blocks.append(
            BCBlock(
                index=index, name=name, start=start, count=count,
                pcs=tuple(range(start, end)), terminator_pc=terminator_pc,
            )
        )

    cfg = BytecodeCFG(fn, blocks)
    preds: dict[int, list[int]] = {block.index: [] for block in blocks}
    for block in blocks:
        edges = [
            event[1]
            for event in instruction_events(stream[block.terminator_pc])
            if event[0] == "edge"
        ]
        succs = []
        for edge in edges:
            target = _edge_target(edge)
            succ = cfg.by_start.get(target)
            if succ is None:
                if 0 <= target < len(stream):
                    raise DecodeError(
                        f"branch from block {block.name!r} into the middle "
                        f"of a block (pc {target})"
                    )
                raise DecodeError(
                    f"branch target {target} out of range in block "
                    f"{block.name!r}"
                )
            succs.append(succ.index)
            preds[succ.index].append(block.index)
        block.edges = tuple(edges)
        block.succs = tuple(succs)
    for block in blocks:
        block.preds = tuple(preds[block.index])
    return cfg


__all__ = [
    "BCBlock",
    "BytecodeCFG",
    "DecodeError",
    "build_cfg",
    "instruction_events",
    "is_terminator",
    "spec_of",
]
