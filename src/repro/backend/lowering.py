"""Lowering: SSA IR → LIR over virtual registers.

Every value-producing instruction gets a virtual register; constants
become immediates at their use sites.  Phis produce registers too, but
no code at the merge: each predecessor edge ends with the corresponding
*parallel move set*, sequentialized with the classic cycle-breaking
algorithm (a swap of two phis must not clobber either source).

The IR's critical-edge invariant guarantees all phi moves sit before
``Goto`` terminators, so no edge splitting is needed at this level.
"""

from __future__ import annotations

from ..ir.block import Block
from ..ir.cfgutils import reverse_post_order
from ..ir.graph import Graph, Program
from ..ir.nodes import (
    ArithOp,
    ArrayLength,
    ArrayLoad,
    ArrayStore,
    Call,
    Compare,
    Constant,
    Goto,
    If,
    Instruction,
    LoadField,
    LoadGlobal,
    Neg,
    New,
    NewArray,
    Not,
    Return,
    StoreField,
    StoreGlobal,
    Value,
)
from ..ir.types import VOID
from .lir import (
    Immediate,
    LirArrayLength,
    LirArrayLoad,
    LirArrayStore,
    LirBinOp,
    LirBlock,
    LirBranch,
    LirCall,
    LirCmp,
    LirFunction,
    LirInstruction,
    LirJump,
    LirLoadField,
    LirLoadGlobal,
    LirMove,
    LirNeg,
    LirNewArray,
    LirNewObject,
    LirNot,
    LirProgram,
    LirReturn,
    LirStoreField,
    LirStoreGlobal,
    Operand,
    VReg,
    fresh_vreg,
)


class LoweringError(Exception):
    """The IR cannot be lowered (broken invariant)."""


def lower_program(program: Program) -> LirProgram:
    """Lower every function of a program."""
    lir = LirProgram(class_table=program.class_table, globals=dict(program.globals))
    for name, graph in program.functions.items():
        lir.functions[name] = lower_graph(graph)
    return lir


def lower_graph(graph: Graph) -> LirFunction:
    return _Lowerer(graph).run()


class _Lowerer:
    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.order = reverse_post_order(graph)
        self.block_ids: dict[Block, int] = {b: i for i, b in enumerate(self.order)}
        self.vregs: dict[Value, VReg] = {}
        self.function = LirFunction(
            name=graph.name,
            param_regs=[],
            entry=0,
        )

    # ------------------------------------------------------------------
    def run(self) -> LirFunction:
        for param in self.graph.parameters:
            vreg = fresh_vreg(param.param_name)
            self.vregs[param] = vreg
            self.function.param_regs.append(vreg)
        # Pre-create registers for every value-producing instruction so
        # forward references (loop phis) resolve.
        for block in self.order:
            for phi in block.phis:
                self.vregs[phi] = fresh_vreg(f"phi{phi.id}")
            for ins in block.instructions:
                if ins.type != VOID:
                    self.vregs[ins] = fresh_vreg()

        # Create all blocks first so forward jumps can link immediately.
        for block in self.order:
            block_id = self.block_ids[block]
            self.function.blocks[block_id] = LirBlock(id=block_id)
        for block in self.order:
            lir_block = self.function.blocks[self.block_ids[block]]
            for ins in block.instructions:
                lir_block.instructions.extend(self._lower_instruction(ins))
            self._lower_terminator(block, lir_block)
        self.function.register_count = len(self.vregs)
        return self.function

    # ------------------------------------------------------------------
    def _operand(self, value: Value) -> Operand:
        if isinstance(value, Constant):
            return Immediate(value.value)
        try:
            return self.vregs[value]
        except KeyError:  # pragma: no cover - verifier catches earlier
            raise LoweringError(f"no register for {value!r}")

    def _lower_instruction(self, ins: Instruction) -> list[LirInstruction]:
        op = self._operand
        if isinstance(ins, ArithOp):
            return [LirBinOp(ins.op, self.vregs[ins], op(ins.x), op(ins.y))]
        if isinstance(ins, Compare):
            return [LirCmp(ins.op, self.vregs[ins], op(ins.x), op(ins.y))]
        if isinstance(ins, Not):
            return [LirNot(self.vregs[ins], op(ins.input(0)))]
        if isinstance(ins, Neg):
            return [LirNeg(self.vregs[ins], op(ins.input(0)))]
        if isinstance(ins, New):
            return [LirNewObject(self.vregs[ins], ins.object_type.class_name)]
        if isinstance(ins, LoadField):
            return [LirLoadField(self.vregs[ins], op(ins.obj), ins.field)]
        if isinstance(ins, StoreField):
            return [LirStoreField(op(ins.obj), ins.field, op(ins.value))]
        if isinstance(ins, LoadGlobal):
            return [LirLoadGlobal(self.vregs[ins], ins.global_name)]
        if isinstance(ins, StoreGlobal):
            return [LirStoreGlobal(ins.global_name, op(ins.value))]
        if isinstance(ins, NewArray):
            return [
                LirNewArray(self.vregs[ins], ins.element_type, op(ins.length))
            ]
        if isinstance(ins, ArrayLoad):
            return [LirArrayLoad(self.vregs[ins], op(ins.array), op(ins.index))]
        if isinstance(ins, ArrayStore):
            return [
                LirArrayStore(op(ins.array), op(ins.index), op(ins.value))
            ]
        if isinstance(ins, ArrayLength):
            return [LirArrayLength(self.vregs[ins], op(ins.array))]
        if isinstance(ins, Call):
            dst = self.vregs.get(ins)
            return [LirCall(dst, ins.callee, [op(a) for a in ins.args])]
        raise LoweringError(f"cannot lower {type(ins).__name__}")

    # ------------------------------------------------------------------
    def _lower_terminator(self, block: Block, lir_block: LirBlock) -> None:
        term = block.terminator
        if isinstance(term, Return):
            lir_block.instructions.append(
                LirReturn(self._operand(term.value) if term.value is not None else None)
            )
            return
        if isinstance(term, Goto):
            self._emit_phi_moves(block, term.target, lir_block)
            target = self.block_ids[term.target]
            lir_block.instructions.append(LirJump(target))
            lir_block.successors.append(target)
            self._link(lir_block.id, target)
            return
        if isinstance(term, If):
            for succ in term.targets:
                if succ.phis:
                    raise LoweringError(
                        "critical edge: branch target has phis "
                        f"({block.name} -> {succ.name})"
                    )
            true_id = self.block_ids[term.true_target]
            false_id = self.block_ids[term.false_target]
            lir_block.instructions.append(
                LirBranch(self._operand(term.condition), true_id, false_id)
            )
            lir_block.successors.extend([true_id, false_id])
            self._link(lir_block.id, true_id)
            self._link(lir_block.id, false_id)
            return
        raise LoweringError(f"unknown terminator {term!r}")

    def _link(self, pred_id: int, succ_id: int) -> None:
        self.function.blocks[succ_id].predecessors.append(pred_id)

    # ------------------------------------------------------------------
    def _emit_phi_moves(self, pred: Block, merge: Block, lir_block: LirBlock) -> None:
        if not merge.phis:
            return
        index = merge.predecessor_index(pred)
        moves = [
            (self.vregs[phi], self._operand(phi.input(index)))
            for phi in merge.phis
        ]
        lir_block.instructions.extend(sequentialize_parallel_moves(moves))


def sequentialize_parallel_moves(
    moves: list[tuple[VReg, Operand]],
) -> list[LirInstruction]:
    """Order a parallel move set so no source is clobbered early.

    The classic algorithm: emit moves whose destination is not pending
    as a source; when only cycles remain, break one via a temporary.
    """
    pending = [(dst, src) for dst, src in moves if dst != src]
    out: list[LirInstruction] = []
    while pending:
        safe_index = next(
            (
                i
                for i, (dst, _) in enumerate(pending)
                if not any(src == dst for _, src in pending)
            ),
            None,
        )
        if safe_index is not None:
            dst, src = pending.pop(safe_index)
            out.append(LirMove(dst, src))
            continue
        # Only cycles remain: park one source in a temporary, which
        # unblocks the move that wanted to overwrite it.
        _, blocked_src = pending[0]
        temp = fresh_vreg("cycle")
        out.append(LirMove(temp, blocked_src))
        pending = [
            (dst, temp if src == blocked_src else src) for dst, src in pending
        ]
    return out
