"""Superinstruction fusion: combining hot adjacent opcode pairs.

The flat-tuple dispatch loop pays one full handler round-trip per
bytecode instruction.  This pass mines the hottest *adjacent opcode
pairs* — weighted by :class:`~repro.vm.profiler.VMProfile` per-block
cycle attribution when a profile is available, by the static
:meth:`Graph.block_frequencies` estimate otherwise — and rewrites each
eligible occurrence in a function's fast stream (``fn.xcode``) into a
single **superinstruction** that executes both halves under one
dispatch.

Encoding invariants (shared with :mod:`repro.vm.quicken` and the
machine's fast loops):

* every fast-stream tuple ends with its **step weight** (``ins[-1]``:
  1 plain, 2 for fused pairs, 3 for fused wrap64 triples) so
  metered/budget accounting stays exact;
* a weight-``w`` tuple carries the tuple of its ``w - 1`` **unfused
  prefix halves** at ``ins[-2]`` so the budget slow path can stop
  anywhere inside the run with reference timing
  (:meth:`VirtualMachine._budget_stop`);
* the fused cycle cost is the exact sum of both halves' baked costs;
* fusion never consumes a jump target as a second half, and the
  consumed slot keeps its original tuple as never-executed padding, so
  every pc and edge descriptor in the stream stays valid — no
  backpatching, and the disassembler keeps working;
* only **non-trapping** ops fuse (no div/mod, loads/stores of fields
  and arrays, calls), so a fused handler can never raise mid-pair.

The compare+branch family is special-cased: ``cmp; if`` on the
compare's result is the single hottest pair in loop code, so it is
always fused — into one handler that computes the condition, still
writes the compare's destination register (SSA users may read it),
and takes the edge including phi moves, all in one dispatch.
"""

from __future__ import annotations

from typing import Any, Optional

from ..obs.metrics import current_registry
from .bytecode import (
    OP_ADD,
    OP_AND,
    OP_EQ,
    OP_GE,
    OP_GOTO,
    OP_GT,
    OP_IF,
    OP_LE,
    OP_LOAD_GLOBAL,
    OP_LT,
    OP_MUL,
    OP_NE,
    OP_NEG,
    OP_NEW,
    OP_NOT,
    OP_OR,
    OP_RETURN,
    OP_SHL,
    OP_SHR,
    OP_STORE_GLOBAL,
    OP_SUB,
    OP_USHR,
    OP_XOR,
    OPCODE_NAMES,
    BytecodeProgram,
)
from .machine import _MASK, _SIGN, _TWO64, _HANDLERS, _is_ref, register_xop
from .opspec import OpSpec, register_opspec

#: how many mined pairs beyond the always-fused cmp+branch family get
#: superinstructions.  Twelve, because the specialized arithmetic pair
#: handlers below make fusing a pair essentially free — the only cost
#: of a larger plan is xcode rewriting at translation time.
DEFAULT_TOP_PAIRS = 12

#: value-producing opcodes that can never trap — the only ops allowed
#: inside a superinstruction (a fused handler must not raise mid-pair)
NONTRAP_OPS = frozenset(
    (
        OP_ADD, OP_SUB, OP_MUL, OP_AND, OP_OR, OP_XOR,
        OP_SHL, OP_SHR, OP_USHR,
        OP_EQ, OP_NE, OP_LT, OP_LE, OP_GT, OP_GE,
        OP_NOT, OP_NEG, OP_NEW, OP_LOAD_GLOBAL, OP_STORE_GLOBAL,
    )
)

_CMP_OPS = (OP_EQ, OP_NE, OP_LT, OP_LE, OP_GT, OP_GE)


# ----------------------------------------------------------------------
# Fused handlers.  Same (vm, ins, regs, pc) -> next pc contract as the
# base table; registered into machine.XHANDLERS at import time.  This
# module registers right after the base table, before quickening
# (repro.vm.quicken imports it first), so opcode numbers are
# deterministic and pickle-stable whichever module a process imports
# first.
#
# Compare+If layout:
#   (op, costA+costB, node_if, cmp_dest, rx, ry, true_edge, false_edge,
#    first_half, 2)
# These run only in the fast loops (no profile, no observer), so the
# edge transfer is just the phi moves.
# ----------------------------------------------------------------------
def _take_fused_edge(regs, edge):
    if edge[1]:
        for d, s in edge[1]:
            regs[d] = regs[s]
    return edge[0]


def _op_if_eq(vm, ins, regs, pc):
    a, b = regs[ins[4]], regs[ins[5]]
    c = a is b if _is_ref(a) or _is_ref(b) else a == b
    regs[ins[3]] = c
    return _take_fused_edge(regs, ins[6] if c else ins[7])


def _op_if_ne(vm, ins, regs, pc):
    a, b = regs[ins[4]], regs[ins[5]]
    c = not (a is b if _is_ref(a) or _is_ref(b) else a == b)
    regs[ins[3]] = c
    return _take_fused_edge(regs, ins[6] if c else ins[7])


def _op_if_lt(vm, ins, regs, pc):
    c = regs[ins[4]] < regs[ins[5]]
    regs[ins[3]] = c
    return _take_fused_edge(regs, ins[6] if c else ins[7])


def _op_if_le(vm, ins, regs, pc):
    c = regs[ins[4]] <= regs[ins[5]]
    regs[ins[3]] = c
    return _take_fused_edge(regs, ins[6] if c else ins[7])


def _op_if_gt(vm, ins, regs, pc):
    c = regs[ins[4]] > regs[ins[5]]
    regs[ins[3]] = c
    return _take_fused_edge(regs, ins[6] if c else ins[7])


def _op_if_ge(vm, ins, regs, pc):
    c = regs[ins[4]] >= regs[ins[5]]
    regs[ins[3]] = c
    return _take_fused_edge(regs, ins[6] if c else ins[7])


# Generic pair: (op, costA+costB, nodeA, -1, tupleA, tupleB, tupleA, 2).
# Both halves run through the *base* handler table (they are plain,
# unfused, unquickened tuples), so semantics are exactly sequential.
def _op_fused2(vm, ins, regs, pc):
    a = ins[4]
    _HANDLERS[a[0]](vm, a, regs, pc)
    b = ins[5]
    return _HANDLERS[b[0]](vm, b, regs, pc + 1)


# Op+goto: (op, costA+costB, nodeA, -1, tupleA, edge, tupleA, 2) — the
# loop-latch pattern (`i = i + 1; goto header`) in one dispatch.
def _op_fused_goto(vm, ins, regs, pc):
    a = ins[4]
    _HANDLERS[a[0]](vm, a, regs, pc)
    return _take_fused_edge(regs, ins[5])


OP_IF_EQ = register_xop(_op_if_eq)
OP_IF_NE = register_xop(_op_if_ne)
OP_IF_LT = register_xop(_op_if_lt)
OP_IF_LE = register_xop(_op_if_le)
OP_IF_GT = register_xop(_op_if_gt)
OP_IF_GE = register_xop(_op_if_ge)
OP_FUSED2 = register_xop(_op_fused2)
OP_FUSED_GOTO = register_xop(_op_fused_goto)

_CMP_TO_FUSED_IF = dict(
    zip(_CMP_OPS, (OP_IF_EQ, OP_IF_NE, OP_IF_LT, OP_IF_LE, OP_IF_GT, OP_IF_GE))
)

for _cmp, _xop in _CMP_TO_FUSED_IF.items():
    register_opspec(_xop, OpSpec(
        f"if_{OPCODE_NAMES[_cmp]}", "fused-if", weight=2,
        origin=(_cmp, OP_IF),
    ))
del _cmp, _xop
# The generic forms embed arbitrary constituent tuples, so their origin
# is open-ended (any NONTRAP_OPS combination) — left empty here; the
# decompile-equivalence checker validates the embedded tuples instead.
register_opspec(OP_FUSED2, OpSpec("fused2", "fused2", weight=2))
register_opspec(OP_FUSED_GOTO, OpSpec("fused_goto", "fused2-goto", weight=2))


# ----------------------------------------------------------------------
# Specialized arithmetic superinstructions.  The generic ``_op_fused2``
# trades two dispatches for one but still pays *two inner handler
# calls* — in CPython the calls are the expensive part, so generic
# fusion barely beats the flat stream.  The by-far hottest fused
# family on the benchmark suites is "wrap64 binop; wrap64 binop", and
# for that family the handlers generated below inline both bodies:
# the pair costs ONE dispatch and zero calls.  They are exec-generated
# in a fixed (sorted) nested order at import time, so extended opcode
# numbers stay deterministic and pickle-stable.
#
# Pair layout:   (xop, costA+costB, nodeA, destA, xA, yA,
#                 destB, xB, yB, first_half, 2)
# Op+goto layout (the loop-latch `i = i + 1; goto header`):
#                (xop, costA+costB, nodeA, destA, xA, yA,
#                 edge, first_half, 2)
# Flat operand slots — no nested tuple indexing on the hot path; slot
# ``-2`` still carries the unfused first half for
# :meth:`VirtualMachine._budget_stop`, slot ``-1`` the step weight.
# ----------------------------------------------------------------------
_WRAP_EXPR = {
    OP_ADD: "regs[ins[{x}]] + regs[ins[{y}]]",
    OP_SUB: "regs[ins[{x}]] - regs[ins[{y}]]",
    OP_MUL: "regs[ins[{x}]] * regs[ins[{y}]]",
    OP_AND: "regs[ins[{x}]] & regs[ins[{y}]]",
    OP_OR: "regs[ins[{x}]] | regs[ins[{y}]]",
    OP_XOR: "regs[ins[{x}]] ^ regs[ins[{y}]]",
    OP_SHL: "regs[ins[{x}]] << (regs[ins[{y}]] & 63)",
    OP_SHR: "regs[ins[{x}]] >> (regs[ins[{y}]] & 63)",
    OP_USHR: "(regs[ins[{x}]] & _MASK) >> (regs[ins[{y}]] & 63)",
}


def _gen_xop(name: str, body: str) -> int:
    ns = {"_MASK": _MASK, "_SIGN": _SIGN, "_TWO64": _TWO64}
    exec(compile(f"def {name}(vm, ins, regs, pc):\n{body}",
                 f"<fusion:{name}>", "exec"), ns)
    return register_xop(ns[name])


#: (op_a, op_b) -> fully inlined pair superinstruction opcode
_PAIR_XOPS: dict[tuple[int, int], int] = {}
#: op_a -> fully inlined op+goto superinstruction opcode
_GOTO_XOPS: dict[int, int] = {}

for _op_a in sorted(_WRAP_EXPR):
    _ea = _WRAP_EXPR[_op_a].format(x=4, y=5)
    for _op_b in sorted(_WRAP_EXPR):
        _eb = _WRAP_EXPR[_op_b].format(x=7, y=8)
        _PAIR_XOPS[(_op_a, _op_b)] = register_opspec(_gen_xop(
            f"_op_{OPCODE_NAMES[_op_a]}_{OPCODE_NAMES[_op_b]}",
            f"    v = ({_ea}) & _MASK\n"
            f"    regs[ins[3]] = v - _TWO64 if v & _SIGN else v\n"
            f"    v = ({_eb}) & _MASK\n"
            f"    regs[ins[6]] = v - _TWO64 if v & _SIGN else v\n"
            f"    return pc + 2\n",
        ), OpSpec(
            f"{OPCODE_NAMES[_op_a]}_{OPCODE_NAMES[_op_b]}", "fused-pair",
            weight=2, origin=(_op_a, _op_b),
        ))
    _GOTO_XOPS[_op_a] = register_opspec(_gen_xop(
        f"_op_{OPCODE_NAMES[_op_a]}_goto",
        f"    v = ({_ea}) & _MASK\n"
        f"    regs[ins[3]] = v - _TWO64 if v & _SIGN else v\n"
        f"    edge = ins[6]\n"
        f"    if edge[1]:\n"
        f"        for d, s in edge[1]:\n"
        f"            regs[d] = regs[s]\n"
        f"    return edge[0]\n",
    ), OpSpec(
        f"{OPCODE_NAMES[_op_a]}_goto", "fused-goto",
        weight=2, origin=(_op_a, OP_GOTO),
    ))
del _op_a, _op_b, _ea, _eb

#: (op_a, op_b, op_c) -> fully inlined triple superinstruction opcode.
#: Triples layout: (xop, costA+costB+costC, nodeA, destA, xA, yA,
#: destB, xB, yB, destC, xC, yC, (first_half, second_half), 3).
#: All 729 combinations are generated in sorted order, so opcode
#: numbers stay deterministic, as nine exec units of 81 (one per first
#: half): far cheaper at import time than 729 compiles, and a unit of
#: 81 peaks at about an eighth of the memory one of 729 takes to compile.
_TRIPLE_XOPS: dict[tuple[int, int, int], int] = {}


def _gen_triples(op_a: int) -> None:
    """Generate and register the 81 triples whose first half is ``op_a``."""
    chunks = []
    names = []
    ea = _WRAP_EXPR[op_a].format(x=4, y=5)
    for op_b in sorted(_WRAP_EXPR):
        eb = _WRAP_EXPR[op_b].format(x=7, y=8)
        for op_c in sorted(_WRAP_EXPR):
            ec = _WRAP_EXPR[op_c].format(x=10, y=11)
            name = (
                f"_op_{OPCODE_NAMES[op_a]}_{OPCODE_NAMES[op_b]}"
                f"_{OPCODE_NAMES[op_c]}"
            )
            chunks.append(
                f"def {name}(vm, ins, regs, pc):\n"
                f"    v = ({ea}) & _MASK\n"
                f"    regs[ins[3]] = v - _TWO64 if v & _SIGN else v\n"
                f"    v = ({eb}) & _MASK\n"
                f"    regs[ins[6]] = v - _TWO64 if v & _SIGN else v\n"
                f"    v = ({ec}) & _MASK\n"
                f"    regs[ins[9]] = v - _TWO64 if v & _SIGN else v\n"
                f"    return pc + 3\n"
            )
            names.append(((op_a, op_b, op_c), name))
    ns = {"_MASK": _MASK, "_SIGN": _SIGN, "_TWO64": _TWO64}
    exec(compile(
        "\n".join(chunks), f"<fusion:triples:{OPCODE_NAMES[op_a]}>", "exec"
    ), ns)
    for key, name in names:
        _TRIPLE_XOPS[key] = register_opspec(
            register_xop(ns[name]),
            OpSpec(name[4:], "fused-triple", weight=3, origin=key),
        )


for _op_a in sorted(_WRAP_EXPR):
    _gen_triples(_op_a)
del _op_a

# Everything from the first specialized pair onward — the pair, goto
# and triple xops above plus quickening's forms, registered later —
# is a plain compute handler, so the fast loops range-dispatch them
# with one compare (see machine.bind_fast_ops for the contract).  The
# measured-hottest fused branches below that base additionally get
# inline arms.
from .machine import bind_fast_ops  # noqa: E402  (needs the xops above)

bind_fast_ops(
    spec_base=min(_PAIR_XOPS.values()),
    if_lt=OP_IF_LT,
    if_gt=OP_IF_GT,
    if_ge=OP_IF_GE,
)


# ----------------------------------------------------------------------
# Mining
# ----------------------------------------------------------------------
def _pair_eligible(a: tuple, b: tuple) -> bool:
    """Can ``a; b`` become one superinstruction (generic fusion)?"""
    if a[0] not in NONTRAP_OPS:
        return False
    return b[0] in NONTRAP_OPS or b[0] in (OP_GOTO, OP_IF, OP_RETURN)


def mine_hot_pairs(
    program,
    bytecode: BytecodeProgram,
    vmprofile: Optional[Any] = None,
    top: int = DEFAULT_TOP_PAIRS,
) -> tuple:
    """The ``top`` hottest fusable adjacent opcode pairs, hottest first.

    Every eligible adjacent pair inside a basic block is weighted by
    the block's hotness: measured cycles from a
    :class:`~repro.vm.profiler.VMProfile` when one is supplied
    (``repro profile`` output), the static
    :meth:`Graph.block_frequencies` estimate otherwise.  Ties break on
    opcode numbers, so the plan is deterministic for a given input —
    cached artifacts fused in parallel workers are byte-identical to
    serial ones.
    """
    measured: dict[tuple[str, str], float] = {}
    if vmprofile is not None:
        for block, (fn_name, _steps, cycles) in vmprofile._blocks.items():
            key = (fn_name, block.name)
            measured[key] = measured.get(key, 0.0) + cycles
    weights: dict[tuple[int, int], float] = {}
    for name, graph in program.functions.items():
        fn = bytecode.functions.get(name)
        if fn is None or not fn.blocks:
            continue
        static = {
            block.name: freq
            for block, freq in graph.block_frequencies().frequency.items()
        }
        for start, count, block_name in fn.blocks:
            if vmprofile is not None:
                hotness = measured.get((name, block_name), 0.0)
            else:
                hotness = static.get(block_name, 0.0)
            if hotness <= 0.0:
                continue
            for pc in range(start, start + count - 1):
                a, b = fn.code[pc], fn.code[pc + 1]
                if _pair_eligible(a, b):
                    pair = (a[0], b[0])
                    weights[pair] = weights.get(pair, 0.0) + hotness
    ranked = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(pair for pair, _ in ranked[:top])


# ----------------------------------------------------------------------
# The peephole pass
# ----------------------------------------------------------------------
def _jump_targets(code: tuple) -> set[int]:
    targets = set()
    for ins in code:
        op = ins[0]
        if op == OP_GOTO:
            targets.add(ins[4][0])
        elif op == OP_IF:
            targets.add(ins[5][0])
            targets.add(ins[6][0])
    return targets


def _fuse_pair(a: tuple, b: tuple, plan: tuple) -> Optional[tuple]:
    """The superinstruction for ``a; b``, or None to keep them apart."""
    op_a, op_b = a[0], b[0]
    if op_a in _CMP_OPS and op_b == OP_IF and b[4] == a[3]:
        # cmp + branch-on-its-result: always fused, fully inlined.
        return (
            _CMP_TO_FUSED_IF[op_a], a[1] + b[1], b[2], a[3], a[4], a[5],
            b[5], b[6], (a,), 2,
        )
    if op_a in _WRAP_EXPR and op_b in _WRAP_EXPR:
        # Wrap64 binop pair: always fused — the specialized handlers
        # exist for every combination, so no mining gate is needed.
        return (
            _PAIR_XOPS[(op_a, op_b)], a[1] + b[1], a[2], a[3], a[4], a[5],
            b[3], b[4], b[5], (a,), 2,
        )
    if (op_a, op_b) not in plan or not _pair_eligible(a, b):
        return None
    if op_b == OP_GOTO:
        xop = _GOTO_XOPS.get(op_a)
        if xop is not None:
            return (xop, a[1] + b[1], a[2], a[3], a[4], a[5], b[4], (a,), 2)
        return (OP_FUSED_GOTO, a[1] + b[1], a[2], -1, a, b[4], (a,), 2)
    return (OP_FUSED2, a[1] + b[1], a[2], -1, a, b, (a,), 2)


def _fuse_triple(a: tuple, b: tuple, c: tuple) -> tuple:
    """The flat superinstruction for a wrap64-binop run ``a; b; c``."""
    return (
        _TRIPLE_XOPS[(a[0], b[0], c[0])], a[1] + b[1] + c[1], a[2],
        a[3], a[4], a[5], b[3], b[4], b[5], c[3], c[4], c[5], (a, b), 3,
    )


def fuse_function(fn, plan: tuple) -> int:
    """Build ``fn.xcode`` from ``fn.code``; returns fused-site count.

    The fast stream is a *list* (quickening rewrites sites in place)
    whose slots correspond 1:1 to ``fn.code`` pcs: a fused pair lives
    in the first slot, and the second slot keeps the original tuple as
    unreachable padding.
    """
    code = fn.code
    targets = _jump_targets(code)
    xcode: list = [ins + (1,) for ins in code]
    n = len(code)
    fused = 0
    pc = 0
    while pc < n - 1:
        if pc + 1 in targets:
            pc += 1
            continue
        a, b = code[pc], code[pc + 1]
        # Straight-line wrap64 runs fuse greedily, longest form first:
        # a run can never cross a block boundary (every block ends in a
        # terminator, which is not a wrap64 binop), and the jump-target
        # checks keep every consumed slot unreachable padding.
        if (
            a[0] in _WRAP_EXPR
            and b[0] in _WRAP_EXPR
            and pc + 2 < n
            and pc + 2 not in targets
            and code[pc + 2][0] in _WRAP_EXPR
        ):
            xcode[pc] = _fuse_triple(a, b, code[pc + 2])
            fused += 1
            pc += 3
            continue
        combined = _fuse_pair(a, b, plan)
        if combined is not None:
            xcode[pc] = combined
            fused += 1
            pc += 2
        else:
            pc += 1
    fn.xcode = xcode
    fn.quickened = False
    return fused


def fuse_program(
    program,
    bytecode: BytecodeProgram,
    vmprofile: Optional[Any] = None,
    top: int = DEFAULT_TOP_PAIRS,
) -> tuple:
    """Mine hot pairs over the whole program and fuse every function.

    Returns the mined plan (the fused pair list, hottest first).  The
    always-fused cmp+branch family is not part of the plan.
    """
    plan = mine_hot_pairs(program, bytecode, vmprofile=vmprofile, top=top)
    registry = current_registry()
    for fn in bytecode.functions.values():
        if not fn.blocks:
            continue  # legacy/partial translation: no span info, no fusion
        fused = fuse_function(fn, plan)
        if fused and registry.enabled:
            registry.inc("repro_vm_fused_sites_total", fused, function=fn.name)
    return plan


__all__ = [
    "DEFAULT_TOP_PAIRS",
    "NONTRAP_OPS",
    "OP_FUSED2",
    "OP_FUSED_GOTO",
    "OP_IF_EQ",
    "OP_IF_GE",
    "OP_IF_GT",
    "OP_IF_LE",
    "OP_IF_LT",
    "OP_IF_NE",
    "fuse_function",
    "fuse_program",
    "mine_hot_pairs",
]
