"""Instruction and whole-graph cloning.

Four consumers:

* the **bench harness** profiles each workload once and compiles a
  :func:`copy_program` clone of it under every configuration but the
  last;
* the **backtracking baseline** (Algorithm 1 of the paper) copies the
  entire CFG before every tentative duplication — the very cost the
  simulation tier exists to avoid;
* the **duplication transformation** clones the instructions of one
  merge block into each predecessor;
* the **inliner** clones a callee graph into a caller.
"""

from __future__ import annotations

from typing import Callable

from .block import Block
from .graph import Graph, Program
from .nodes import (
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
    Phi,
    Return,
    StoreField,
    StoreGlobal,
    Terminator,
    Value,
)

ValueMapper = Callable[[Value], Value]


def clone_order(graph: Graph) -> list[Block]:
    """Blocks in an order where definitions precede their uses: reverse
    post order first, then any unreachable stragglers."""
    from .cfgutils import reverse_post_order

    order = reverse_post_order(graph)
    seen = set(order)
    return order + [b for b in graph.blocks if b not in seen]


def clone_instruction(instruction: Instruction, mapper: ValueMapper) -> Instruction:
    """Create a fresh copy of ``instruction`` with mapped operands.

    Phis are not handled here — they are positional per predecessor and
    every cloning context treats them specially.
    """
    ins = instruction
    if isinstance(ins, ArithOp):
        return ArithOp(ins.op, mapper(ins.x), mapper(ins.y))
    if isinstance(ins, Compare):
        return Compare(ins.op, mapper(ins.x), mapper(ins.y))
    if isinstance(ins, Not):
        return Not(mapper(ins.x))
    if isinstance(ins, Neg):
        return Neg(mapper(ins.x))
    if isinstance(ins, New):
        return New(ins.object_type)
    if isinstance(ins, LoadField):
        return LoadField(mapper(ins.obj), ins.field, ins.type)
    if isinstance(ins, StoreField):
        return StoreField(mapper(ins.obj), ins.field, mapper(ins.value))
    if isinstance(ins, LoadGlobal):
        return LoadGlobal(ins.global_name, ins.type)
    if isinstance(ins, StoreGlobal):
        return StoreGlobal(ins.global_name, mapper(ins.value))
    if isinstance(ins, NewArray):
        return NewArray(ins.element_type, mapper(ins.length))
    if isinstance(ins, ArrayLoad):
        return ArrayLoad(mapper(ins.array), mapper(ins.index), ins.type)
    if isinstance(ins, ArrayStore):
        return ArrayStore(mapper(ins.array), mapper(ins.index), mapper(ins.value))
    if isinstance(ins, ArrayLength):
        return ArrayLength(mapper(ins.array))
    if isinstance(ins, Call):
        return Call(ins.callee, [mapper(a) for a in ins.args], ins.type)
    raise TypeError(f"cannot clone {type(ins).__name__}")


def clone_terminator(
    terminator: Terminator,
    mapper: ValueMapper,
    block_map: Callable[[Block], Block],
) -> Terminator:
    """Copy a terminator with mapped operands and remapped targets.

    The returned terminator is *detached*: install it with
    ``set_terminator`` so predecessor lists are updated.
    """
    term = terminator
    if isinstance(term, Goto):
        return Goto(block_map(term.target))
    if isinstance(term, If):
        return If(
            mapper(term.condition),
            block_map(term.true_target),
            block_map(term.false_target),
            term.true_probability,
        )
    if isinstance(term, Return):
        return Return(mapper(term.value) if term.value is not None else None)
    raise TypeError(f"cannot clone terminator {type(term).__name__}")


def copy_graph(graph: Graph) -> tuple[Graph, dict[Value, Value]]:
    """Deep-copy a function graph.

    Returns the copy together with the old-value → new-value map (the
    backtracking baseline uses the map to locate corresponding merges).
    """
    new_graph = Graph(
        graph.name,
        [(p.param_name, p.type) for p in graph.parameters],
        graph.return_type,
    )
    value_map: dict[Value, Value] = {}
    for old_p, new_p in zip(graph.parameters, new_graph.parameters):
        value_map[old_p] = new_p

    block_map: dict[Block, Block] = {graph.entry: new_graph.entry}
    for block in graph.blocks:
        if block is graph.entry:
            continue
        block_map[block] = new_graph.new_block(block._name)
    for block, new_block in block_map.items():
        trips = getattr(block, "profile_trip_count", None)
        if trips is not None:
            new_block.profile_trip_count = trips

    def mapped(value: Value) -> Value:
        replacement = value_map.get(value)
        if replacement is not None:
            return replacement
        if isinstance(value, Constant):
            replacement = new_graph.constant(value.value, value.type)
            value_map[value] = replacement
            return replacement
        raise KeyError(f"unmapped value {value!r} during graph copy")

    # Pass 1: create phis with empty inputs (they may reference values
    # defined later / cyclically) and clone straight-line instructions.
    # Instructions are cloned in reverse post order: every definition's
    # block precedes its uses' blocks there (dominators come first),
    # which graph.blocks (creation order) does not guarantee after
    # block-restructuring phases.
    order = clone_order(graph)
    pending_phis: list[tuple[Phi, Phi]] = []
    for block in order:
        new_block = block_map[block]
        for phi in block.phis:
            new_phi = Phi(new_block, phi.type, [])
            new_block.add_phi(new_phi)
            value_map[phi] = new_phi
            pending_phis.append((phi, new_phi))

    for block in order:
        new_block = block_map[block]
        for ins in block.instructions:
            new_ins = clone_instruction(ins, mapped)
            new_block.append(new_ins)
            value_map[ins] = new_ins

    # Pass 2: terminators (this wires predecessor lists in CFG order
    # identical to the original because we iterate blocks in creation
    # order and set_terminator appends predecessors).
    for block in graph.blocks:
        if block.terminator is None:
            continue
        new_term = clone_terminator(
            block.terminator, mapped, lambda b: block_map[b]
        )
        block_map[block].set_terminator(new_term)

    # Predecessor *order* must match for positional phi inputs; enforce
    # it explicitly rather than relying on iteration order.
    for block in graph.blocks:
        new_block = block_map[block]
        desired = [block_map[p] for p in block.predecessors]
        if new_block.predecessors != desired:
            new_block.reorder_predecessors(desired)

    # Pass 3: fill phi inputs.
    for old_phi, new_phi in pending_phis:
        for value in old_phi.inputs:
            new_phi._append_input(mapped(value))

    return new_graph, value_map


def copy_program(program: Program) -> Program:
    """Deep-copy every function of ``program``, profile data included.

    Each graph is a :func:`copy_graph` clone, which numbers its blocks
    in ``graph.blocks`` order.  A freshly parsed graph's blocks are
    numbered in that order already (the frontend only appends blocks,
    and :func:`~repro.interp.profile.apply_profile` only annotates
    them), so a clone of a parsed and profiled program keeps every
    block id and the id counter: it prints the original's IR up to
    value numbers, and compiling it gives the same output.  The globals
    are copied; ``class_table`` is shared, since compile phases only
    look classes up.
    """
    clone = Program()
    clone.class_table = program.class_table
    clone.globals = dict(program.globals)
    for name, graph in program.functions.items():
        clone.functions[name] = copy_graph(graph)[0]
    return clone
