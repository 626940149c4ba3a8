"""Instruction, block and whole-graph cloning.

:func:`clone_blocks` clones one graph's blocks into fresh blocks of
another, for two consumers:

* :func:`copy_graph` deep-copies a function.  The **bench harness**
  profiles each workload once and compiles a :func:`copy_program` clone
  of it under every configuration but the last; the **backtracking
  baseline** (Algorithm 1 of the paper) copies the entire CFG before
  every tentative duplication — the very cost the simulation tier
  exists to avoid;
* the **inliner** clones a callee graph into a caller, each return a
  jump to the call's continuation.

:func:`clone_instruction` and :func:`clone_terminator` also serve the
**duplication transformation**, which clones one merge block into each
predecessor, and **loop peeling**, which clones a loop body ahead of
the loop: both copy a region into its own graph under edge rules of
their own.
"""

from __future__ import annotations

from typing import Callable, Optional

from .block import Block
from .cfgutils import reverse_post_order
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


def clone_blocks(
    source: Graph,
    into: Graph,
    block_map: dict[Block, Block],
    value_map: dict[Value, Value],
    returns: Optional[Block] = None,
) -> list[tuple[Block, Optional[Value]]]:
    """Clone every block of ``source`` into its fresh, empty block of
    ``into`` in ``block_map``: trip counts, phis, instructions,
    terminators, predecessor order and phi inputs.

    ``value_map`` maps ``source``'s parameters on entry and every cloned
    value on return; constants are interned in ``into``.  With
    ``returns``, each ``Return`` becomes a ``Goto returns``; the result
    lists those copies, in ``source.blocks`` order, each with its
    mapped return value (None for a void return).
    """

    def mapped(value: Value) -> Value:
        replacement = value_map.get(value)
        if replacement is not None:
            return replacement
        if isinstance(value, Constant):
            replacement = into.constant(value.value, value.type)
            value_map[value] = replacement
            return replacement
        raise KeyError(f"unmapped value {value!r} while cloning {source.name}")

    for block, copy in block_map.items():
        trips = getattr(block, "profile_trip_count", None)
        if trips is not None:
            copy.profile_trip_count = trips

    # Phis first, with empty inputs (they may reference values defined
    # later or cyclically), then straight-line instructions, both in
    # reverse post order: every definition's block precedes its uses'
    # blocks there (dominators come first), which ``source.blocks``
    # (creation order) does not guarantee after block-restructuring
    # phases.  Unreachable stragglers come last.
    order = reverse_post_order(source)
    reached = set(order)
    order += [b for b in source.blocks if b not in reached]
    pending_phis: list[tuple[Phi, Phi]] = []
    for block in order:
        copy = block_map[block]
        for phi in block.phis:
            new_phi = Phi(copy, phi.type, [])
            copy.add_phi(new_phi)
            value_map[phi] = new_phi
            pending_phis.append((phi, new_phi))
    for block in order:
        copy = block_map[block]
        for ins in block.instructions:
            value_map[ins] = copy.append(clone_instruction(ins, mapped))

    exits: list[tuple[Block, Optional[Value]]] = []
    for block in source.blocks:
        term = block.terminator
        if term is None:
            continue
        copy = block_map[block]
        if returns is not None and isinstance(term, Return):
            exits.append((copy, None if term.value is None else mapped(term.value)))
            copy.set_terminator(Goto(returns))
        else:
            copy.set_terminator(clone_terminator(term, mapped, block_map.__getitem__))

    # Phi inputs are positional: the copies' predecessor order must be
    # the originals', whatever order the terminators were wired in.
    for block in source.blocks:
        copy = block_map[block]
        desired = [block_map[p] for p in block.predecessors]
        if copy.predecessors != desired:
            copy.reorder_predecessors(desired)
    for old_phi, new_phi in pending_phis:
        for value in old_phi.inputs:
            new_phi._append_input(mapped(value))
    return exits


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
    value_map: dict[Value, Value] = dict(zip(graph.parameters, new_graph.parameters))
    block_map: dict[Block, Block] = {graph.entry: new_graph.entry}
    for block in graph.blocks:
        if block is not graph.entry:
            block_map[block] = new_graph.new_block(block._name)
    clone_blocks(graph, new_graph, block_map, value_map)
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
