"""Read elimination (Section 2, Listings 5/6).

Eliminates fully redundant memory reads: field loads, global loads and
array loads that a dominating access already produced.  Memory state
flows forward along single-predecessor edges and is dropped at merges —
exactly why the paper's *partially* redundant reads need duplication to
become *fully* redundant: once the merge block is copied into a
predecessor, the read sits on a straight-line path from the first access
and this phase removes it.

Store-to-load forwarding is included (a store populates the cache), as
is default-value forwarding out of fresh allocations.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..ir.block import Block
from ..ir.cfgutils import reverse_post_order
from ..ir.graph import Graph, Program
from .base import Phase
from ..ir.nodes import (
    ArrayLoad,
    ArrayStore,
    Call,
    Instruction,
    LoadField,
    LoadGlobal,
    New,
    NewArray,
    StoreField,
    StoreGlobal,
    Value,
)


def may_alias(a: Value, b: Value) -> bool:
    """Whether two object-valued SSA values may denote the same object.

    Two distinct allocations never alias, and a fresh allocation never
    aliases a value that provably predates it (parameters, constants).
    Everything else conservatively may.
    """
    from ..ir.nodes import Constant, Parameter

    if a is b:
        return True
    for fresh, other in ((a, b), (b, a)):
        if isinstance(fresh, (New, NewArray)) and isinstance(
            other, (New, NewArray, Parameter, Constant)
        ):
            return False
    return True


class MemoryCache:
    """Known memory contents at a program point."""

    __slots__ = ("fields", "globals_", "arrays")

    def __init__(
        self,
        fields: Optional[dict[tuple[Value, str], Value]] = None,
        globals_: Optional[dict[str, Value]] = None,
        arrays: Optional[dict[tuple[Value, Value], Value]] = None,
    ) -> None:
        self.fields = fields if fields is not None else {}
        self.globals_ = globals_ if globals_ is not None else {}
        self.arrays = arrays if arrays is not None else {}

    def copy(self) -> "MemoryCache":
        return MemoryCache(dict(self.fields), dict(self.globals_), dict(self.arrays))

    def clear(self) -> None:
        self.fields.clear()
        self.globals_.clear()
        self.arrays.clear()

    # ------------------------------------------------------------------
    def read_field(self, obj: Value, fname: str) -> Optional[Value]:
        return self.fields.get((obj, fname))

    def write_field(self, obj: Value, fname: str, value: Value) -> None:
        for key in list(self.fields):
            other, other_field = key
            if other_field == fname and other is not obj and may_alias(other, obj):
                del self.fields[key]
        self.fields[(obj, fname)] = value

    def read_array(self, array: Value, index: Value) -> Optional[Value]:
        return self.arrays.get((array, index))

    def write_array(self, array: Value, index: Value, value: Value) -> None:
        for key in list(self.arrays):
            other, other_index = key
            if (other is not array or other_index is not index) and may_alias(
                other, array
            ):
                del self.arrays[key]
        self.arrays[(array, index)] = value


def memory_walk(graph: Graph) -> Iterator[tuple[Block, MemoryCache]]:
    """Yield each reverse-post-order block of ``graph`` with the memory
    state flowing into it, for the caller to update through the block.

    The entry and every merge get a fresh cache: merges drop state, so
    only *fully* redundant reads on the incoming straight-line path are
    removed.  A single-predecessor block gets a copy of its
    predecessor's cache as the caller left it.  The DBDS simulation
    tier reads the same walk.
    """
    in_state: dict[Block, MemoryCache] = {}
    for block in reverse_post_order(graph):
        cache = in_state.pop(block, None)
        if cache is None or block.is_merge():
            cache = MemoryCache()
        yield block, cache
        for succ in block.successors:
            if len(succ.predecessors) == 1:
                in_state[succ] = cache.copy()


class ReadEliminationPhase(Phase):
    """Forward memory-state propagation + redundant read replacement."""

    name = "read-elimination"

    def __init__(self, program: Optional[Program] = None) -> None:
        self.program = program

    def run(self, graph: Graph) -> int:
        return sum(
            self._process_block(block, cache) for block, cache in memory_walk(graph)
        )

    # ------------------------------------------------------------------
    def _process_block(self, block: Block, cache: MemoryCache) -> int:
        eliminated = 0
        for ins in list(block.instructions):
            replacement = self._transfer(ins, cache)
            if replacement is not None:
                ins.replace_all_uses(replacement)
                block.remove_instruction(ins)
                eliminated += 1
        return eliminated

    def _transfer(self, ins: Instruction, cache: MemoryCache) -> Optional[Value]:
        """Update ``cache`` for ``ins``; return a replacement when the
        read is redundant."""
        if isinstance(ins, LoadField):
            known = cache.read_field(ins.obj, ins.field)
            if known is not None:
                return known
            cache.fields[(ins.obj, ins.field)] = ins
            return None
        if isinstance(ins, StoreField):
            cache.write_field(ins.obj, ins.field, ins.value)
            return None
        if isinstance(ins, LoadGlobal):
            known = cache.globals_.get(ins.global_name)
            if known is not None:
                return known
            cache.globals_[ins.global_name] = ins
            return None
        if isinstance(ins, StoreGlobal):
            cache.globals_[ins.global_name] = ins.value
            return None
        if isinstance(ins, ArrayLoad):
            known = cache.read_array(ins.array, ins.index)
            if known is not None:
                return known
            cache.arrays[(ins.array, ins.index)] = ins
            return None
        if isinstance(ins, ArrayStore):
            cache.write_array(ins.array, ins.index, ins.value)
            return None
        if isinstance(ins, New):
            self._seed_defaults(ins, cache)
            return None
        if isinstance(ins, Call):
            # The callee may read and write arbitrary memory.
            cache.clear()
            return None
        return None

    def _seed_defaults(self, alloc: New, cache: MemoryCache) -> None:
        """A fresh object's fields hold their type defaults."""
        if self.program is None:
            return
        graph = alloc.block.graph
        decl = self.program.class_table.lookup(alloc.object_type.class_name)
        for fdecl in decl.fields:
            default = fdecl.type.default_value()
            if default is None and not fdecl.type.is_reference():
                continue
            cache.fields[(alloc, fdecl.name)] = graph.constant(default, fdecl.type)
