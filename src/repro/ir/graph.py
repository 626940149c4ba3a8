"""Function graphs and whole programs.

A :class:`Graph` is one compilation unit: an entry block, a block list,
parameters, an interning table for constants, and the
:class:`ChangeLog` its mutation methods write.  A :class:`Program`
bundles the class table, global variable declarations and all function
graphs — the unit the interpreter executes and the pipeline compiles.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .block import Block
from .nodes import Constant, Parameter, Phi
from .types import BOOL, INT, ClassTable, Type, VOID


class ChangeLog:
    """What changed in one graph since the canonicalizer last caught up.

    Only the IR's mutation methods log changes here: ``User.set_input``
    and the phi input edits, ``Block``'s instruction, terminator and
    predecessor edits, and ``Graph.new_block``, ``remove_block`` and
    ``invalidate_analyses``.  ``serial`` counts every change.  The
    readers, the canonicalizer and dead-code elimination, empty what
    they have handled.

    The sets are kept from the first time a reader looks, which seeds
    them with the whole graph: a graph that has never reached a
    fixpoint counts as all-dirty.  A graph pickles without its log, so
    an unpickled one starts all-dirty again.
    """

    __slots__ = ("serial", "fixpoint", "revisit", "dead", "cfg")

    def __init__(self) -> None:
        #: bumped by every write, never reset
        self.serial = 0
        #: ``serial`` when the canonicalizer last reached a fixpoint
        #: (None: never, so everything counts as changed)
        self.fixpoint: Optional[int] = None
        #: instructions, and terminators, whose applicability checks
        #: may answer differently: each added instruction, each user
        #: whose inputs changed plus that user's users (a check reads
        #: two levels of inputs), each installed terminator
        self.revisit: Optional[set] = None
        #: dead-code candidates: added instructions and phis, and the
        #: values that lost a use
        self.dead: Optional[set] = None
        #: whether an edge, a terminator, a phi or the block list changed
        self.cfg = True

    def track(self, blocks: Iterable[Block]) -> None:
        """Start keeping the sets, with everything in ``blocks`` logged."""
        revisit: set = set()
        dead: set = set()
        for block in blocks:
            revisit.update(block.instructions)
            dead.update(block.phis)
            dead.update(block.instructions)
            if block.terminator is not None:
                revisit.add(block.terminator)
        self.revisit, self.dead, self.cfg = revisit, dead, True

    def reached_fixpoint(self) -> None:
        """The canonicalizer found nothing left to do."""
        self.fixpoint = self.serial
        self.revisit.clear()
        self.dead.clear()
        self.cfg = False

    # ------------------------------------------------------------------
    # Writers (called by the IR's mutation methods only).  Before the
    # sets are kept, a write only counts: ``track`` logs everything.
    # ------------------------------------------------------------------
    def added(self, instruction) -> None:
        """``instruction`` (a phi or not) was put into a block."""
        self.serial += 1
        if self.revisit is not None:
            self.revisit.add(instruction)
            self.dead.add(instruction)
            if isinstance(instruction, Phi):
                self.cfg = True

    def edited(self, user, lost=None) -> None:
        """``user``'s inputs changed; ``lost`` (if any) lost a use."""
        self.serial += 1
        revisit = self.revisit
        if revisit is not None:
            revisit.add(user)
            uses = getattr(user, "uses", None)  # terminators have none
            if uses:
                revisit.update(uses)
            if lost is not None:
                self.dead.add(lost)
            if isinstance(user, Phi):
                self.cfg = True

    def removed(self, user, inputs) -> None:
        """``user`` left the graph; each of ``inputs`` lost a use."""
        self.serial += 1
        if self.dead is not None:
            self.dead.update(inputs)
            if isinstance(user, Phi):
                self.cfg = True

    def cfg_changed(self, terminator=None) -> None:
        """An edge or the block list changed, or ``terminator`` was
        installed."""
        self.serial += 1
        self.cfg = True
        if terminator is not None and self.revisit is not None:
            self.revisit.add(terminator)

    def moved(self) -> None:
        """Instructions changed blocks: no check answers differently,
        but the IR reads differently."""
        self.serial += 1


class Graph:
    """A single function in SSA form."""

    def __init__(
        self,
        name: str,
        param_specs: Iterable[tuple[str, Type]] = (),
        return_type: Type = VOID,
    ) -> None:
        self.name = name
        self.return_type = return_type
        self._block_ids = 0
        #: lazily computed CFG analyses (reverse post order, dominators,
        #: loops, frequency), cleared by invalidate_analyses at every CFG
        #: mutation point, and the code size of one change-log ``serial``
        self._analysis_cache: dict = {}
        self.blocks: list[Block] = []
        self.parameters: list[Parameter] = [
            Parameter(i, pname, ty) for i, (pname, ty) in enumerate(param_specs)
        ]
        self._constants: dict[tuple, Constant] = {}
        self.changes = ChangeLog()
        self.entry: Block = self.new_block("entry")

    # ------------------------------------------------------------------
    # Block management
    # ------------------------------------------------------------------
    def _next_block_id(self) -> int:
        self._block_ids += 1
        return self._block_ids

    def new_block(self, name: Optional[str] = None) -> Block:
        block = Block(self, name)
        self.blocks.append(block)
        self.invalidate_analyses()
        return block

    def remove_block(self, block: Block) -> None:
        """Delete an unreachable block: drop its edges and all uses held
        by its phis, instructions and terminator."""
        assert block is not self.entry, "cannot remove the entry block"
        block.clear_terminator()
        for ins in list(block.phis) + list(block.instructions):
            # Uses from within the dying block are released by
            # drop_inputs of the sibling instructions; external uses
            # must already be gone (verifier property of unreachable
            # removal: callers remove whole unreachable regions).
            self.changes.removed(ins, ins.drop_inputs())
            ins.uses.clear()
            ins.block = None
        block.phis.clear()
        block.instructions.clear()
        self.blocks.remove(block)
        self.invalidate_analyses()

    # ------------------------------------------------------------------
    # Cached CFG analyses
    # ------------------------------------------------------------------
    def invalidate_analyses(self) -> None:
        """Drop every cached analysis and log a CFG change; called at
        CFG mutation points (edge/block changes, profile application)."""
        cache = self._analysis_cache
        if cache:
            cache.clear()
        self.changes.cfg_changed()

    def dominator_tree(self):
        """The (cached) dominator tree of the current CFG."""
        tree = self._analysis_cache.get("dominators")
        if tree is None:
            from .dominators import DominatorTree

            tree = DominatorTree(self)
            self._analysis_cache["dominators"] = tree
        return tree

    def loop_forest(self):
        """The (cached) natural-loop forest of the current CFG."""
        forest = self._analysis_cache.get("loops")
        if forest is None:
            from .loops import LoopForest

            forest = LoopForest(self, self.dominator_tree())
            self._analysis_cache["loops"] = forest
        return forest

    def block_frequencies(self):
        """The (cached) profile-driven block frequencies."""
        freqs = self._analysis_cache.get("frequency")
        if freqs is None:
            from .frequency import BlockFrequencies

            freqs = BlockFrequencies(self, self.loop_forest())
            self._analysis_cache["frequency"] = freqs
        return freqs

    def __getstate__(self) -> dict:
        # Cached analyses are snapshots full of cross-references, and
        # the change log holds whatever changed since the last fixpoint;
        # a rehydrated graph recomputes the former on demand and counts
        # as all-dirty.
        state = self.__dict__.copy()
        state["_analysis_cache"] = {}
        del state["changes"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.changes = ChangeLog()

    # ------------------------------------------------------------------
    # Constants
    # ------------------------------------------------------------------
    def constant(self, value, ty: Optional[Type] = None) -> Constant:
        """Interned constant; type is inferred for ints/bools/None."""
        if ty is None:
            if isinstance(value, bool):
                ty = BOOL
            elif isinstance(value, int):
                ty = INT
            else:
                raise TypeError(f"cannot infer constant type of {value!r}")
        key = (value if value is not None else "<null>", repr(ty))
        existing = self._constants.get(key)
        if existing is not None:
            return existing
        const = Constant(value, ty)
        self._constants[key] = const
        return const

    def const_int(self, value: int) -> Constant:
        return self.constant(value, INT)

    def const_bool(self, value: bool) -> Constant:
        return self.constant(bool(value), BOOL)

    def const_null(self, ty: Type) -> Constant:
        return self.constant(None, ty)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def instruction_count(self) -> int:
        """Number of phis + instructions across all blocks."""
        return sum(len(b.phis) + len(b.instructions) for b in self.blocks)

    def merge_blocks(self) -> list[Block]:
        return [b for b in self.blocks if b.is_merge()]

    def describe(self) -> str:
        from .cfgutils import reverse_post_order

        header = f"fn {self.name}({', '.join(repr(p) for p in self.parameters)}) -> {self.return_type!r}"
        body = "\n".join(b.describe() for b in reverse_post_order(self))
        return f"{header}\n{body}"

    def __repr__(self) -> str:
        return f"<Graph {self.name}: {len(self.blocks)} blocks>"


class Program:
    """A whole MiniLang program: classes, globals and functions."""

    def __init__(self) -> None:
        self.class_table = ClassTable()
        self.globals: dict[str, Type] = {}
        self.functions: dict[str, Graph] = {}

    def declare_global(self, name: str, ty: Type) -> None:
        if name in self.globals:
            raise ValueError(f"duplicate global {name!r}")
        self.globals[name] = ty

    def add_function(self, graph: Graph) -> Graph:
        if graph.name in self.functions:
            raise ValueError(f"duplicate function {graph.name!r}")
        self.functions[graph.name] = graph
        return graph

    def function(self, name: str) -> Graph:
        return self.functions[name]

    def describe(self) -> str:
        return "\n\n".join(g.describe() for g in self.functions.values())

