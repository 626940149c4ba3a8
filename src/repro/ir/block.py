"""Basic blocks with ordered predecessors and phi bookkeeping.

Structural invariants (checked by :mod:`repro.ir.verifier`):

* Ordered predecessor lists; phi inputs are positional per predecessor.
* Every predecessor of a *merge* block (>= 2 predecessors) ends in a
  :class:`~repro.ir.nodes.Goto` — critical edges are always split, which
  makes tail duplication a well-defined "append to predecessor" step.
* ``If`` terminators have two distinct targets (folded to Goto
  otherwise), so an edge is uniquely identified by ``(pred, succ)``.

Every edit of a block goes through a method here, and each method logs
itself to the graph's :class:`~repro.ir.graph.ChangeLog`.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .nodes import Goto, Instruction, Phi, Terminator


class Block:
    """A basic block: phis, a straight-line instruction list, a terminator."""

    def __init__(self, graph, name: Optional[str] = None) -> None:
        self.graph = graph
        self.id: int = graph._next_block_id()
        self._name = name
        self.phis: list[Phi] = []
        self.instructions: list[Instruction] = []
        self.terminator: Optional[Terminator] = None
        self.predecessors: list["Block"] = []

    # ------------------------------------------------------------------
    # Naming / display
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name or f"b{self.id}"

    def __repr__(self) -> str:
        return self.name

    # ------------------------------------------------------------------
    # Successor / predecessor structure
    # ------------------------------------------------------------------
    @property
    def successors(self) -> tuple["Block", ...]:
        return self.terminator.targets if self.terminator else ()

    def is_merge(self) -> bool:
        return len(self.predecessors) >= 2

    def add_predecessor(self, pred: "Block") -> None:
        """Register an incoming edge. Phi inputs for the new edge must be
        appended by the caller via :meth:`Phi._append_input` helpers —
        the verifier enforces consistency."""
        self.predecessors.append(pred)
        self.graph.invalidate_analyses()

    def remove_predecessor(self, pred: "Block") -> int:
        """Unregister the (unique) edge from ``pred`` and drop the
        corresponding phi input from every phi. Returns the removed
        predecessor index."""
        index = self.predecessor_index(pred)
        del self.predecessors[index]
        for phi in self.phis:
            phi._remove_input_at(index)
        self.graph.invalidate_analyses()
        return index

    def replace_predecessor(self, old: "Block", new: "Block") -> None:
        """Put ``new`` in ``old``'s slot of the predecessor list: the
        edge keeps its position, so phi inputs stay where they are."""
        self.predecessors[self.predecessor_index(old)] = new
        self.graph.invalidate_analyses()

    def reorder_predecessors(self, order: list["Block"]) -> None:
        """Permute the predecessor list to ``order``.  Phi inputs are
        positional, so this is for cloning, before phis get inputs."""
        self.predecessors = list(order)
        self.graph.invalidate_analyses()

    def route_through(self, pred: "Block", via: "Block") -> None:
        """Send the edge ``pred -> self`` through the fresh block
        ``via``, which takes ``pred``'s slot in the predecessor list
        (phi inputs stay where they are) and ends in a Goto here."""
        term = pred.terminator
        term._targets[term._targets.index(self)] = via
        via.add_predecessor(pred)
        self.replace_predecessor(pred, via)
        goto = Goto(self)
        goto.block = via
        via.terminator = goto
        self.graph.changes.cfg_changed(goto)

    def predecessor_index(self, pred: "Block") -> int:
        for i, p in enumerate(self.predecessors):
            if p is pred:
                return i
        raise ValueError(f"{pred.name} is not a predecessor of {self.name}")

    # ------------------------------------------------------------------
    # Instruction management
    # ------------------------------------------------------------------
    def append(self, instruction: Instruction) -> Instruction:
        """Append a (non-phi) instruction to the end of the block."""
        assert not isinstance(instruction, Phi)
        instruction.block = self
        self.instructions.append(instruction)
        self.graph.changes.added(instruction)
        return instruction

    def insert(self, index: int, instruction: Instruction) -> Instruction:
        assert not isinstance(instruction, Phi)
        instruction.block = self
        self.instructions.insert(index, instruction)
        self.graph.changes.added(instruction)
        return instruction

    def add_phi(self, phi: Phi) -> Phi:
        assert phi.block is self
        self.phis.append(phi)
        self.graph.changes.added(phi)
        return phi

    def move_instructions(self, moving: list[Instruction], into: "Block") -> None:
        """Move ``moving`` (instructions of this block, in their order)
        to the end of ``into``.  They keep their operands and uses."""
        gone = set(moving)
        self.instructions[:] = [i for i in self.instructions if i not in gone]
        for instruction in moving:
            instruction.block = into
        into.instructions.extend(moving)
        self.graph.changes.moved()

    def remove_instruction(self, instruction: Instruction) -> None:
        """Remove an instruction (or phi) and release its operand uses.

        The instruction must be use-free (callers ``replace_all_uses``
        first); this is asserted to catch dangling references early.
        """
        assert not instruction.has_uses(), (
            f"removing {instruction!r} which still has uses"
        )
        if isinstance(instruction, Phi):
            self.phis.remove(instruction)
        else:
            self.instructions.remove(instruction)
        self.graph.changes.removed(instruction, instruction.drop_inputs())
        instruction.block = None

    def set_terminator(self, terminator: Terminator) -> Terminator:
        """Install ``terminator``, maintaining successor predecessor lists."""
        self.clear_terminator()
        self.terminator = terminator
        terminator.block = self
        for t in terminator.targets:
            t.add_predecessor(self)
        self.graph.changes.cfg_changed(terminator)
        return terminator

    def clear_terminator(self) -> None:
        """Detach the terminator, dropping its edges."""
        old = self.terminator
        if old is not None:
            for t in old.targets:
                t.remove_predecessor(self)
            self.graph.changes.removed(old, old.drop_inputs())
            self.graph.changes.cfg_changed()
            old.block = None
            self.terminator = None

    def move_terminator(self, into: "Block") -> None:
        """Hand this block's terminator, edges and all, to ``into``
        (which has none): each successor sees ``into`` in this block's
        predecessor slot, so its phi inputs stay where they are."""
        term = self.terminator
        assert into.terminator is None and term is not None
        self.terminator = None
        into.terminator = term
        term.block = into
        for t in term.targets:
            t.replace_predecessor(self, into)
        self.graph.changes.cfg_changed()

    # ------------------------------------------------------------------
    # Iteration helpers
    # ------------------------------------------------------------------
    def all_instructions(self) -> Iterator[Instruction]:
        """Phis first, then scheduled instructions (no terminator)."""
        yield from self.phis
        yield from self.instructions

    def describe(self) -> str:
        lines = [f"{self.name}:  preds={[p.name for p in self.predecessors]}"]
        for phi in self.phis:
            lines.append(f"  {phi.describe()}")
        for ins in self.instructions:
            lines.append(f"  {ins.describe()}")
        if self.terminator is not None:
            lines.append(f"  {self.terminator.describe()}")
        return "\n".join(lines)
