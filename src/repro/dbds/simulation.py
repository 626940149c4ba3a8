"""The DBDS simulation tier (Section 4.1, Figures 2 and 3).

The tier walks the optimizations' own traversals, so its estimates
see exactly what they would see after a duplication: conditional
elimination's dominator-tree walk
(:meth:`~repro.ir.dominators.DominatorTree.walk` with
:func:`~repro.opts.condelim.apply_edge_facts`) carries the branch facts
as refined stamps, and read elimination's
:func:`~repro.opts.readelim.memory_walk` gives each block's
straight-line memory state.  Whenever the traversal reaches a block
``p`` whose CFG successor ``m`` is a merge, it pauses and starts a
*duplication simulation traversal* (DST): the instructions of ``m`` are
processed as if appended to ``p``, with a **synonym map** translating
each phi of ``m`` to its input along the ``p`` edge.  The DST decides
``m``'s branch with conditional elimination's
:func:`~repro.opts.condelim.decide`, the synonym map as its ``resolve``
hook.

During the DST the shared applicability checks fire exactly as they
would after a real duplication; their action steps return fresh
subgraphs that are *not* inserted — only measured against the node cost
model to produce a cycles-saved and code-size estimate per
predecessor-merge pair.  No IR is mutated.
"""

from __future__ import annotations

from typing import Optional

from ..costmodel.estimator import block_cycles
from ..costmodel.model import cycles_of, size_of
from ..ir.block import Block
from ..ir.graph import Graph, Program
from ..ir.nodes import (
    Goto,
    If,
    Instruction,
    LoadField,
    New,
    Phi,
    StoreField,
    Value,
)
from ..ir.stamps import Stamp
from ..obs.tracer import current_tracer
from ..opts.base import OptimizationContext, Rewrite
from ..opts.canonicalize import canonicalize_instruction
from ..opts.condelim import FactScope, apply_edge_facts, assume_condition, decide
from ..opts.readelim import MemoryCache, ReadEliminationPhase, memory_walk


class SimulationResult:
    """Everything the trade-off tier needs about one candidate pair:
    ``benefit``, the estimated cycles saved per execution of the
    pred→merge path; ``cost``, the estimated code-size increase of
    performing the duplication; ``probability``, the relative execution
    probability of the predecessor (0..1]; and ``reasons``, which
    optimizations fired (for reporting and debugging)."""

    __slots__ = ("pred", "merge", "benefit", "cost", "probability", "reasons")

    def __init__(
        self,
        pred: Block,
        merge: Block,
        benefit: float,
        cost: float,
        probability: float,
        reasons: Optional[list[str]] = None,
    ) -> None:
        self.pred = pred
        self.merge = merge
        self.benefit = benefit
        self.cost = cost
        self.probability = probability
        self.reasons = reasons if reasons is not None else []

    @property
    def weighted_benefit(self) -> float:
        return self.benefit * self.probability

    def __repr__(self) -> str:
        return (
            f"<SimResult {self.merge.name}->{self.pred.name} "
            f"benefit={self.benefit:.1f} cost={self.cost:.1f} "
            f"p={self.probability:.3f} {self.reasons}>"
        )


class SimulationContext(OptimizationContext):
    """Optimization context seen by ACs during a DST.

    Operand resolution follows the synonym map transitively; stamps come
    from the dominating branch facts of the paused traversal.
    """

    def __init__(self, graph: Graph, facts: FactScope) -> None:
        super().__init__(graph)
        self.facts = facts
        self.synonyms: dict[Value, Value] = {}

    def resolve(self, value: Value) -> Value:
        seen = 0
        while value in self.synonyms:
            value = self.synonyms[value]
            seen += 1
            if seen > 1000:  # pragma: no cover - cycle guard
                raise AssertionError("synonym cycle")
        return value

    def stamp(self, value: Value) -> Stamp:
        return self.facts.stamp_of(self.resolve(value))


class SimulationTier:
    """Runs Algorithm 2's simulation loop over one compilation unit."""

    def __init__(self, graph: Graph, program: Optional[Program] = None) -> None:
        self.graph = graph
        self.program = program
        self.dom = graph.dominator_tree()
        self.loops = graph.loop_forest()
        self.frequencies = graph.block_frequencies()
        self._readelim = ReadEliminationPhase(program)
        #: each block's memory state on leaving it (read-elimination view)
        self._out_caches: dict[Block, MemoryCache] = {}
        for block, cache in memory_walk(graph):
            for ins in block.instructions:
                self._readelim._transfer(ins, cache)  # state only, nothing replaced
            self._out_caches[block] = cache

    # ------------------------------------------------------------------
    def run(self) -> list[SimulationResult]:
        """Simulate every candidate pair; returns unsorted results.

        Conditional elimination's own traversal, paused at each block
        that ends in a ``Goto`` to a merge other than a loop header.
        """
        results: list[SimulationResult] = []
        facts = FactScope()
        for block, entering in self.dom.walk():
            if not entering:
                facts.pop_scope()
                continue
            facts.push_scope()
            apply_edge_facts(block, self.dom, facts)
            term = block.terminator
            if isinstance(term, Goto):
                merge = term.target
                if merge.is_merge() and not self.loops.is_loop_header(merge):
                    results.append(self._simulate_pair(block, merge, facts))
        return results

    def simulate(self, pred: Block, merge: Block) -> SimulationResult:
        """The one pair ``(pred, merge)``, which
        :func:`~repro.dbds.duplicate.can_duplicate` accepts, simulated
        as :meth:`run` simulates it on reaching ``pred``: under the
        branch facts of ``pred``'s dominator chain, applied from the
        entry down."""
        facts = FactScope()
        for block in reversed(list(self.dom.walk_up(pred))):
            apply_edge_facts(block, self.dom, facts)
        return self._simulate_pair(pred, merge, facts)

    # ------------------------------------------------------------------
    # The duplication simulation traversal for one pair.
    # ------------------------------------------------------------------
    def _simulate_pair(
        self, pred: Block, merge: Block, facts: FactScope
    ) -> SimulationResult:
        """The DST of one pair; records a ``dbds.candidate`` event."""
        ctx = SimulationContext(self.graph, facts)
        pred_index = merge.predecessor_index(pred)
        for phi in merge.phis:
            ctx.synonyms[phi] = phi.input(pred_index)

        cache = self._out_caches[pred].copy()
        created: list[Instruction] = []
        cycles_saved = 0.0
        size_saved = 0.0
        reasons: list[str] = []

        try:
            # Phi-escape (PEA) opportunities: an allocation reaching this
            # pair's edge that only escapes through the phi.
            for phi in merge.phis:
                saving = self._pea_opportunity(phi, ctx.synonyms[phi], merge)
                if saving > 0:
                    cycles_saved += saving
                    reasons.append("partial-escape-analysis")

            for ins in merge.instructions:
                rewrite = self._simulate_instruction(ins, ctx, cache, created)
                if rewrite is None:
                    continue
                cycles_saved += rewrite.cycles_delta(ins)
                size_saved += rewrite.size_delta(ins)
                reasons.append(rewrite.reason)
                if rewrite.replacement is not None:
                    ctx.synonyms[ins] = rewrite.replacement
                created.extend(rewrite.new_instructions)

            # Terminator: a decided If is a conditional-elimination win —
            # the duplicated copy drops the branch and the untaken side.
            term = merge.terminator
            lookahead: list[tuple[Block, float, Optional[tuple[Value, bool]]]] = []
            if isinstance(term, If):
                outcome = decide(term.condition, facts, ctx.resolve)
                if outcome is not None:
                    dead = term.false_target if outcome else term.true_target
                    taken = term.true_target if outcome else term.false_target
                    cycles_saved += cycles_of(term) + block_cycles(dead)
                    size_saved += size_of(term)
                    reasons.append("conditional-elimination")
                    lookahead.append((taken, 1.0, None))
                else:
                    condition = ctx.resolve(term.condition)
                    lookahead.append(
                        (term.true_target, term.true_probability, (condition, True))
                    )
                    lookahead.append(
                        (
                            term.false_target,
                            1.0 - term.true_probability,
                            (condition, False),
                        )
                    )
            elif isinstance(term, Goto):
                lookahead.append((term.target, 1.0, None))

            # The paper's DST runs "until the first instruction after the
            # next merge or split instruction": peek one block further to
            # value the opportunities a second DBDS iteration would
            # cash in (merge targets would need fresh synonyms — stop).
            for target, weight, assumption in lookahead:
                if target.is_merge() or weight <= 0.0:
                    continue
                ctx.facts.push_scope()
                if assumption is not None:
                    assume_condition(ctx.facts, assumption[0], assumption[1])
                branch_cache = cache.copy()
                for ins in target.instructions:
                    rewrite = self._simulate_instruction(
                        ins, ctx, branch_cache, created
                    )
                    if rewrite is None:
                        continue
                    cycles_saved += weight * rewrite.cycles_delta(ins)
                    reasons.append(f"lookahead:{rewrite.reason}")
                    if rewrite.replacement is not None:
                        ctx.synonyms[ins] = rewrite.replacement
                    created.extend(rewrite.new_instructions)
                ctx.facts.pop_scope()
        finally:
            # Action-step subgraphs were never inserted: release the
            # operand uses they registered so the real IR stays clean.
            for node in created:
                node.drop_inputs()

        duplication_size = sum(size_of(i) for i in merge.instructions) + size_of(
            merge.terminator
        )
        cost = max(duplication_size - size_saved, 0.0)
        result = SimulationResult(
            pred=pred,
            merge=merge,
            benefit=cycles_saved,
            cost=cost,
            probability=self.frequencies.relative(pred),
            reasons=reasons,
        )
        tracer = current_tracer()
        if tracer.enabled:
            tracer.event(
                "dbds.candidate",
                graph=self.graph.name,
                merge=merge.name,
                pred=pred.name,
                benefit=result.benefit,
                cost=result.cost,
                probability=result.probability,
                reasons=list(reasons),
            )
        return result

    def _simulate_instruction(
        self,
        ins: Instruction,
        ctx: SimulationContext,
        cache: MemoryCache,
        created: list[Instruction],
    ) -> Optional[Rewrite]:
        # Canonicalization ACs (constant folding, strength reduction, …).
        rewrite = canonicalize_instruction(ins, ctx)
        if rewrite is not None:
            return rewrite
        # Read-elimination AC over the synonym-resolved memory state.
        if isinstance(ins, LoadField):
            known = cache.read_field(ctx.resolve(ins.obj), ins.field)
            if known is not None:
                return Rewrite.redundant(known, "read-elimination")
            cache.fields[(ctx.resolve(ins.obj), ins.field)] = ins
            return None
        resolved = self._resolved_view(ins, ctx, created)
        replacement = self._readelim._transfer(resolved, cache)
        if replacement is not None:
            return Rewrite.redundant(replacement, "read-elimination")
        return None

    def _resolved_view(
        self, ins: Instruction, ctx: SimulationContext, created: list[Instruction]
    ) -> Instruction:
        """An operand-resolved copy of ``ins`` for state transfer.

        Memory-cache keys must be in the paused traversal's value space,
        so stores/loads are rekeyed through the synonym map.  The
        temporary clone is tracked for use-list cleanup.
        """
        from ..ir.copy import clone_instruction

        if any(operand in ctx.synonyms for operand in ins.inputs):
            clone = clone_instruction(ins, ctx.resolve)
            created.append(clone)
            return clone
        return ins

    # ------------------------------------------------------------------
    def _pea_opportunity(self, phi: Phi, specialized: Value, merge: Block) -> float:
        """Cycles saved when duplication un-escapes an allocation.

        Fires when the value flowing into the phi from this predecessor
        is an allocation whose only other uses are field accesses, and
        the phi itself is only used for field accesses inside the merge
        (deeper uses would re-escape through repair phis).
        """
        alloc = specialized
        if not isinstance(alloc, New):
            return 0.0
        for user in alloc.uses:
            if user is phi:
                continue
            if isinstance(user, (LoadField, StoreField)) and user.obj is alloc:
                if isinstance(user, StoreField) and user.value is alloc:
                    return 0.0
                continue
            return 0.0
        saving = cycles_of(alloc)
        for user in phi.uses:
            if isinstance(user, LoadField) and user.obj is phi and user.block is merge:
                saving += cycles_of(user)
            elif (
                isinstance(user, StoreField)
                and user.obj is phi
                and user.value is not phi
                and user.block is merge
            ):
                saving += cycles_of(user)
            else:
                return 0.0
        return saving
