"""The applicability-check / action-step optimization framework.

Section 4.1 of the paper splits every optimization into a *precondition*
(an applicability check, AC) and an *action step* (after Chang et al.),
and modifies the action steps "to not change the underlying IR but to
return new (sub)graphs containing the result of the optimization".

That is exactly the contract here:

* an AC+action is a function ``(instruction, ctx) -> Rewrite | None``;
* a :class:`Rewrite` describes — without mutating anything — how the
  instruction would be replaced: by nothing (*Empty*), by an existing
  value (*Redundant Node*), or by freshly built nodes (*New Node*);
* the **real optimization phases** apply rewrites destructively, while
  the **DBDS simulation tier** only reads their cost deltas.

The :class:`OptimizationContext` abstracts the difference between the
two consumers: the simulator resolves operands through its synonym map
and refined stamps, the real phases resolve identically.
"""

from __future__ import annotations

import functools
from typing import Optional

from ..analysis.blame import current_guard
from ..costmodel.estimator import graph_code_size
from ..costmodel.model import cycles_of, size_of
from ..ir.graph import Graph
from ..ir.nodes import Constant, Instruction, Value
from ..ir.stamps import Stamp
from ..obs.tracer import current_tracer


def _traced_run(run):
    """Wrap a phase's ``run`` so the ambient tracer sees every
    invocation as a ``phase`` span with wall time plus the node-count
    and code-size deltas the phase caused, and so the ambient
    :class:`~repro.analysis.blame.PhaseGuard` (``--check-ir=each-phase``)
    can verify IR invariants around the phase and blame it on failure.

    With the default :data:`~repro.obs.tracer.NULL_TRACER` (or any
    disabled tracer) and no installed guard this is two attribute
    checks on top of the call — deltas and snapshots are only computed
    when a trace or a guard is active.
    """

    @functools.wraps(run)
    def traced(self, graph, *args, **kwargs):
        tracer = current_tracer()
        guard = current_guard()
        if guard is not None and guard.per_phase:
            snapshot = guard.before_phase(self.name, graph)
        else:
            guard = None
        if not tracer.enabled:
            result = run(self, graph, *args, **kwargs)
            if guard is not None:
                guard.after_phase(self.name, graph, snapshot)
            return result
        nodes_before = graph.instruction_count()
        size_before = graph_code_size(graph)
        with tracer.span("phase", phase=self.name, graph=graph.name) as span:
            result = run(self, graph, *args, **kwargs)
            span.attrs["nodes_delta"] = graph.instruction_count() - nodes_before
            span.attrs["size_delta"] = graph_code_size(graph) - size_before
        # Checked outside the span so phase times stay phase times; the
        # guard accounts its own cost as an ``ir-check`` span.
        if guard is not None:
            guard.after_phase(self.name, graph, snapshot)
        return result

    traced._obs_traced = True
    traced.__wrapped__ = run
    return traced


class Phase:
    """Base class of every optimization phase.

    Subclasses provide ``name`` and ``run(graph)``; the phase-entry
    hook below rewrites each subclass's ``run`` so all phases are
    traced uniformly — no phase carries its own instrumentation.
    """

    name = "phase"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        run = cls.__dict__.get("run")
        if run is not None and not getattr(run, "_obs_traced", False):
            cls.run = _traced_run(run)


class Rewrite:
    """The outcome of an action step, as a pure description.

    ``replacement is None`` means the instruction disappears without a
    substitute (legal only for value-less instructions such as stores).
    ``new_instructions`` are nodes the action step built; they must be
    scheduled immediately before the rewritten instruction when the
    rewrite is applied for real.  ``reason`` is a short human-readable
    tag of the optimization that fired.
    """

    __slots__ = ("replacement", "new_instructions", "reason")

    def __init__(
        self,
        replacement: Optional[Value] = None,
        new_instructions: Optional[list[Instruction]] = None,
        reason: str = "",
    ) -> None:
        self.replacement = replacement
        self.new_instructions = new_instructions if new_instructions is not None else []
        self.reason = reason

    @classmethod
    def remove(cls, reason: str) -> "Rewrite":
        """*Empty* result: the node is eliminated outright."""
        return cls(replacement=None, reason=reason)

    @classmethod
    def redundant(cls, existing: Value, reason: str) -> "Rewrite":
        """*Redundant Node* result: an existing value computes the same."""
        return cls(replacement=existing, reason=reason)

    @classmethod
    def with_new(
        cls, new_instructions: list[Instruction], reason: str
    ) -> "Rewrite":
        """*New Node* result: cheaper fresh nodes replace the old one.

        The last new instruction is the replacement value.
        """
        return cls(
            replacement=new_instructions[-1],
            new_instructions=new_instructions,
            reason=reason,
        )

    # ------------------------------------------------------------------
    def cycles_delta(self, old: Instruction) -> float:
        """Cycles saved by this rewrite (positive = faster)."""
        return cycles_of(old) - sum(cycles_of(n) for n in self.new_instructions)

    def size_delta(self, old: Instruction) -> float:
        """Code size saved by this rewrite (positive = smaller)."""
        return size_of(old) - sum(size_of(n) for n in self.new_instructions)


class OptimizationContext:
    """Operand resolution and stamp refinement for ACs.

    The base implementation is the *real phase* view: identity
    resolution, static stamps, no extra facts.  The DBDS simulator
    subclasses it with synonym maps and branch-refined stamps.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph

    def resolve(self, value: Value) -> Value:
        """Follow synonym substitutions (identity outside simulation)."""
        return value

    def stamp(self, value: Value) -> Stamp:
        """The best known stamp of (the resolution of) ``value``."""
        return self.resolve(value).stamp

    def constant_value(self, value: Value):
        """``(v,)`` when the resolved value is statically known, else None."""
        resolved = self.resolve(value)
        if isinstance(resolved, Constant):
            return (resolved.value,)
        return self.stamp(value).as_constant()
