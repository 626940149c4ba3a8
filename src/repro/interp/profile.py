"""Profile collection and application.

Mirrors the paper's setup: HotSpot's interpreter profiles branches, the
compiler reads those profiles as edge probabilities and loop
frequencies.  Here a profiling run fills ``If.true_probability`` and
``Block.profile_trip_count`` on the very graphs the compiler will
transform; clones carry the data along.

The profiling run starts on the bytecode VM's flat-tuple loop, whose
``record_block``/``record_branch`` hooks fire at exactly the points the
reference interpreter's do.  A profile that outgrows that loop moves to
the counted megaunit module (:mod:`repro.vm.megaunit`): generated code
that bumps a counter at every one of those points and folds the counts
into the collector when a run returns, traps or stops on its budget.
The switch is a ski-rental rule: once the profile's cumulative steps
pass :data:`SWITCH_STEPS_PER_INSTRUCTION` per bytecode instruction of
the entry's unit, the run that crosses the line is dropped and it and
every later argument set run again on the counted module.  Either way
the collected counters are dict-equal to an ``Interpreter(profile=...)``
run — including the partial counts of a run that traps or exhausts its
step budget.  The reference interpreter keeps its ``profile=`` hook as
the oracle the parity tests compare against.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..ir.graph import Program
from ..ir.loops import DEFAULT_TRIP_COUNT
from ..ir.nodes import If
from ..obs.metrics import current_registry
from ..obs.tracer import current_tracer
from .interpreter import BudgetExceeded, ProfileCollector

#: Profiled steps per bytecode instruction of the entry's unit after
#: which profiling moves from the ``vm`` loop to the counted megaunit.
#: Ski rental: compiling the counted module costs ~100 µs per
#: instruction of the unit (the buy), and each step it runs saves
#: ~0.45 µs over a hooked ``vm`` step (the rent: 0.73 → 0.16 µs on
#: nqueens, 0.48 → 0.08 µs on wordfreq), so buying pays after
#: ~100 / 0.45 ≈ 220 steps per instruction; renting up to 200 keeps the
#: worst case under twice the better choice.  Measured on a 2-vCPU VM
#: (Python 3.11).  The octane programs (80–137 steps per instruction)
#: and ``matrix 200`` (183) stay on the ``vm`` loop; ``nqueens 8``
#: (~18,700) and ``wordfreq 5000`` (~22,100) switch.
SWITCH_STEPS_PER_INSTRUCTION = 200


def profile_program(
    program: Program,
    entry: str,
    arg_sets: Iterable[list[Any]],
    max_steps: int = 50_000_000,
    collector: Optional[ProfileCollector] = None,
) -> ProfileCollector:
    """Run ``entry`` over every argument set, collecting counters.

    A trap ends its run with the counts gathered so far; an exhausted
    step budget raises :class:`~repro.interp.interpreter.BudgetExceeded`,
    exactly as on the reference interpreter.  Pass ``collector`` to
    keep the partial counts of a run that raises."""
    # Deferred: repro.vm builds on this package's interpreter types.
    from ..vm.translate import translate_program

    if collector is None:
        collector = ProfileCollector()
    _profile_runs(
        translate_program(program, fuse=False), entry, arg_sets, max_steps,
        collector,
    )
    return collector


def switch_point(bytecode, entry: str) -> int:
    """The cumulative profiled steps past which :func:`profile_program`
    moves to the counted megaunit: :data:`SWITCH_STEPS_PER_INSTRUCTION`
    per instruction of ``entry``'s unit."""
    from ..vm.megaunit import unit_functions

    size = sum(len(fn.code) for fn in unit_functions(bytecode, [entry]))
    return SWITCH_STEPS_PER_INSTRUCTION * size


def _profile_runs(
    bytecode,
    entry: str,
    arg_sets: Iterable[list[Any]],
    max_steps: int,
    collector: ProfileCollector,
    switch_at: Optional[int] = None,
) -> None:
    """The profiling runs of :func:`profile_program` on ``bytecode``.

    ``switch_at`` is the cumulative step count past which runs move to
    the counted megaunit (``None``: :func:`switch_point`; ``0`` runs
    every argument set there).  While on the ``vm`` loop, each run
    records into its own collector under a step cap that ends it at
    the switch point; a run the cap stops is dropped and runs again on
    the counted megaunit.  A run stopped by ``max_steps`` itself keeps
    its partial counts and raises."""
    from ..vm.machine import VirtualMachine
    from ..vm.megaunit import MegaunitVirtualMachine

    loop = VirtualMachine(bytecode, max_steps=max_steps)
    counted = None
    steps = 0
    try:
        for args in arg_sets:
            if counted is None:
                if switch_at is None:
                    switch_at = switch_point(bytecode, entry)
                run = loop.profile = ProfileCollector()
                loop.max_steps = min(max_steps, max(switch_at - steps, 0))
                loop.reset()
                try:
                    steps += loop.run(entry, list(args)).steps
                except BudgetExceeded:
                    if loop.max_steps == max_steps:
                        steps += loop.state.steps
                        collector.merge(run)
                        raise
                else:
                    collector.merge(run)
                    continue
                # The switch point stopped this run: drop its counts and
                # run it, and every later argument set, counted.
                counted = MegaunitVirtualMachine(
                    bytecode, max_steps=max_steps, profile=collector
                )
            counted.reset()
            try:
                steps += counted.run(entry, list(args)).steps
            except BudgetExceeded:
                steps += counted.state.steps
                raise
    finally:
        engine = "vm"
        if counted is not None and not counted.fallbacks:
            engine = "megaunit"
        current_tracer().event(
            "interp.profile", engine=engine, steps=steps,
            switch_step=None if counted is None else switch_at,
        )
        registry = current_registry()
        if registry.enabled:
            registry.inc("repro_profile_runs_total", engine=engine)


def apply_profile(program: Program, collector: ProfileCollector) -> None:
    """Write collected counters back into the IR as probabilities.

    * Each executed ``If`` gets its observed true-probability (clamped
      away from exactly 0/1 — the runtime can always see a new path).
    * Each loop header gets an observed trip count:
      executions / entries.
    """
    for graph in program.functions.values():
        for block in graph.blocks:
            term = block.terminator
            if isinstance(term, If):
                p = collector.true_probability(term)
                if p is not None:
                    term.true_probability = min(max(p, 0.01), 0.99)
        forest = graph.loop_forest()
        for loop in forest.loops:
            header_runs = collector.block_counts.get(loop.header, 0)
            entries = sum(
                collector.block_counts.get(pred, 0)
                for pred in loop.header.predecessors
                if pred not in loop.back_edge_predecessors
            )
            if header_runs and entries:
                loop.header.profile_trip_count = max(header_runs / entries, 1.0)
        # Probabilities and trip counts feed the frequency analysis (and
        # LoopForest snapshots trip counts at build time): recompute.
        graph.invalidate_analyses()


def profiled_trip_count(block) -> float:
    """Trip count recorded on a loop header, or the static default."""
    return getattr(block, "profile_trip_count", DEFAULT_TRIP_COUNT)
