"""The compilation pipeline: front-end phases, DBDS, metrics.

Mirrors the Graal front end of Section 5.1: inlining and the high-level
optimizations run first, DBDS sits in the middle, and cleanup phases run
after.  Per compilation unit the pipeline records the three quantities
the paper evaluates: compile time (wall clock of the phases), code size
(node-cost-model size of the final graph), and — via
:func:`~repro.pipeline.front.measure_performance` — the simulated peak
performance of the generated code.

This is the compiler stack :func:`~repro.pipeline.front.jit` imports on
a cache miss, and it imports all of it here, at module level: a cache
hit never loads this module, and whoever does load it gets every layer
of a compile (perfbench/traced.py wraps them right after the import).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Any, Iterable, Optional

from ..analysis.blame import CHECK_OFF, PhaseGuard, use_guard
from ..costmodel.estimator import graph_code_size
from ..dbds.backtracking import BacktrackingDuplication
from ..dbds.phase import DbdsPhase
from ..frontend.irbuilder import compile_source
from ..frontend.lexer import CompileError
from ..interp.profile import apply_profile, profile_program
from ..ir.copy import copy_program
from ..ir.graph import Graph, Program
from ..obs.tracer import Tracer, current_tracer, use_tracer
from ..opts.canonicalize import CanonicalizerPhase
from ..opts.condelim import ConditionalEliminationPhase
from ..opts.gvn import GlobalValueNumberingPhase
from ..opts.inline import InliningPhase
from ..opts.licm import LoopInvariantCodeMotionPhase
from ..opts.pea import PartialEscapeAnalysisPhase
from ..opts.readelim import ReadEliminationPhase
from .config import BASELINE, CompilerConfig
from .front import CompilationReport, UnitMetrics, UserError, jit


class Compiler:
    """Compiles IR programs under a :class:`CompilerConfig`.

    Pass a :class:`~repro.obs.tracer.Tracer` to get a full trace —
    per-phase spans, DBDS candidate and decision events.  Without one,
    the compiler records into the ambient tracer (a CLI verb's
    ``--trace-out``/``--metrics-out``/... tracer, so the verb's trace
    holds every compile; by default the no-op ``NULL_TRACER``).  The
    per-unit counts of :class:`UnitMetrics` come from what the
    duplication phases return, never from the tracer.

    ``check_ir`` selects the IR sanitizer mode (``--check-ir``): ``off``
    (default), ``boundaries`` (pipeline entry/exit only), or
    ``each-phase`` (around every optimization phase and after every
    duplication, with phase-blame diagnostics).  ``fail_fast=False``
    collects every violation instead of raising
    :class:`~repro.analysis.PhaseBlameError` on the first.
    """

    def __init__(
        self,
        config: CompilerConfig = BASELINE,
        tracer: Optional[Tracer] = None,
        check_ir: str = CHECK_OFF,
        fail_fast: bool = True,
    ) -> None:
        self.config = config
        self.tracer = tracer if tracer is not None else current_tracer()
        self.guard: Optional[PhaseGuard] = (
            PhaseGuard(mode=check_ir, fail_fast=fail_fast)
            if check_ir != CHECK_OFF
            else None
        )

    # ------------------------------------------------------------------
    def compile_program(self, program: Program) -> CompilationReport:
        """Optimize every function in place; returns per-unit metrics."""
        report = CompilationReport(config=self.config.name)
        for name in list(program.functions):
            report.units.append(self.compile_function(program, name))
        return report

    def compile_function(self, program: Program, name: str) -> UnitMetrics:
        with use_tracer(self.tracer):
            if self.guard is None:
                return self._compile_function(program, name)
            with use_guard(self.guard):
                return self._compile_function(program, name)

    def _compile_function(self, program: Program, name: str) -> UnitMetrics:
        tracer = self.tracer
        config_name = self.config.name
        graph = program.function(name)
        metrics = UnitMetrics(function=name)
        with tracer.span("compile", function=name, config=config_name):
            start = time.perf_counter()
            if self.guard is not None:
                self.guard.check_boundary("pipeline-entry", graph)

            InliningPhase(program).run(graph)
            self._cleanup_phases(program, graph)
            if config_name == "peel-dbds":
                from ..opts.peeling import LoopPeelingPhase

                LoopPeelingPhase().run(graph)
                self._cleanup_phases(program, graph)
            metrics.initial_code_size = graph_code_size(graph)

            if config_name == "backtracking":
                backtracker = BacktrackingDuplication(program)
                # Not a Phase subclass, so the phase-entry hook never
                # sees it: span it here, with its outcome tallies (also
                # of a run a broken IR invariant cut short).
                with tracer.span(
                    "phase", phase=BacktrackingDuplication.name, graph=name
                ) as span:
                    try:
                        new_graph = backtracker.run(graph)
                    finally:
                        span.attrs.update(
                            kept=backtracker.stats.kept,
                            rolled_back=backtracker.stats.rolled_back,
                        )
                if new_graph is not graph:
                    program.functions[name] = new_graph
                    graph = new_graph
                metrics.duplications = backtracker.stats.kept
                # Backtracking swaps whole graphs rather than running as
                # a Phase, so the per-phase guard hook never sees it.
                if self.guard is not None and self.guard.per_phase:
                    self.guard.check_boundary("backtracking", graph)
            elif config_name != "baseline":
                stats = DbdsPhase(program, self.config).run(graph)
                metrics.candidates = stats.candidates_simulated
                metrics.duplications = stats.duplications_performed

            self._cleanup_phases(program, graph)
            if self.guard is not None:
                self.guard.check_boundary("pipeline-exit", graph)
            metrics.compile_time = time.perf_counter() - start

        metrics.code_size = graph_code_size(graph)
        return metrics

    def _cleanup_phases(self, program: Program, graph: Graph) -> None:
        CanonicalizerPhase().run(graph)
        GlobalValueNumberingPhase().run(graph)
        LoopInvariantCodeMotionPhase().run(graph)
        ConditionalEliminationPhase().run(graph)
        ReadEliminationPhase(program).run(graph)
        PartialEscapeAnalysisPhase(program).run(graph)
        CanonicalizerPhase().run(graph)


# ----------------------------------------------------------------------
# The miss half of the JIT flow: parse and profile.
# ----------------------------------------------------------------------
def parse_source(source: str, name: str = "<source>") -> Program:
    """The unoptimized program of ``source``; a compile error is a
    :class:`UserError` located as ``name:line:col``."""
    try:
        return compile_source(source)
    except CompileError as exc:
        where = name
        if exc.line:
            where += f":{exc.line}" + (f":{exc.column}" if exc.column else "")
        raise UserError(f"{where}: {exc.message}") from None


def require_function(
    program: Program, function: str, purpose: str, name: str = "<source>"
) -> Graph:
    """``function``'s graph; a :class:`UserError` naming the defined
    functions when ``program`` (read from ``name``) has none."""
    graph = program.functions.get(function)
    if graph is None:
        defined = ", ".join(program.functions) or "none"
        raise UserError(
            f"{name}: no function {function!r} {purpose} (defined: {defined})"
        )
    return graph


def parse_entry(
    source: str,
    entry: str,
    arg_sets: Iterable[list[Any]],
    name: str = "<source>",
    flag: str = "--args",
) -> Program:
    """The unoptimized program of ``source``, checked to define
    ``entry`` taking as many arguments as each of ``arg_sets`` (given
    by ``flag``) holds."""
    program = parse_source(source, name)
    graph = require_function(program, entry, "to run", name)
    for args in arg_sets:
        if len(graph.parameters) != len(args):
            raise UserError(
                f"{name}: {entry} takes {len(graph.parameters)} argument(s), "
                f"{flag} gave {len(args)}"
            )
    return program


class ProfiledSource:
    """The configuration-independent half of :func:`jit`: ``source``
    parsed, profiled over ``profile_args`` and annotated with the
    profile once, on first demand, for ``uses`` compiles.

    The profile depends on the source and its profiling inputs, not on
    the configuration, so compiles under several configurations can
    share one.  Each compile optimizes a program of its own in place: a
    :func:`~repro.ir.copy.copy_program` clone of the profiled template
    for every use but the last, the template itself for the last.  A
    compile served from the cache takes none; a use past ``uses``
    parses and profiles afresh.
    """

    def __init__(
        self,
        source: str,
        entry: str,
        profile_args: Iterable[list[Any]],
        uses: int = 1,
        name: str = "<source>",
    ) -> None:
        self.source = source
        self.entry = entry
        self.profile_args = [list(args) for args in profile_args]
        self.uses = uses
        self.name = name
        self._template: Optional[Program] = None

    def program(self, tracer: Optional[Tracer] = None) -> Program:
        """A profiled program for one compile.  The parse (``name``
        locates a :class:`UserError`) and the profiling run happen on
        the first call; ``tracer`` records that run (default: the
        ambient tracer)."""
        template = self._template
        if template is None:
            template = parse_entry(
                self.source, self.entry, self.profile_args, self.name
            )
            with use_tracer(tracer) if tracer is not None else nullcontext():
                collector = profile_program(
                    template, self.entry, self.profile_args
                )
            apply_profile(template, collector)
        self.uses -= 1
        if self.uses > 0:
            self._template = template
            return copy_program(template)
        self._template = None
        return template


def compile_and_profile(
    source: str,
    entry: str,
    profile_args: Iterable[list[Any]],
    config: CompilerConfig = BASELINE,
    tracer: Optional[Tracer] = None,
    check_ir: str = CHECK_OFF,
    fail_fast: bool = True,
) -> tuple[Program, CompilationReport]:
    """Front-end + profiling run + optimizing compilation, uncached: the
    optimized program and its report from :func:`jit`."""
    artifact = jit(
        source, entry, profile_args, config, tracer=tracer,
        check_ir=check_ir, fail_fast=fail_fast,
    )
    return artifact.program, artifact.report
