"""The compilation pipeline: front-end phases, DBDS, metrics.

Mirrors the Graal front end of Section 5.1: inlining and the high-level
optimizations run first, DBDS sits in the middle, and cleanup phases run
after.  Per compilation unit the pipeline records the three quantities
the paper evaluates: compile time (wall clock of the phases), code size
(node-cost-model size of the final graph), and — via
:func:`measure_performance` — the simulated peak performance of the
generated code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..analysis.blame import CHECK_OFF, PhaseGuard, use_guard
from ..costmodel.estimator import graph_code_size
from ..costmodel.model import cycles_of
from ..dbds.backtracking import BacktrackingDuplication
from ..dbds.phase import DbdsPhase
from ..frontend.irbuilder import compile_source
from ..interp.interpreter import ExecutionResult, Interpreter
from ..interp.profile import apply_profile, profile_program
from ..ir.graph import Graph, Program
from ..ir.verifier import verify_graph
from ..obs.metrics import current_registry
from ..obs.tracer import Tracer, use_tracer
from ..opts.canonicalize import CanonicalizerPhase
from ..opts.condelim import ConditionalEliminationPhase
from ..opts.gvn import GlobalValueNumberingPhase
from ..opts.inline import InliningPhase
from ..opts.licm import LoopInvariantCodeMotionPhase
from ..opts.pea import PartialEscapeAnalysisPhase
from ..opts.readelim import ReadEliminationPhase
from .config import BASELINE, CompilerConfig


@dataclass
class UnitMetrics:
    """Metrics of one compiled function (compilation unit).

    ``duplications`` and ``candidates`` are wired from the tracer's
    ``dbds.*`` counters; ``phase_times`` (phase name → seconds) is
    populated only when compiling under an event-recording tracer.
    """

    function: str
    compile_time: float = 0.0
    code_size: float = 0.0
    initial_code_size: float = 0.0
    duplications: int = 0
    candidates: int = 0
    phase_times: dict[str, float] = field(default_factory=dict)

    @property
    def code_size_increase(self) -> float:
        if self.initial_code_size == 0:
            return 0.0
        return self.code_size / self.initial_code_size - 1.0

    def to_json(self) -> dict[str, Any]:
        return {
            "function": self.function,
            "compile_time": self.compile_time,
            "code_size": self.code_size,
            "initial_code_size": self.initial_code_size,
            "duplications": self.duplications,
            "candidates": self.candidates,
            "phase_times": dict(self.phase_times),
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "UnitMetrics":
        return cls(
            function=data["function"],
            compile_time=data.get("compile_time", 0.0),
            code_size=data.get("code_size", 0.0),
            initial_code_size=data.get("initial_code_size", 0.0),
            duplications=data.get("duplications", 0),
            candidates=data.get("candidates", 0),
            phase_times=dict(data.get("phase_times", {})),
        )


@dataclass
class CompilationReport:
    """Aggregated result of compiling a whole program."""

    config: str
    units: list[UnitMetrics] = field(default_factory=list)

    @property
    def total_compile_time(self) -> float:
        return sum(u.compile_time for u in self.units)

    @property
    def total_code_size(self) -> float:
        return sum(u.code_size for u in self.units)

    @property
    def total_duplications(self) -> int:
        return sum(u.duplications for u in self.units)

    def total_phase_times(self) -> dict[str, float]:
        """Seconds per phase summed over units (empty if untraced)."""
        totals: dict[str, float] = {}
        for unit in self.units:
            for phase, seconds in unit.phase_times.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return totals

    def to_json(self) -> dict[str, Any]:
        """Machine-readable form (``python -m repro compile --json``)."""
        return {
            "config": self.config,
            "units": [unit.to_json() for unit in self.units],
            "totals": {
                "compile_time": self.total_compile_time,
                "code_size": self.total_code_size,
                "duplications": self.total_duplications,
                "phase_times": self.total_phase_times(),
            },
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "CompilationReport":
        return cls(
            config=data["config"],
            units=[UnitMetrics.from_json(u) for u in data.get("units", [])],
        )


class Compiler:
    """Compiles IR programs under a :class:`CompilerConfig`.

    Pass an event-recording :class:`~repro.obs.tracer.Tracer` to get a
    full trace — per-phase spans, DBDS candidate and decision events.
    By default a counting-only tracer is used, which keeps overhead at
    one flag check per phase while still feeding the ``dbds.*``
    counters that :class:`UnitMetrics` is wired from.

    ``check_ir`` selects the IR sanitizer mode (``--check-ir``): ``off``
    (default), ``boundaries`` (pipeline entry/exit only), or
    ``each-phase`` (around every optimization phase, with phase-blame
    diagnostics).  ``fail_fast=False`` collects every violation instead
    of raising :class:`~repro.analysis.PhaseBlameError` on the first.
    """

    def __init__(
        self,
        config: CompilerConfig = BASELINE,
        tracer: Optional[Tracer] = None,
        check_ir: str = CHECK_OFF,
        fail_fast: bool = True,
    ) -> None:
        self.config = config
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
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
        registry = current_registry()
        graph = program.function(name)
        metrics = UnitMetrics(function=name)
        candidates_before = tracer.counter("dbds.candidates")
        duplications_before = tracer.counter("dbds.duplications")
        span_start = len(tracer.events)
        with tracer.span("compile", function=name, config=self.config.name):
            start = time.perf_counter()
            if self.guard is not None:
                self.guard.check_boundary("pipeline-entry", graph)

            if self.config.enable_inlining:
                InliningPhase(program).run(graph)
            self._cleanup_phases(program, graph)
            if self.config.enable_peeling:
                from ..opts.peeling import LoopPeelingPhase

                LoopPeelingPhase().run(graph)
                self._cleanup_phases(program, graph)
            metrics.initial_code_size = graph_code_size(graph)

            if self.config.backtracking:
                backtracker = BacktrackingDuplication(program)
                bt_start = time.perf_counter() if registry.enabled else 0.0
                with tracer.span(
                    "phase", phase=BacktrackingDuplication.name, graph=name
                ):
                    new_graph = backtracker.run(graph)
                if registry.enabled:
                    # Not a Phase subclass, so the phase-entry hook
                    # never sees it — observe its wall time here.
                    registry.observe(
                        "repro_compile_phase_seconds",
                        time.perf_counter() - bt_start,
                        phase=BacktrackingDuplication.name,
                    )
                if new_graph is not graph:
                    program.functions[name] = new_graph
                    graph = new_graph
                tracer.count("dbds.duplications", backtracker.stats.kept)
                # Backtracking swaps whole graphs rather than running as
                # a Phase, so the per-phase guard hook never sees it.
                if self.guard is not None and self.guard.per_phase:
                    self.guard.check_boundary("backtracking", graph)
            elif self.config.enable_dbds:
                DbdsPhase(program, self.config.dbds_config()).run(graph)

            self._cleanup_phases(program, graph)
            if self.guard is not None:
                self.guard.check_boundary("pipeline-exit", graph)
            metrics.compile_time = time.perf_counter() - start

        metrics.duplications = (
            tracer.counter("dbds.duplications") - duplications_before
        )
        metrics.candidates = tracer.counter("dbds.candidates") - candidates_before
        metrics.code_size = graph_code_size(graph)
        if tracer.enabled:
            for event in tracer.events[span_start:]:
                if event.kind == "span" and event.name == "phase":
                    phase_name = str(event.attrs.get("phase", "?"))
                    metrics.phase_times[phase_name] = (
                        metrics.phase_times.get(phase_name, 0.0)
                        + (event.dur or 0.0)
                    )
        registry.inc("repro_compile_units_total")
        registry.observe("repro_compile_unit_seconds", metrics.compile_time)
        if self.config.paranoid:
            verify_graph(graph)
        return metrics

    def _cleanup_phases(self, program: Program, graph: Graph) -> None:
        CanonicalizerPhase().run(graph)
        GlobalValueNumberingPhase().run(graph)
        LoopInvariantCodeMotionPhase().run(graph)
        ConditionalEliminationPhase().run(graph)
        ReadEliminationPhase(program).run(graph)
        PartialEscapeAnalysisPhase(program).run(graph)
        CanonicalizerPhase().run(graph)
        if self.config.paranoid:
            verify_graph(graph)


# ----------------------------------------------------------------------
# Convenience entry points used by examples, tests and the harness.
# ----------------------------------------------------------------------
def compile_and_profile(
    source: str,
    entry: str,
    profile_args: Iterable[list[Any]],
    config: CompilerConfig = BASELINE,
    tracer: Optional[Tracer] = None,
    check_ir: str = CHECK_OFF,
    fail_fast: bool = True,
) -> tuple[Program, CompilationReport]:
    """Front-end + profiling run + optimizing compilation.

    This is the full JIT story in one call: parse, collect a profile by
    running the unoptimized program on the bytecode VM (the ``vm``
    loop, moving to the counted megaunit module for long profiles; see
    :func:`~repro.interp.profile.profile_program`), feed the profile to
    the compiler, optimize.  Pass a ``tracer`` to record the
    compilation, a ``check_ir`` mode to run the IR sanitizers while
    compiling.
    """
    program = compile_source(source)
    collector = profile_program(program, entry, profile_args)
    apply_profile(program, collector)
    compiler = Compiler(config, tracer=tracer, check_ir=check_ir, fail_fast=fail_fast)
    report = compiler.compile_program(program)
    return program, report


#: Execution engines usable for measurement runs.
ENGINES = ("reference", "vm", "megaunit")


def make_engine(
    engine: str,
    program: Program,
    bytecode: Any = None,
    max_steps: int = 50_000_000,
    metered: bool = True,
    check_bc: str = "off",
    codegen_cache: Any = None,
) -> Any:
    """Construct a runner for ``engine`` (uniform run/reset/state API).

    ``reference`` is the tree-walking interpreter (the oracle); ``vm``
    the bytecode machine's plain flat-tuple loop; ``megaunit`` the
    call-graph compiler (the entry and all it calls in one exec unit,
    direct calls — see docs/VM.md), whose generated source
    ``codegen_cache`` (an :class:`~repro.pipeline.cache.ArtifactCache`)
    persists across processes.  VM engines accept a pre-translated
    ``bytecode`` program to skip re-translation (e.g. a cache hit).
    All engines report identical cycles/steps/outcomes by
    construction.  ``check_bc="rewrite"`` verifies any bytecode
    translated here (see :func:`repro.vm.translate.translate_program`);
    pre-translated bytecode is the cache's responsibility
    (``--check-bc=load``).
    """
    if engine == "reference":
        return Interpreter(
            program,
            max_steps=max_steps,
            cycle_cost=cycles_of if metered else None,
            terminator_cost=cycles_of if metered else None,
        )
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r} (expected one of {ENGINES})"
        )
    from ..vm.machine import VirtualMachine
    from ..vm.megaunit import MegaunitVirtualMachine
    from ..vm.translate import translate_program

    if bytecode is None:
        bytecode = translate_program(program, check_bc=check_bc)
    if engine == "megaunit":
        return MegaunitVirtualMachine(
            bytecode, max_steps=max_steps, metered=metered,
            codegen_cache=codegen_cache,
        )
    return VirtualMachine(bytecode, max_steps=max_steps, metered=metered)


def measure_performance(
    program: Program,
    entry: str,
    arg_sets: Iterable[list[Any]],
    max_steps: int = 50_000_000,
    engine: str = "reference",
    bytecode: Any = None,
    check_bc: str = "off",
    codegen_cache: Any = None,
) -> tuple[float, list[ExecutionResult]]:
    """Simulated peak performance: total cost-model cycles over runs.

    ``engine`` selects the executor (see :func:`make_engine`): the
    ``reference`` tree-walking interpreter, the ``vm`` bytecode loop or
    the whole-program ``megaunit`` compiler — pass a pre-translated
    ``bytecode`` program to skip re-translation, e.g. from a cache hit,
    and a ``codegen_cache`` to reuse megaunit's generated source.  All
    engines report identical cycles/steps/outcomes by construction.
    """
    runner = make_engine(
        engine, program, bytecode=bytecode, max_steps=max_steps,
        check_bc=check_bc, codegen_cache=codegen_cache,
    )
    results = []
    total = 0.0
    for args in arg_sets:
        runner.reset()
        result = runner.run(entry, list(args))
        results.append(result)
        total += result.cycles
    if results:
        current_registry().inc(
            "repro_vm_runs_total", len(results), engine=engine
        )
    return total, results
