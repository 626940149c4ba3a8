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
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Optional

from ..analysis.blame import CHECK_OFF, PhaseBlameError, PhaseGuard, use_guard
from ..costmodel.estimator import graph_code_size
from ..costmodel.model import cycles_of
from ..dbds.backtracking import BacktrackingDuplication
from ..dbds.phase import DbdsPhase
from ..frontend.irbuilder import compile_source
from ..frontend.lexer import CompileError
from ..interp.interpreter import ExecutionResult, Interpreter
from ..interp.profile import apply_profile, profile_program
from ..ir.copy import copy_program
from ..ir.graph import Graph, Program
from ..ir.verifier import verify_graph
from ..obs.tracer import Event, Tracer, current_tracer, use_tracer
from ..opts.canonicalize import CanonicalizerPhase
from ..opts.condelim import ConditionalEliminationPhase
from ..opts.gvn import GlobalValueNumberingPhase
from ..opts.inline import InliningPhase
from ..opts.licm import LoopInvariantCodeMotionPhase
from ..opts.pea import PartialEscapeAnalysisPhase
from ..opts.readelim import ReadEliminationPhase
from .config import BASELINE, CompilerConfig

if TYPE_CHECKING:
    from .cache import ArtifactCache, CacheEntry


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
    Without one, the compiler records into the ambient tracer when that
    one records (a CLI verb's ``--trace-out``/``--metrics-out``/...
    tracer), so the verb's trace holds every compile; otherwise it uses
    a private counting-only tracer, which keeps overhead at one flag
    check per phase while still feeding the ``dbds.*`` counters that
    :class:`UnitMetrics` is wired from.

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
        if tracer is None:
            ambient = current_tracer()
            tracer = ambient if ambient.enabled else Tracer(enabled=False)
        self.tracer = tracer
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
                # Not a Phase subclass, so the phase-entry hook never
                # sees it: span it here.
                with tracer.span(
                    "phase", phase=BacktrackingDuplication.name, graph=name
                ):
                    new_graph = backtracker.run(graph)
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
# The JIT flow: parse, profile, optimize — cache-first.
# ----------------------------------------------------------------------
class UserError(Exception):
    """A mistake in the input a caller named: a source that does not
    compile, an unknown entry function, a wrong argument count (the CLI
    adds a file it cannot read or write).

    The message is one line, located as ``name:line:col`` where the
    front end knows the position.  The CLI prints it as ``repro: error:
    ...`` and exits 2 instead of showing a traceback.
    """


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


@dataclass
class Artifact:
    """One JIT compilation, as :func:`jit` returns it.

    ``cached`` says the artifact cache served it; ``failures`` are the
    IR violations a keep-going compile collected (such an artifact is
    never stored); ``events``/``counters`` are the compile trace (no
    events unless the compile was recorded or came from the cache).
    """

    program: Program
    report: CompilationReport
    key: str
    cached: bool = False
    failures: list[PhaseBlameError] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    #: ``--check-bc`` mode of the translation (``"rewrite"`` verifies)
    check_bc: str = "off"
    _bytecode: Any = field(default=None, init=False, repr=False)

    def bytecode(self) -> Any:
        """The VM translation, made on first use — once per artifact,
        cold or warm (the cache stores none)."""
        if self._bytecode is None:
            from ..vm.translate import translate_program

            self._bytecode = translate_program(
                self.program, check_bc=self.check_bc
            )
        return self._bytecode

    def entry(self) -> "CacheEntry":
        """This artifact as a cache entry."""
        from .cache import make_entry

        return make_entry(
            self.key, self.program, self.report, self.events, self.counters
        )


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


def jit(
    source: str,
    entry: str,
    profile_args: Iterable[list[Any]],
    config: CompilerConfig = BASELINE,
    *,
    cache: Optional["ArtifactCache"] = None,
    tracer: Optional[Tracer] = None,
    check_ir: str = CHECK_OFF,
    fail_fast: bool = True,
    check_bc: str = "off",
    name: str = "<source>",
    profiled: Optional[ProfiledSource] = None,
) -> Artifact:
    """The whole JIT flow, cache-first; every verb compiles through it.

    ``profiled`` is the :class:`ProfiledSource` of ``source``,
    ``entry``, ``profile_args`` and ``name`` when several compiles
    share one (a :class:`ValueError` if it was built from other ones;
    default: a single-use one).  On a ``cache`` miss, take a profiled
    program from it — its first use parses ``source`` (``name`` locates
    a :class:`UserError` for a compile error, an unknown ``entry`` or a
    wrong argument count), profiles the unoptimized program over
    ``profile_args`` on the bytecode VM (see
    :func:`~repro.interp.profile.profile_program`) and applies the
    profile — then optimize under ``config``, and store the artifact
    unless a keep-going compile (``check_ir``, ``fail_fast``: see
    :class:`Compiler`) collected IR violations.  A cache hit never
    parses.

    ``tracer`` records the compile, the profiling run if this compile
    makes it, and the cache events (default: the ambient tracer when it
    records, else a private counting one for the compile); a compile
    that is stored is recorded anyway, so its entry keeps the decision
    trace.  The artifact's ``events`` and ``counters`` are this
    compile's alone, on a tracer shared across compiles too.
    ``check_bc`` applies to the translation :meth:`Artifact.bytecode`
    makes, on a cache hit as on a miss.
    """
    from .cache import cache_key

    if tracer is None and current_tracer().enabled:
        tracer = current_tracer()
    profile_args = [list(args) for args in profile_args]
    if profiled is None:
        profiled = ProfiledSource(source, entry, profile_args, name=name)
    elif (
        profiled.source, profiled.entry, profiled.profile_args, profiled.name
    ) != (source, entry, profile_args, name):
        raise ValueError(
            "profiled was built from another source, entry, profile_args "
            "or name"
        )
    key = cache_key(
        source, config, entry=entry, profile_args=profile_args,
        check_ir=check_ir,
    )
    hit = cache.get(key, tracer) if cache is not None else None
    if hit is not None:
        return Artifact(
            hit.program(), hit.report, key, cached=True, events=hit.events,
            counters=hit.counters, check_bc=check_bc,
        )
    recorder = Tracer() if tracer is None and cache is not None else tracer
    # A tracer shared across compiles keeps only this one's records here.
    mark = len(recorder.events) if recorder is not None else 0
    before = dict(recorder.counters) if recorder is not None else {}
    program = profiled.program(recorder)
    compiler = Compiler(config, tracer=recorder, check_ir=check_ir, fail_fast=fail_fast)
    artifact = Artifact(
        program, compiler.compile_program(program), key,
        failures=[] if compiler.guard is None else list(compiler.guard.failures),
        events=compiler.tracer.events[mark:],
        counters={
            name: value - before.get(name, 0)
            for name, value in compiler.tracer.counters.items()
            if value != before.get(name)
        },
        check_bc=check_bc,
    )
    if cache is not None and not artifact.failures:
        cache.put(artifact.entry(), tracer)
    return artifact


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


#: Execution engines usable for measurement runs.
ENGINES = ("reference", "vm", "megaunit")


def make_engine(
    engine: str,
    program: Program,
    bytecode: Any = None,
    max_steps: int = 50_000_000,
    metered: bool = True,
    codegen_cache: Any = None,
) -> Any:
    """Construct a runner for ``engine`` (uniform run/reset/state API).

    ``reference`` is the tree-walking interpreter (the oracle); ``vm``
    the bytecode machine's plain flat-tuple loop; ``megaunit`` the
    call-graph compiler (the entry and all it calls in one exec unit,
    direct calls — see docs/VM.md), whose generated source
    ``codegen_cache`` (an :class:`~repro.pipeline.cache.ArtifactCache`)
    persists across processes.  VM engines run the given ``bytecode``
    (an :meth:`Artifact.bytecode`, which owns ``--check-bc``) or an
    unchecked translation of ``program``.  All engines report identical
    cycles/steps/outcomes by construction.
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
        bytecode = translate_program(program)
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
    codegen_cache: Any = None,
) -> tuple[float, list[ExecutionResult]]:
    """Simulated peak performance: total cost-model cycles over runs.

    ``engine`` selects the executor (see :func:`make_engine`): the
    ``reference`` tree-walking interpreter, the ``vm`` bytecode loop or
    the whole-program ``megaunit`` compiler — pass a pre-translated
    ``bytecode`` program (e.g. an :meth:`Artifact.bytecode`) to skip
    re-translation, and a ``codegen_cache`` to reuse megaunit's
    generated source.  All engines report identical
    cycles/steps/outcomes by construction.  The ambient tracer counts
    the runs (``vm.runs.<engine>``).
    """
    runner = make_engine(
        engine, program, bytecode=bytecode, max_steps=max_steps,
        codegen_cache=codegen_cache,
    )
    results = []
    total = 0.0
    for args in arg_sets:
        runner.reset()
        result = runner.run(entry, list(args))
        results.append(result)
        total += result.cycles
    if results:
        current_tracer().count(f"vm.runs.{engine}", len(results))
    return total, results
