"""The cache-first JIT front: what a warm run loads.

:func:`jit` is the one compile every verb goes through: it looks the
compilation up in the artifact cache first and, only on a miss, imports
the compiler stack (:mod:`repro.pipeline.compiler`: the front end, the
profiling run, the optimization phases and DBDS) to parse, profile and
optimize.  Everything else here — the :class:`Artifact` it returns, the
per-unit metrics of a :class:`CompilationReport`, and the engines that
execute a program (:func:`make_engine`, :func:`measure_performance`) —
needs only the IR, the configuration, the cache, the tracer and the VM.
So a warm ``repro run`` loads the runtime and not the compiler
(docs/PIPELINE.md lists both sets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Optional

from ..analysis.blame import CHECK_OFF
from ..costmodel.model import cycles_of
from ..interp.interpreter import ExecutionResult, Interpreter
from ..ir.graph import Program
from ..obs.tracer import Event, Tracer, current_tracer
from .config import BASELINE, CompilerConfig

if TYPE_CHECKING:
    from ..analysis.blame import PhaseBlameError
    from .cache import ArtifactCache, CacheEntry
    from .compiler import ProfiledSource


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


class UserError(Exception):
    """A mistake in the input a caller named: a source that does not
    compile, an unknown entry function, a wrong argument count (the CLI
    adds a file it cannot read or write).

    The message is one line, located as ``name:line:col`` where the
    front end knows the position.  The CLI prints it as ``repro: error:
    ...`` and exits 2 instead of showing a traceback.
    """


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
    profiled: Optional["ProfiledSource"] = None,
) -> Artifact:
    """The whole JIT flow, cache-first; every verb compiles through it.

    ``profiled`` is the
    :class:`~repro.pipeline.compiler.ProfiledSource` of ``source``,
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
    :class:`~repro.pipeline.compiler.Compiler`) collected IR
    violations.  A cache hit never parses, and never imports the
    compiler.

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
    if profiled is not None and (
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
    from .compiler import Compiler, ProfiledSource

    if profiled is None:
        profiled = ProfiledSource(source, entry, profile_args, name=name)
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
