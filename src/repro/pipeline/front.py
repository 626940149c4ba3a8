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

from typing import TYPE_CHECKING, Any, Iterable, Optional

from ..analysis.blame import CHECK_OFF
from ..interp.interpreter import ExecutionResult, Interpreter
from ..ir.graph import Program
from ..ir.ops import MAX_STEPS
from ..obs.tracer import Event, Tracer, current_tracer
from .config import BASELINE, CompilerConfig

if TYPE_CHECKING:
    from ..analysis.blame import PhaseBlameError
    from .cache import ArtifactCache, CacheEntry
    from .compiler import ProfiledSource


class UnitMetrics:
    """Metrics of one compiled function (compilation unit).

    ``duplications`` and ``candidates`` are what the unit's duplication
    phase returned (:class:`~repro.dbds.phase.DbdsStats`, or the kept
    pairs of the backtracking baseline); where the compile time went,
    phase by phase, is the compile's trace (its ``phase`` spans).
    """

    __slots__ = (
        "function", "compile_time", "code_size", "initial_code_size",
        "duplications", "candidates",
    )

    def __init__(
        self,
        function: str,
        compile_time: float = 0.0,
        code_size: float = 0.0,
        initial_code_size: float = 0.0,
        duplications: int = 0,
        candidates: int = 0,
    ) -> None:
        self.function = function
        self.compile_time = compile_time
        self.code_size = code_size
        self.initial_code_size = initial_code_size
        self.duplications = duplications
        self.candidates = candidates

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
        )


class CompilationReport:
    """Aggregated result of compiling a whole program."""

    __slots__ = ("config", "units")

    def __init__(self, config: str, units: Optional[list[UnitMetrics]] = None) -> None:
        self.config = config
        self.units = units if units is not None else []

    @property
    def total_compile_time(self) -> float:
        return sum(u.compile_time for u in self.units)

    @property
    def total_code_size(self) -> float:
        return sum(u.code_size for u in self.units)

    @property
    def total_duplications(self) -> int:
        return sum(u.duplications for u in self.units)

    def to_json(self) -> dict[str, Any]:
        """Machine-readable form (``python -m repro compile --json``)."""
        return {
            "config": self.config,
            "units": [unit.to_json() for unit in self.units],
            "totals": {
                "compile_time": self.total_compile_time,
                "code_size": self.total_code_size,
                "duplications": self.total_duplications,
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


class Artifact:
    """One JIT compilation, as :func:`jit` returns it.

    ``cached`` says the artifact cache served it; ``failures`` are the
    IR violations a keep-going compile collected (such an artifact is
    never stored); ``events`` are the compile trace (none unless the
    compile was recorded or came from the cache).
    """

    __slots__ = (
        "program", "report", "key", "cached", "failures", "events", "_bytecode",
    )

    def __init__(
        self,
        program: Program,
        report: CompilationReport,
        key: str,
        cached: bool = False,
        failures: Optional[list[PhaseBlameError]] = None,
        events: Optional[list[Event]] = None,
    ) -> None:
        self.program = program
        self.report = report
        self.key = key
        self.cached = cached
        self.failures = failures if failures is not None else []
        self.events = events if events is not None else []
        self._bytecode: Any = None

    def bytecode(self) -> Any:
        """The VM translation, made on first use — once per artifact,
        cold or warm (the cache stores none)."""
        if self._bytecode is None:
            from ..vm.translate import translate_program

            self._bytecode = translate_program(self.program)
        return self._bytecode

    def entry(self) -> "CacheEntry":
        """This artifact as a cache entry."""
        from .cache import make_entry

        return make_entry(self.key, self.program, self.report, self.events)


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
    makes it, and the cache events (default: the ambient tracer); a
    compile that is stored is recorded anyway, so its entry keeps the
    decision trace.  The artifact's ``events`` are this compile's
    alone, on a tracer shared across compiles too.
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
            hit.program(), hit.report, key, cached=True, events=hit.events
        )
    from .compiler import Compiler, ProfiledSource

    if profiled is None:
        profiled = ProfiledSource(source, entry, profile_args, name=name)
    recorder = Tracer() if tracer is None and cache is not None else tracer
    # A tracer shared across compiles keeps only this one's records here.
    mark = len(recorder.events) if recorder is not None else 0
    program = profiled.program(recorder)
    compiler = Compiler(config, tracer=recorder, check_ir=check_ir, fail_fast=fail_fast)
    artifact = Artifact(
        program, compiler.compile_program(program), key,
        failures=[] if compiler.guard is None else list(compiler.guard.failures),
        events=compiler.tracer.events[mark:],
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
    max_steps: int = MAX_STEPS,
    codegen_cache: Any = None,
) -> Any:
    """Construct a metered runner for ``engine`` (uniform
    run/reset/state API).

    ``reference`` is the tree-walking interpreter (the oracle); ``vm``
    the bytecode machine's plain flat-tuple loop; ``megaunit`` the
    call-graph compiler (the entry and all it calls in one exec unit,
    direct calls — see docs/VM.md), whose generated source
    ``codegen_cache`` (an :class:`~repro.pipeline.cache.ArtifactCache`)
    persists across processes.  VM engines run the given ``bytecode``
    (an :meth:`Artifact.bytecode`) or a translation of ``program``.  All engines report identical
    cycles/steps/outcomes by construction.
    """
    if engine == "reference":
        return Interpreter(program, max_steps=max_steps, metered=True)
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
            bytecode, max_steps=max_steps, codegen_cache=codegen_cache
        )
    return VirtualMachine(bytecode, max_steps=max_steps)


def measure_performance(
    program: Program,
    entry: str,
    arg_sets: Iterable[list[Any]],
    max_steps: int = MAX_STEPS,
    engine: str = "megaunit",
    bytecode: Any = None,
    codegen_cache: Any = None,
) -> tuple[float, list[ExecutionResult]]:
    """Simulated peak performance: total cost-model cycles over runs.

    ``engine`` selects the executor (see :func:`make_engine`): the
    whole-program ``megaunit`` compiler (the default), the ``vm``
    bytecode loop or the ``reference`` tree-walking interpreter — pass
    a pre-translated ``bytecode`` program (e.g. an
    :meth:`Artifact.bytecode`) to skip re-translation, and a
    ``codegen_cache`` to reuse megaunit's generated source.  All
    engines report identical cycles/steps/outcomes by construction.
    The ambient tracer records the call as one ``vm.measure`` event
    (``engine``, ``runs``).
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
    current_tracer().event("vm.measure", engine=engine, runs=len(results))
    return total, results
