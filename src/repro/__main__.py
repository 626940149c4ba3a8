"""Command-line interface: compile and run MiniLang programs.

Usage::

    python -m repro run program.mini --entry main --args 10 --config dbds
    python -m repro compile program.mini --config dupalot --dump --json
    python -m repro explain program.mini --args 10 --function main
    python -m repro bench --suite micro --profile-compile
    python -m repro check examples/ --check-ir=each-phase --fuzz 20
    python -m repro profile program.mini --top 5 --collapsed out.folded

``run`` JIT-compiles (a profiling run on the bytecode VM, then
optimization) and executes, printing the result and the simulated cycle
count; ``run``, ``check``, ``profile``, ``batch`` and ``bench`` all
compile through the one cache-first :func:`repro.pipeline.front.jit`,
so they share cache keys and entries, and ``explain`` makes the same
compile without a cache.  ``compile`` optimizes without a profile and
prints per-unit metrics and optionally the optimized IR.  ``explain``
records its compile and prints every DBDS decision of the trace, per unit
(:func:`repro.obs.profile.format_decisions`, which renders any
``--trace-out`` file the same way).  ``bench`` regenerates one of the
paper's evaluation figures.  ``check`` runs the IR sanitizers
(docs/ANALYSIS.md) over source files: checked compiles with
phase-blame diagnostics, optional LIR checks and bytecode verification
(``--verify-bytecode``: the translation every verb executes, warm cache
hits included, since the cache stores programs, not bytecode),
the differential oracle (``--diff-engines``: baseline against
``--config``, every engine against the reference, every value against
its stamp), and ``--fuzz N`` programs held to the same checks with the
oracle on.  ``run``, ``compile``, ``check``,
``batch`` and ``bench`` all accept ``--trace-out FILE`` (write the
JSONL event trace; ``bench``'s holds one ``bench.cell`` span per suite
cell, so it reproduces the suite table) and ``--profile-compile``
(print the per-phase profile to stderr); see docs/OBSERVABILITY.md.
``run`` and ``compile`` accept ``--check-ir={off,boundaries,each-phase}``
plus ``--fail-fast``/``--keep-going``.  ``run`` and ``bench`` meter their
measured runs on ``--engine={reference,vm,megaunit}``, ``megaunit``
by default (it compiles the whole program into one exec unit with
direct calls; ``vm`` is the plain bytecode loop and ``reference`` the
oracle interpreter; docs/VM.md); the profiling run that feeds the
compiler picks its own engine.  ``bench --engine-report FILE`` writes
the engine comparison matrix (docs/VM.md).  ``profile`` runs measured
and profiled and prints per-opcode/function/block hot-path tables;
``run``, ``batch``, ``bench``, ``check`` and ``profile`` accept
``--metrics-out FILE`` to export the metrics snapshot as JSON, a view
of the verb's one trace; ``bench
--append-trajectory``/``--check-regression`` maintain the committed
perf trajectory (docs/OBSERVABILITY.md); a ``--check-regression``
that compared no configuration fails.  ``--config`` names one of the
six configurations (``repro.pipeline.config``), which decides the
phases a compile runs.

A user error — a source file that cannot be read or compiled, paths
that hold no ``.mini`` source, an unknown ``--entry`` or ``workload
--name``, a wrong ``--args`` count, an output file (``--trace-out``,
``--metrics-out``, ...) that cannot be written —
prints one ``repro: error: ...`` line (compile errors located as
``file:line:col``) and exits 2; a program that traps exits 1, and one
that exhausts its step limit (in the profiling run or the measured one)
prints one ``repro: error: ...`` line naming the limit and exits 3.  Any
other exception is a bug in ``repro`` (a ``bench`` workload that traps
is a miscompile): it prints ``repro: internal error: ...`` and the
traceback, and exits 4.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys
from contextlib import contextmanager
from typing import Any, Callable

# Only what every verb needs loads here: a warm ``run`` executes a cached
# program and never loads the compiler (see docs/PIPELINE.md).  Modules
# that only some verbs or flags use (the compiler stack, the workload
# generators, the trajectory, the metrics fold, the compile profile, the
# batch driver, the profiling VM, the bytecode verifier, the fuzz loop)
# are imported where they are used.
from .analysis.blame import (
    CHECK_EACH_PHASE,
    CHECK_MODES,
    CHECK_OFF,
    PhaseBlameError,
)
from .bench.harness import (
    DEFAULT_REGRESSION_THRESHOLD,
    DEFAULT_TRAJECTORY_PATH,
    SUITE_NAMES,
    cell_phase_times,
    format_suite_report,
    run_suite,
)
from .interp.interpreter import BudgetExceeded
from .ir.stamps import INT_MAX, INT_MIN
from .obs.sinks import write_jsonl
from .obs.tracer import NULL_TRACER, Tracer, current_tracer, use_tracer
from .pipeline.cache import ArtifactCache
from .pipeline.config import CONFIGURATIONS
from .pipeline.front import ENGINES, Artifact, UserError, jit, measure_performance

# ``run``'s default engine loads with the CLI.  perfbench/traced.py wraps
# the layers this import leaves loaded (these two and the harness); for
# the compile stack's layers its ``install()`` imports
# ``repro.pipeline.compiler``, which loads them all at module level.
from .vm import megaunit, translate  # noqa: F401

#: default on-disk cache location of the ``batch`` verb
DEFAULT_CACHE_DIR = pathlib.Path(".repro-cache")

#: exit status of a user error: a source file that cannot be read or
#: compiled, an unknown entry, a wrong argument count, an unwritable
#: output file (a trap exits 1)
EXIT_USER_ERROR = 2

#: exit status of a run that exhausts its step limit
EXIT_LIMIT = 3

#: exit status of a bug in ``repro`` itself: any other exception
EXIT_INTERNAL = 4


@contextmanager
def _writing(path: pathlib.Path):
    """Report a failure to write the output file ``path`` (a missing
    directory, no permission) as a :class:`UserError`."""
    try:
        yield
    except OSError as exc:
        raise UserError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_output(path: pathlib.Path, text: str, what: str) -> None:
    """Write the output file ``path`` and name it on stderr."""
    with _writing(path):
        path.write_text(text)
    print(f"{what} -> {path}", file=sys.stderr)


def _read_source(path: pathlib.Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise UserError(f"cannot read {path}: {exc.strerror or exc}") from None


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        default="dbds",
        choices=sorted(CONFIGURATIONS),
        help="compiler configuration",
    )


def at_least(parse: Callable[[str], Any], low, strict: bool = False):
    """An argparse type: ``parse(text)``, which must be at least ``low``
    (above it when ``strict``); anything else is a usage error (exit 2).
    """

    def parse_bounded(text: str):
        value = parse(text)
        if not (value > low if strict else value >= low):  # NaN fails both
            raise argparse.ArgumentTypeError(
                f"{text} is out of range (must be {'>' if strict else '>='}"
                f" {low})"
            )
        return value

    # argparse names the type in its "invalid <type> value" message
    parse_bounded.__name__ = parse.__name__
    return parse_bounded


def int64(text: str) -> int:
    """The argparse type of a MiniLang ``int`` argument: a signed
    64-bit integer; anything else is a usage error (exit 2)."""
    value = int(text)
    if not INT_MIN <= value <= INT_MAX:
        raise argparse.ArgumentTypeError(
            f"{text} is out of the signed 64-bit range"
        )
    return value


def _add_jit_flags(parser: argparse.ArgumentParser, purpose: str) -> None:
    """The inputs of :func:`~repro.pipeline.front.jit` other than the
    checks: entry, arguments and configuration."""
    parser.add_argument("--entry", default="main", help="entry function")
    parser.add_argument(
        "--args",
        nargs="*",
        type=int64,
        default=[10],
        help=f"integer arguments for {purpose}",
    )
    _add_config_flag(parser)


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        default="megaunit",
        choices=ENGINES,
        help="execution engine for the measured runs; every engine "
        "reports the same cycles (default: %(default)s; see docs/VM.md)",
    )


def _add_observability(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        help="write the JSONL event trace to this file",
    )
    parser.add_argument(
        "--profile-compile",
        action="store_true",
        help="print the aggregated per-phase compile profile",
    )


def _add_check_flags(parser: argparse.ArgumentParser, default: str = CHECK_OFF) -> None:
    parser.add_argument(
        "--check-ir",
        default=default,
        choices=CHECK_MODES,
        help="run the IR sanitizers while compiling (see docs/ANALYSIS.md)",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--fail-fast",
        dest="fail_fast",
        action="store_true",
        default=True,
        help="stop at the first IR violation (default)",
    )
    group.add_argument(
        "--keep-going",
        dest="fail_fast",
        action="store_false",
        help="collect every IR violation in one pass instead of stopping",
    )


def _add_cache_flags(
    parser: argparse.ArgumentParser, default_dir: pathlib.Path | None = None
) -> None:
    parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=default_dir,
        help="persistent artifact-cache directory"
        + (" (default: %(default)s)" if default_dir else " (default: no cache)"),
    )
    if default_dir is not None:
        parser.add_argument(
            "--no-cache",
            action="store_true",
            help="compile from scratch, ignore and do not write the cache",
        )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print hit/miss/store/evict tallies after the command",
    )


def _make_cache(args: argparse.Namespace) -> ArtifactCache | None:
    return None if args.cache_dir is None else ArtifactCache(args.cache_dir)


def _emit_cache_stats(args: argparse.Namespace, cache: ArtifactCache | None) -> None:
    """Print ``--cache-stats``: the cache counters of the verb's trace,
    folded as for ``--metrics-out`` (see :func:`_with_telemetry`)."""
    if cache is None or not args.cache_stats:
        return
    from .obs.metrics import MetricsSnapshot

    metrics = MetricsSnapshot.from_events(current_tracer().events)
    hits, misses = (
        metrics.counter_value("repro_cache_lookups_total", result=result)
        for result in ("hit", "miss")
    )
    stores = metrics.counter_value("repro_cache_stores_total")
    evictions = metrics.counter_value("repro_cache_evictions_total")
    rate = hits / (hits + misses) if hits + misses else 0.0
    print(
        f"cache: {hits} hit(s), {misses} miss(es), {stores} store(s), "
        f"{evictions} eviction(s) ({rate * 100.0:.0f}% hit rate)",
        file=sys.stderr,
    )


def _jit(
    args: argparse.Namespace,
    path: pathlib.Path,
    cache: ArtifactCache | None = None,
) -> Artifact:
    """:func:`~repro.pipeline.front.jit` on the source at ``path``
    with the entry, arguments, configuration and checks of ``args``."""
    return jit(
        _read_source(path), args.entry, [args.args],
        CONFIGURATIONS[args.config], cache=cache,
        check_ir=args.check_ir, fail_fast=args.fail_fast, name=str(path),
    )


def _report_guard_failures(failures: list) -> int:
    """Print collected phase-blame diagnostics; returns how many."""
    for failure in failures:
        print(failure.format_blame(), file=sys.stderr)
    return len(failures)


def _emit_observability(args: argparse.Namespace) -> None:
    """Write ``--trace-out`` and print ``--profile-compile`` (to stderr,
    beside the verb's other notes: stdout stays the verb's own output,
    one JSON document under ``--json``) from the verb's tracer (see
    :func:`_with_telemetry`)."""
    events = current_tracer().events
    if args.trace_out is not None:
        with _writing(args.trace_out):
            records = write_jsonl(events, args.trace_out)
        print(f"trace: {records} records -> {args.trace_out}", file=sys.stderr)
    if args.profile_compile:
        from .obs.profile import CompileProfile

        print(CompileProfile.from_events(events).format(), file=sys.stderr)


def _add_metrics_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="write the metrics snapshot as JSON (docs/OBSERVABILITY.md)",
    )


#: the options (``dest`` names) whose output is read from the verb's
#: trace: any of them makes the verb record one
_TELEMETRY_OPTIONS = (
    "trace_out", "profile_compile", "metrics_out", "cache_stats",
    "append_trajectory", "check_regression",
)


def _with_telemetry(impl):
    """Run a verb under one ambient tracer, then export its metrics.

    The tracer records when any of :data:`_TELEMETRY_OPTIONS` was given
    (else it is the no-op ``NULL_TRACER``).  Every layer the verb drives
    records into it, so ``--trace-out``, ``--profile-compile``,
    ``--cache-stats``, ``bench``'s phase breakdown and trajectory entry
    and the ``--metrics-out`` snapshot
    (:meth:`~repro.obs.metrics.MetricsSnapshot.from_events`) all read
    the same one trace.
    """

    @functools.wraps(impl)
    def wrapper(args: argparse.Namespace) -> int:
        recording = any(getattr(args, name, None) for name in _TELEMETRY_OPTIONS)
        tracer = Tracer() if recording else NULL_TRACER
        with use_tracer(tracer):
            code = impl(args)
        _emit_metrics(args, tracer)
        return code

    return wrapper


def _emit_metrics(args: argparse.Namespace, tracer: Tracer) -> None:
    """Write ``--metrics-out`` (on the verbs that take it) from the
    verb's trace."""
    out = getattr(args, "metrics_out", None)
    if out is None:
        return
    from .obs.metrics import MetricsSnapshot

    snapshot = MetricsSnapshot.from_events(tracer.events)
    _write_output(
        out, json.dumps(snapshot.to_json(), indent=2, sort_keys=True) + "\n",
        "metrics:",
    )


@_with_telemetry
def cmd_run(args: argparse.Namespace) -> int:
    cache = _make_cache(args)
    code = _run(args, cache)
    _emit_observability(args)
    _emit_cache_stats(args, cache)
    return code


def _run(args: argparse.Namespace, cache: ArtifactCache | None) -> int:
    """Compile and measure ``args.source``; returns the exit status
    (1 for a trap or a broken IR invariant)."""
    try:
        artifact = _jit(args, args.source, cache)
        if _report_guard_failures(artifact.failures):
            return 1
        cycles, results = measure_performance(
            artifact.program, args.entry, [args.args], engine=args.engine,
            bytecode=None if args.engine == "reference"
            else artifact.bytecode(),
            codegen_cache=cache,
        )
    except PhaseBlameError as exc:
        print(exc.format_blame(), file=sys.stderr)
        return 1
    result = results[0]
    if result.trapped:
        print(f"trap: {result.trap}", file=sys.stderr)
        return 1
    report = artifact.report
    print(f"result          : {result.value}")
    print(f"simulated cycles: {cycles:.0f}")
    print(f"compile time    : {report.total_compile_time * 1e3:.2f} ms")
    print(f"code size       : {report.total_code_size:.0f}")
    print(f"duplications    : {report.total_duplications}")
    if artifact.cached:
        print("compiled from   : cache", file=sys.stderr)
    return 0


@_with_telemetry
def cmd_compile(args: argparse.Namespace) -> int:
    code = _compile(args)
    _emit_observability(args)
    return code


def _compile(args: argparse.Namespace) -> int:
    """Compile ``args.source`` without a profile and print its metrics;
    returns the exit status (1 for a broken IR invariant)."""
    from .pipeline.compiler import Compiler, parse_source

    program = parse_source(_read_source(args.source), str(args.source))
    compiler = Compiler(
        CONFIGURATIONS[args.config], check_ir=args.check_ir,
        fail_fast=args.fail_fast,
    )
    try:
        report = compiler.compile_program(program)
    except PhaseBlameError as exc:
        print(exc.format_blame(), file=sys.stderr)
        return 1
    if compiler.guard is not None and _report_guard_failures(compiler.guard.failures):
        return 1
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(f"{'function':<20s}{'size':>8s}{'ctime ms':>10s}{'dups':>6s}")
        for unit in report.units:
            print(
                f"{unit.function:<20s}{unit.code_size:>8.0f}"
                f"{unit.compile_time * 1e3:>10.2f}{unit.duplications:>6d}"
            )
    if args.dump:
        print()
        print(program.describe())
    return 0


def _collect_sources(paths: list[pathlib.Path]) -> list[pathlib.Path]:
    """Expand files/directories into the list of .mini sources; none at
    all is a :class:`UserError`."""
    files: list[pathlib.Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.mini")))
        else:
            files.append(path)
    if not files:
        raise UserError(
            f"no .mini sources found in {', '.join(map(str, paths))}"
        )
    return files


def _check_program(
    args: argparse.Namespace,
    source: str,
    name: str,
    entry: str,
    arg_sets: list[list[Any]],
    cache: ArtifactCache | None = None,
    oracle: bool = False,
) -> int:
    """Every requested check of one program, each failure printed as a
    ``name: ...`` line; returns how many failed.

    A checked compile under ``--config`` (``--check-ir``; a cache hit
    skips the pipeline and its guards, since entries are only written
    for clean checked compiles), then the whole-program IR sweep,
    ``--lir``, ``--verify-bytecode`` and, with ``oracle``, the
    differential (:func:`~repro.analysis.validate.differential`),
    whose baseline compile shares this compile's profiling run.
    """
    from .analysis import run_lir_checkers, run_program_checkers
    from .analysis.validate import differential
    from .pipeline.compiler import ProfiledSource

    profiled = ProfiledSource(
        source, entry, arg_sets, uses=2 if oracle else 1, name=name
    )
    try:
        artifact = jit(
            source, entry, arg_sets, CONFIGURATIONS[args.config],
            cache=cache, check_ir=args.check_ir, fail_fast=args.fail_fast,
            name=name, profiled=profiled,
        )
    except PhaseBlameError as exc:
        print(f"{name}:", file=sys.stderr)
        print(exc.format_blame(), file=sys.stderr)
        return 1
    failures = _report_guard_failures(artifact.failures)
    program = artifact.program
    # Every registered checker, keep-going.
    reports = run_program_checkers(program)
    if args.lir:
        from .backend.lowering import lower_program
        from .backend.regalloc import allocate_program

        lir_program = lower_program(program)
        reports.extend(run_lir_checkers(fn) for fn in lir_program.functions.values())
        allocations = allocate_program(lir_program)
        reports.extend(
            run_lir_checkers(fn, allocations[unit])
            for unit, fn in lir_program.functions.items()
        )
    if args.verify_bytecode:
        from .analysis.bcverify import verify_bytecode

        # Every checker including the codegen lint, keep-going.
        report = verify_bytecode(artifact.bytecode())
        reports.append(report)
        args.bc_reports.append({"file": name, **report.to_json()})
    problems = [v.format() for report in reports for v in report.errors()]
    if oracle:
        problems += differential(artifact, profiled)
    for message in problems:
        print(f"{name}: {message}", file=sys.stderr)
    return failures + len(problems)


@_with_telemetry
def cmd_check(args: argparse.Namespace) -> int:
    """Every requested check of each file, then the fuzz loop."""
    cache = _make_cache(args)
    files = _collect_sources(args.paths or [pathlib.Path("examples")])
    sources = [_read_source(path) for path in files]
    args.bc_reports = []
    failures = sum(
        _check_program(
            args, source, str(path), args.entry, [args.args], cache,
            oracle=args.diff_engines,
        )
        for path, source in zip(files, sources)
    )

    if args.fuzz:
        from .analysis.validate import FUZZ_ARGS, FUZZ_ENTRY, fuzz

        report = fuzz(
            lambda source, name: _check_program(
                args, source, name, FUZZ_ENTRY, FUZZ_ARGS, oracle=True
            ),
            seed=args.seed,
            programs=args.fuzz,
            corpus=sources,
            time_budget=args.time_budget,
        )
        print(report.format())
        failures += report.failures + len(report.crashes)

    if args.bc_report:
        payload = {"files": args.bc_reports}
        _write_output(
            args.bc_report, json.dumps(payload, indent=2) + "\n", "bytecode report"
        )

    _emit_observability(args)
    _emit_cache_stats(args, cache)
    status = "ok" if failures == 0 else f"{failures} failure(s)"
    print(f"check: {len(files)} file(s), mode {args.check_ir}: {status}")
    return 1 if failures else 0


@_with_telemetry
def cmd_batch(args: argparse.Namespace) -> int:
    """Parallel batch compilation with the persistent artifact cache."""
    cache = None if args.no_cache else _make_cache(args)
    files = _collect_sources(args.paths or [pathlib.Path("examples")])
    sources = [(str(path), _read_source(path)) for path in files]
    from .pipeline.batch import BatchOptions, compile_batch

    options = BatchOptions(
        config=CONFIGURATIONS[args.config],
        jobs=args.jobs,
        entry=args.entry,
        args=tuple(args.args),
        check_ir=args.check_ir,
        fail_fast=args.fail_fast,
        cache=cache,
    )
    report = compile_batch(sources, options)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.format())
    _emit_observability(args)
    _emit_cache_stats(args, cache)
    return 0 if report.ok else 1


@_with_telemetry
def cmd_bench(args: argparse.Namespace) -> int:
    cache = _make_cache(args)
    code = _bench(args, cache)
    _emit_observability(args)
    _emit_cache_stats(args, cache)
    return code


def _bench(args: argparse.Namespace, cache: ArtifactCache | None) -> int:
    """Run the suite (plus the engine comparison and the trajectory
    options asked for); returns the exit status.  The phase breakdown
    it prints and records is the fold of the verb's trace, present when
    a telemetry option made it record."""
    from .bench.workloads.suites import ALL_SUITES

    profile = ALL_SUITES[args.suite]
    trajectory = (
        _load_trajectory(args.check_regression, must_exist=True)
        if args.check_regression is not None
        else None
    )
    report = run_suite(profile, seed=args.seed, cache=cache, engine=args.engine)
    phase_times = cell_phase_times(current_tracer().events)
    print(format_suite_report(report, phase_times))
    comparison = None
    if args.engine_report is not None or args.engine_report_txt is not None:
        from .bench.engines import compare_engines

        comparison = compare_engines(profile, seed=args.seed, cache=cache)
        print(comparison.format())
        if args.engine_report is not None:
            _write_output(
                args.engine_report, json.dumps(comparison.to_json(), indent=2),
                "engine report",
            )
        if args.engine_report_txt is not None:
            with _writing(args.engine_report_txt):
                args.engine_report_txt.parent.mkdir(parents=True, exist_ok=True)
            _write_output(
                args.engine_report_txt, comparison.format() + "\n",
                "engine report (text)",
            )
        if not comparison.all_match:
            return 1
    if args.append_trajectory is not None or trajectory is not None:
        return _bench_trajectory(
            args, report, phase_times, comparison, trajectory
        )
    return 0


def _load_trajectory(path: pathlib.Path, must_exist: bool = False) -> dict:
    """The trajectory at ``path`` (empty when absent, unless
    ``must_exist``); one that cannot be read or parsed is a
    :class:`UserError`."""
    from .bench.trajectory import load_trajectory

    try:
        if must_exist:
            path.stat()  # a missing file raises here, not an empty history
        return load_trajectory(path)
    except OSError as exc:
        raise UserError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise UserError(f"{path}: not JSON: {exc}") from None
    except ValueError as exc:
        raise UserError(str(exc)) from None


def _bench_trajectory(
    args: argparse.Namespace, report, phase_times, comparison,
    trajectory: dict | None,
) -> int:
    """Gate against ``trajectory`` (the ``--check-regression`` file,
    loaded before the suite ran), then append to the perf trajectory.

    The regression check runs *before* the append so a failing run never
    pollutes the history it is being judged against."""
    from .bench.trajectory import (
        append_trajectory,
        check_regression,
        compared_configs,
        last_comparable_entry,
        trajectory_entry,
    )

    entry = trajectory_entry(
        report,
        seed=args.seed,
        vm_median_speedup=(
            comparison.median_speedup if comparison is not None else None
        ),
        engine_medians=(
            comparison.engine_medians if comparison is not None else None
        ),
        phase_times=phase_times,
    )
    if trajectory is not None:
        # A gate that compared nothing passes nothing.
        path = args.check_regression
        baseline = last_comparable_entry(trajectory, entry)
        compared = [] if baseline is None else compared_configs(baseline, entry)
        if baseline is None:
            failures = [
                f"compared nothing: {path} holds no entry for suite "
                f"{entry['suite']}, seed {entry['seed']}"
            ]
        elif not compared:
            failures = [
                "compared nothing: every configuration's fingerprint "
                f"changed since the entry of {baseline.get('recorded_at')} "
                f"in {path} (commit a fresh one: --append-trajectory)"
            ]
        else:
            failures = check_regression(trajectory, entry)
        for failure in failures:
            print(f"regression: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(
            f"regression check: ok, {len(compared)} configuration(s) "
            f"against {path}",
            file=sys.stderr,
        )
    if args.append_trajectory is not None:
        _load_trajectory(args.append_trajectory)
        with _writing(args.append_trajectory):
            trajectory = append_trajectory(args.append_trajectory, entry)
        print(
            f"trajectory: {len(trajectory['entries'])} entries "
            f"-> {args.append_trajectory}",
            file=sys.stderr,
        )
    return 0


@_with_telemetry
def cmd_profile(args: argparse.Namespace) -> int:
    """JIT-compile, execute measured and profiled, print hot paths."""
    from .vm.profiler import profile_run

    try:
        artifact = _jit(args, args.source)
        if _report_guard_failures(artifact.failures):
            return 1
        cycles, results, vmprofile = profile_run(
            artifact.program, entry=args.entry, arg_sets=[tuple(args.args)],
            bytecode=artifact.bytecode(),
        )
    except PhaseBlameError as exc:
        print(exc.format_blame(), file=sys.stderr)
        return 1
    result = results[0]
    if result.trapped:
        print(f"trap: {result.trap}", file=sys.stderr)
        return 1
    print(f"result          : {result.value}")
    print(f"simulated cycles: {cycles:.0f}")
    print(f"compile time    : {artifact.report.total_compile_time * 1e3:.2f} ms")
    print()
    print(vmprofile.format(top=args.top))
    # The derived cycles and steps must match the measured run's.
    ok = vmprofile.reconciles(cycles, result.steps)
    print()
    print(
        f"reconciliation  : per-opcode cycles {vmprofile.total_cycles:.0f} "
        f"vs metered total {cycles:.0f} -> {'exact' if ok else 'MISMATCH'}"
    )
    if args.collapsed is not None:
        _write_output(args.collapsed, vmprofile.collapsed(), "collapsed stacks")
    if args.json is not None:
        _write_output(
            args.json,
            json.dumps(vmprofile.to_json(), indent=2, sort_keys=True) + "\n",
            "profile json",
        )
    return 0 if ok else 1


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .bench.report import render_markdown, run_evaluation

    result = run_evaluation(suites=args.suites, seed=args.seed)
    markdown = render_markdown(result)
    with _writing(args.out):
        args.out.write_text(markdown)
    headline = result.headline()
    print(f"report written to {args.out}")
    print(
        f"mean speedup {headline['mean_speedup']:+.2f}%  "
        f"(max {headline['max_speedup']:+.2f}% on "
        f"{headline['max_speedup_benchmark']})"
    )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Every DBDS decision of the compile ``run`` makes, per unit."""
    from .obs.profile import decision_units, format_decisions

    name = str(args.source)
    artifact = jit(
        _read_source(args.source), args.entry, [args.args],
        CONFIGURATIONS[args.config], tracer=Tracer(), name=name,
    )
    units = decision_units(artifact.events)
    if args.function is not None:
        from .pipeline.compiler import require_function

        require_function(artifact.program, args.function, "to explain", name)
        units = [unit for unit in units if unit.function == args.function]
    print(format_decisions(units))
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    from .bench.workloads.suites import ALL_SUITES, generate_workload

    profile = ALL_SUITES[args.suite]
    name = args.name or profile.benchmark_names[0]
    if name not in profile.benchmark_names:
        raise UserError(
            f"unknown benchmark {name!r} in suite {args.suite}; choose from "
            f"{', '.join(profile.benchmark_names)}"
        )
    workload = generate_workload(profile, name, args.seed)
    print(workload.source)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="DBDS reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="JIT-compile and execute")
    run_parser.add_argument("source", type=pathlib.Path, help="MiniLang source file")
    _add_jit_flags(run_parser, "the entry function")
    _add_engine_flag(run_parser)
    _add_observability(run_parser)
    _add_metrics_flags(run_parser)
    _add_check_flags(run_parser)
    _add_cache_flags(run_parser)
    run_parser.set_defaults(func=cmd_run)

    profile_parser = sub.add_parser(
        "profile", help="execute under the profiling VM, print hot paths"
    )
    profile_parser.add_argument(
        "source", type=pathlib.Path, help="MiniLang source file"
    )
    _add_jit_flags(profile_parser, "the entry function")
    _add_check_flags(profile_parser)
    _add_metrics_flags(profile_parser)
    profile_parser.add_argument(
        "--top", type=at_least(int, 1), default=10,
        help="rows per profile table",
    )
    profile_parser.add_argument(
        "--collapsed",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="write collapsed call stacks (flamegraph.pl / speedscope input)",
    )
    profile_parser.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="write the full profile as JSON",
    )
    profile_parser.set_defaults(func=cmd_profile)

    batch_parser = sub.add_parser(
        "batch", help="compile many files in parallel, artifact-cached"
    )
    batch_parser.add_argument(
        "paths",
        nargs="*",
        type=pathlib.Path,
        help="MiniLang files or directories (default: examples/)",
    )
    batch_parser.add_argument(
        "-j",
        "--jobs",
        type=at_least(int, 1),
        default=None,
        help="worker processes (default: os.cpu_count(); 1 = no pool)",
    )
    _add_jit_flags(batch_parser, "the profiling run")
    batch_parser.add_argument(
        "--json", action="store_true", help="print the batch report as JSON"
    )
    _add_check_flags(batch_parser)
    _add_cache_flags(batch_parser, default_dir=DEFAULT_CACHE_DIR)
    _add_observability(batch_parser)
    _add_metrics_flags(batch_parser)
    batch_parser.set_defaults(func=cmd_batch)

    compile_parser = sub.add_parser("compile", help="compile and show metrics")
    compile_parser.add_argument(
        "source", type=pathlib.Path, help="MiniLang source file"
    )
    _add_config_flag(compile_parser)
    _add_observability(compile_parser)
    _add_check_flags(compile_parser)
    compile_parser.add_argument(
        "--dump", action="store_true", help="print the optimized IR"
    )
    compile_parser.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    compile_parser.set_defaults(func=cmd_compile)

    check_parser = sub.add_parser(
        "check", help="run the IR sanitizers over source files"
    )
    check_parser.add_argument(
        "paths",
        nargs="*",
        type=pathlib.Path,
        help="MiniLang files or directories (default: examples/)",
    )
    _add_jit_flags(check_parser, "profiling and dynamic runs")
    _add_check_flags(check_parser, default=CHECK_EACH_PHASE)
    check_parser.add_argument(
        "--lir",
        action="store_true",
        help="also lower to LIR and run the LIR checkers (pre/post regalloc)",
    )
    check_parser.add_argument(
        "--fuzz",
        type=at_least(int, 0),
        default=0,
        metavar="N",
        help="also check N fuzzed programs, held to the differential "
        "oracle: generated programs at even seeds, mutants of the checked "
        "sources at odd ones (see docs/ANALYSIS.md)",
    )
    check_parser.add_argument("--seed", type=int, default=0, help="first fuzz seed")
    check_parser.add_argument(
        "--time-budget",
        type=at_least(float, 0, strict=True),
        default=None,
        help="stop fuzzing after this many seconds",
    )
    check_parser.add_argument(
        "--diff-engines",
        action="store_true",
        help="hold every checked file to the differential oracle: the "
        "baseline's outcomes, the same outcomes, steps and cycles on every "
        "engine (reference, vm, megaunit), every value inside its stamp",
    )
    check_parser.add_argument(
        "--verify-bytecode",
        action="store_true",
        help="run the static bytecode verifier over each file's VM "
        "translation, including the megaunit codegen lint (see "
        "docs/ANALYSIS.md)",
    )
    check_parser.add_argument(
        "--bc-report",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="write the bytecode-verifier report as JSON",
    )
    _add_observability(check_parser)
    _add_metrics_flags(check_parser)
    _add_cache_flags(check_parser)
    check_parser.set_defaults(func=cmd_check)

    bench_parser = sub.add_parser("bench", help="run one evaluation suite")
    bench_parser.add_argument("--suite", default="micro", choices=SUITE_NAMES)
    bench_parser.add_argument("--seed", type=int, default=0)
    _add_engine_flag(bench_parser)
    bench_parser.add_argument(
        "--engine-report",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="also compare engines on the suite, write the JSON report "
        "(reference vs every VM engine: wall times, per-engine speedups, "
        "outcome equality)",
    )
    bench_parser.add_argument(
        "--engine-report-txt",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="persist the human-readable engine comparison table "
        "(e.g. benchmarks/results/engine_report.txt)",
    )
    _add_observability(bench_parser)
    _add_metrics_flags(bench_parser)
    _add_cache_flags(bench_parser)
    bench_parser.add_argument(
        "--append-trajectory",
        type=pathlib.Path,
        nargs="?",
        const=DEFAULT_TRAJECTORY_PATH,
        default=None,
        metavar="FILE",
        help="append this run to the committed perf trajectory "
        f"(default file: {DEFAULT_TRAJECTORY_PATH})",
    )
    bench_parser.add_argument(
        "--check-regression",
        type=pathlib.Path,
        nargs="?",
        const=DEFAULT_TRAJECTORY_PATH,
        default=None,
        metavar="FILE",
        help="fail when per-config median cycles grow more than "
        f"{DEFAULT_REGRESSION_THRESHOLD * 100:g}%% against the last "
        "comparable trajectory entry, or when that entry gates no "
        "configuration",
    )
    bench_parser.set_defaults(func=cmd_bench)

    evaluate_parser = sub.add_parser(
        "evaluate", help="run the full evaluation, write a markdown report"
    )
    evaluate_parser.add_argument(
        "--suites",
        nargs="*",
        choices=SUITE_NAMES,
        default=None,
        help="suites to run (default: the four paper suites)",
    )
    evaluate_parser.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("evaluation_report.md")
    )
    evaluate_parser.add_argument("--seed", type=int, default=0)
    evaluate_parser.set_defaults(func=cmd_evaluate)

    explain_parser = sub.add_parser(
        "explain",
        help="JIT-compile as run does, report every DBDS decision it made",
    )
    explain_parser.add_argument(
        "source", type=pathlib.Path, help="MiniLang source file"
    )
    _add_jit_flags(explain_parser, "the profiling run")
    explain_parser.add_argument(
        "--function", default=None, help="only this unit (default: all)"
    )
    explain_parser.set_defaults(func=cmd_explain)

    workload_parser = sub.add_parser(
        "workload", help="print a generated benchmark's MiniLang source"
    )
    workload_parser.add_argument("--suite", default="micro", choices=SUITE_NAMES)
    workload_parser.add_argument("--name", default=None, help="benchmark name")
    workload_parser.add_argument("--seed", type=int, default=0)
    workload_parser.set_defaults(func=cmd_workload)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UserError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except BudgetExceeded as exc:
        print(f"repro: error: step limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except Exception as exc:
        import traceback

        print(
            f"repro: internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
