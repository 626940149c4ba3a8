"""Command-line interface: compile and run MiniLang programs.

Usage::

    python -m repro run program.mini --entry main --args 10 --config dbds
    python -m repro compile program.mini --config dupalot --dump --json
    python -m repro trace program.mini --config dbds --out trace.jsonl
    python -m repro bench --suite micro --profile-compile
    python -m repro check examples/ --check-ir=each-phase --fuzz 20
    python -m repro profile program.mini --top 5 --collapsed out.folded

``run`` JIT-compiles (a profiling run on the bytecode VM, then
optimization) and executes, printing the result and the simulated cycle
count; ``run``, ``check``, ``profile``, ``batch`` and ``bench`` all
compile through the one cache-first :func:`repro.pipeline.front.jit`,
so they share cache keys and entries.  ``run``, ``check`` and
``profile`` take ``--check-bc={off,rewrite}``, which verifies every VM
translation they execute, warm cache hits included (the cache stores
programs, not bytecode).
``compile`` optimizes without a profile and prints per-unit metrics
and optionally the optimized IR.  ``trace`` compiles under a recording
tracer and prints the aggregated compile profile.  ``bench``
regenerates one of the paper's evaluation figures.  ``check`` runs the
IR sanitizers (docs/ANALYSIS.md) over source files: checked compiles
with phase-blame diagnostics, optional LIR checks, dynamic stamp
checking, and translation-validation fuzzing.  ``run``,
``compile``, ``check``, ``batch`` and ``bench`` all accept
``--trace-out FILE`` (write the JSONL event trace; on ``bench``, the
suite report) and ``--profile-compile`` (print the per-phase profile);
see docs/OBSERVABILITY.md.  ``run`` and ``compile`` accept
``--check-ir={off,boundaries,each-phase}`` plus
``--fail-fast``/``--keep-going``.  ``run``, ``bench`` and ``check``
accept ``--engine={reference,vm,megaunit}`` to pick the executor;
``run`` defaults to ``megaunit``, ``bench`` and ``check`` to
``reference`` (``vm`` is the plain bytecode loop, ``megaunit`` compiles
the whole program into one exec unit with direct calls, docs/VM.md);
``bench --engine-report FILE`` writes the engine comparison matrix and
``check --diff-engines``/``--fuzz-engines N`` differentially validate
every engine against the reference
(docs/VM.md).  ``profile`` (and ``bench --profile-run``, over a
suite) executes under the profiling VM and prints per-opcode/function/
block hot-path tables; ``run``, ``batch``, ``bench``, ``check`` and
``profile`` accept ``--metrics-out FILE``/``--metrics-prom FILE`` to
export the metrics snapshot, a view of the verb's one trace;
``bench --append-trajectory``/``--check-regression`` maintain the
committed perf trajectory (docs/OBSERVABILITY.md).

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
from typing import TYPE_CHECKING

# Only what every verb needs loads here: a warm ``run`` executes a cached
# program and never loads the compiler (see docs/PIPELINE.md).  Modules
# that only some verbs or flags use (the compiler stack, the workload
# generators, the trajectory, the metrics fold, the compile profile, the
# batch driver, the profiling VM, the bytecode verifier, the fuzzers)
# are imported where they are used.
from .analysis.blame import (
    CHECK_EACH_PHASE,
    CHECK_MODES,
    CHECK_OFF,
    BytecodeVerificationError,
    PhaseBlameError,
)
from .bench.harness import (
    DEFAULT_REGRESSION_THRESHOLD,
    DEFAULT_TRAJECTORY_PATH,
    SUITE_NAMES,
    format_suite_report,
    run_suite,
    suite_report_json,
)
from .interp.interpreter import BudgetExceeded, Interpreter
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

if TYPE_CHECKING:
    from .vm.profiler import VMProfile

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


def _add_check_bc_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--check-bc",
        default="off",
        choices=("off", "rewrite"),
        help="statically verify VM bytecode: 'rewrite' checks every "
        "translated stream before it runs, warm cache hits included "
        "(see docs/ANALYSIS.md)",
    )


def _add_engine_flag(
    parser: argparse.ArgumentParser, default: str = "reference"
) -> None:
    parser.add_argument(
        "--engine",
        default=default,
        choices=ENGINES,
        help="execution engine for program runs (default: %(default)s; "
        "see docs/VM.md)",
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
    if cache is not None and args.cache_stats:
        print(cache.stats.format(), file=sys.stderr)


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
        check_ir=args.check_ir, fail_fast=args.fail_fast,
        check_bc=args.check_bc, name=str(path),
    )


def _report_guard_failures(failures: list) -> int:
    """Print collected phase-blame diagnostics; returns how many."""
    for failure in failures:
        print(failure.format_blame(), file=sys.stderr)
    return len(failures)


def _emit_observability(args: argparse.Namespace) -> None:
    """Write ``--trace-out`` and print ``--profile-compile`` from the
    verb's tracer (see :func:`_with_telemetry`)."""
    tracer = current_tracer()
    if args.trace_out is not None:
        with _writing(args.trace_out):
            records = write_jsonl(tracer, args.trace_out)
        print(f"trace: {records} records -> {args.trace_out}", file=sys.stderr)
    if args.profile_compile:
        from .obs.profile import CompileProfile

        print(CompileProfile.from_tracer(tracer).format())


def _add_metrics_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="write the metrics snapshot as JSON (docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--metrics-prom",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="write the metrics snapshot in Prometheus text format",
    )


#: the options (``dest`` names) whose output is read from the verb's
#: trace: any of them makes the verb record one
_TELEMETRY_OPTIONS = (
    "trace_out", "profile_compile", "metrics_out", "metrics_prom",
    "append_trajectory", "check_regression",
)


def _with_telemetry(impl):
    """Run a verb under one ambient tracer, then export its metrics.

    The tracer records when any of :data:`_TELEMETRY_OPTIONS` was given
    (else it is the no-op ``NULL_TRACER``, and compiles keep their
    private counting tracers).  Every layer the verb drives records
    into it, so ``--trace-out``, ``--profile-compile`` and the
    ``--metrics-out``/``--metrics-prom`` snapshot
    (:meth:`~repro.obs.metrics.MetricsSnapshot.from_tracer`) all read
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
    """Write ``--metrics-out``/``--metrics-prom`` (on the verbs that
    take them) from the verb's trace."""
    out = getattr(args, "metrics_out", None)
    prom = getattr(args, "metrics_prom", None)
    if out is None and prom is None:
        return
    from .obs.metrics import MetricsSnapshot

    snapshot = MetricsSnapshot.from_tracer(tracer)
    if out is not None:
        _write_output(
            out, json.dumps(snapshot.to_json(), indent=2, sort_keys=True) + "\n",
            "metrics:",
        )
    if prom is not None:
        _write_output(prom, snapshot.render_prometheus(), "metrics:")


def _emit_vm_profile(
    vmprofile: "VMProfile", cycles: float, top: int = 10
) -> bool:
    """Print the profile tables plus the cycle-reconciliation line;
    returns whether the per-opcode cycle sum matches the metered total."""
    print()
    print(vmprofile.format(top=top))
    ok = vmprofile.reconciles(cycles)
    verdict = "exact" if ok else "MISMATCH"
    print()
    print(
        f"reconciliation  : per-opcode cycles {vmprofile.total_cycles:.0f} "
        f"vs metered total {cycles:.0f} -> {verdict}"
    )
    return ok


@_with_telemetry
def cmd_run(args: argparse.Namespace) -> int:
    cache = _make_cache(args)
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
    except BytecodeVerificationError as exc:
        print(exc.report.format(), file=sys.stderr)
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
    _emit_observability(args)
    _emit_cache_stats(args, cache)
    return 0


@_with_telemetry
def cmd_compile(args: argparse.Namespace) -> int:
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
    _emit_observability(args)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Compile under a recording tracer; print the profile report."""
    from .obs.profile import CompileProfile
    from .pipeline.compiler import Compiler, parse_source

    program = parse_source(_read_source(args.source), str(args.source))
    tracer = Tracer()
    Compiler(CONFIGURATIONS[args.config], tracer=tracer).compile_program(program)
    print(CompileProfile.from_tracer(tracer).format(top=args.top))
    if args.decisions:
        from .dbds.explain import format_decision_events

        print()
        print("DBDS decisions:")
        print(format_decision_events(tracer.events))
    if args.out is not None:
        with _writing(args.out):
            records = write_jsonl(tracer, args.out)
        print(f"trace: {records} records -> {args.out}", file=sys.stderr)
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


def _check_one_file(
    path: pathlib.Path,
    args: argparse.Namespace,
    cache: ArtifactCache | None = None,
) -> int:
    """Run every requested sanitizer over one source file; returns the
    number of failures found (0 = clean).  A cache hit skips the
    pipeline and its guards (entries are only written for clean checked
    compiles); the whole-program sweeps still run on the rehydrated
    artifact."""
    failures = 0
    try:
        artifact = _jit(args, path, cache)
        failures = _report_guard_failures(artifact.failures)
        return failures + _check_program_sweeps(path, args, artifact)
    except PhaseBlameError as exc:
        print(f"{path}:", file=sys.stderr)
        print(exc.format_blame(), file=sys.stderr)
        return 1
    except BytecodeVerificationError as exc:
        print(f"{path}:", file=sys.stderr)
        print(exc.report.format(), file=sys.stderr)
        return failures + len(exc.report.errors())


def _check_program_sweeps(
    path: pathlib.Path, args: argparse.Namespace, artifact: Artifact
) -> int:
    """The post-compile sweeps: registered IR checkers plus optional
    LIR and dynamic-stamp validation; returns the failure count."""
    from .analysis import check_stamp_dynamic, run_lir_checkers, run_program_checkers

    program = artifact.program
    failures = 0
    # Whole-program sweep with every registered IR checker, keep-going.
    for report in run_program_checkers(program, fail_fast=False):
        for violation in report.errors():
            print(f"{path}: {violation.format()}", file=sys.stderr)
            failures += 1

    if args.lir:
        from .backend.lowering import lower_program
        from .backend.regalloc import allocate_program

        lir_program = lower_program(program)
        reports = [run_lir_checkers(fn) for fn in lir_program.functions.values()]
        allocations = allocate_program(lir_program)
        reports.extend(
            run_lir_checkers(fn, allocations[name])
            for name, fn in lir_program.functions.items()
        )
        for report in reports:
            for violation in report.errors():
                print(f"{path}: {violation.format()}", file=sys.stderr)
                failures += 1

    if args.dynamic_stamps:
        problems: list[str] = []

        def observe(instruction, value) -> None:
            message = check_stamp_dynamic(instruction, value)
            if message is not None:
                problems.append(message)

        # Every engine exposes the same observer hook, so dynamic stamp
        # checking doubles as a VM spot-check under --engine=vm (megaunit
        # runs observed frames on the vm loop, so one VirtualMachine
        # serves both bytecode engines here).
        if args.engine != "reference":
            from .vm.machine import VirtualMachine

            runner = VirtualMachine(artifact.bytecode(), observer=observe)
        else:
            runner = Interpreter(program, observer=observe)
        runner.run(args.entry, list(args.args))
        for message in problems:
            print(f"{path}: dynamic-stamp: {message}", file=sys.stderr)
            failures += 1

    if args.diff_engines:
        from .analysis import validate_engines

        result = validate_engines(
            _read_source(path), args.entry, [args.args],
            config=CONFIGURATIONS[args.config],
        )
        for record in result.divergences:
            print(f"{path}: engine-diff: {record.format()}", file=sys.stderr)
            failures += 1

    if args.verify_bytecode:
        from .analysis.bcverify import verify_bytecode

        # Every checker including the codegen lint, keep-going.
        report = verify_bytecode(artifact.bytecode())
        for violation in report.errors():
            print(f"{path}: {violation.format()}", file=sys.stderr)
            failures += 1
        if not hasattr(args, "_bc_reports"):
            args._bc_reports = []
        args._bc_reports.append({"file": str(path), **report.to_json()})
    return failures


@_with_telemetry
def cmd_check(args: argparse.Namespace) -> int:
    """Checked compiles plus optional LIR/dynamic/fuzz validation."""
    config = CONFIGURATIONS[args.config]
    cache = _make_cache(args)
    files = _collect_sources(args.paths or [pathlib.Path("examples")])
    failures = 0
    for path in files:
        failures += _check_one_file(path, args, cache)

    if args.fuzz:
        from .analysis import fuzz_translation

        report = fuzz_translation(
            seed=args.seed, programs=args.fuzz, time_budget=args.time_budget
        )
        print(report.format())
        failures += len(report.divergences) + len(report.compile_failures)

    if args.fuzz_mutations:
        from .analysis import fuzz_mutations

        corpus = [_read_source(path) for path in files]
        report = fuzz_mutations(
            seed=args.seed,
            programs=args.fuzz_mutations,
            time_budget=args.time_budget,
            corpus=corpus,
        )
        print(report.format())
        failures += len(report.divergences) + len(report.compile_failures)

    if args.fuzz_engines:
        from .analysis import fuzz_engines

        corpus = [_read_source(path) for path in files]
        report = fuzz_engines(
            seed=args.seed,
            programs=args.fuzz_engines,
            time_budget=args.time_budget,
            config=config,
            corpus=corpus,
        )
        print(report.format())
        failures += len(report.divergences) + len(report.compile_failures)

    if args.bc_report:
        payload = {"files": getattr(args, "_bc_reports", [])}
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
    from .bench.workloads.suites import ALL_SUITES

    # Any telemetry option makes the verb's tracer record, and a recorded
    # compile is phase-profiled: the suite report then prints the phase
    # breakdown, and trajectory entries need its per-phase seconds.
    profile = ALL_SUITES[args.suite]
    cache = _make_cache(args)
    trajectory = (
        _load_trajectory(args.check_regression)
        if args.check_regression is not None
        else None
    )
    report = run_suite(profile, seed=args.seed, cache=cache, engine=args.engine)
    print(format_suite_report(report))
    if args.trace_out is not None:
        _write_output(
            args.trace_out, json.dumps(suite_report_json(report), indent=2),
            "suite report",
        )
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
    if args.profile_run:
        code = _bench_profile_run(args, profile)
        if code:
            return code
    if args.append_trajectory is not None or trajectory is not None:
        code = _bench_trajectory(args, report, comparison, trajectory)
        if code:
            return code
    _emit_cache_stats(args, cache)
    return 0


def _bench_profile_run(args: argparse.Namespace, profile) -> int:
    """Aggregate a VM execution profile across the suite's measured runs
    (compiled fresh under the DBDS configuration)."""
    from .bench.workloads.suites import generate_suite
    from .vm.profiler import VMProfile, profile_run

    vmprofile = VMProfile()
    total = 0.0
    for workload in generate_suite(profile, args.seed):
        artifact = jit(
            workload.source, workload.entry, workload.profile_args,
            CONFIGURATIONS["dbds"],
        )
        cycles, _, _ = profile_run(
            artifact.program, entry=workload.entry,
            arg_sets=[tuple(a) for a in workload.measure_args],
            bytecode=artifact.bytecode(), vmprofile=vmprofile,
        )
        total += cycles
    print()
    print(f"=== VM execution profile: {profile.suite} suite, dbds config ===")
    return 0 if _emit_vm_profile(vmprofile, total) else 1


def _load_trajectory(path: pathlib.Path) -> dict:
    """The trajectory at ``path``; one that cannot be read or parsed is
    a :class:`UserError`."""
    from .bench.trajectory import load_trajectory

    try:
        return load_trajectory(path)
    except OSError as exc:
        raise UserError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise UserError(f"{path}: not JSON: {exc}") from None
    except ValueError as exc:
        raise UserError(str(exc)) from None


def _bench_trajectory(
    args: argparse.Namespace, report, comparison, trajectory: dict | None
) -> int:
    """Gate against ``trajectory`` (the ``--check-regression`` file,
    loaded before the suite ran), then append to the perf trajectory.

    The regression check runs *before* the append so a failing run never
    pollutes the history it is being judged against."""
    from .bench.trajectory import (
        append_trajectory,
        check_regression,
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
    )
    if trajectory is not None:
        failures = check_regression(
            trajectory, entry, args.regression_threshold
        )
        for failure in failures:
            print(f"regression: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(
            f"regression check: ok against {args.check_regression}",
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
    """JIT-compile, execute under the profiling VM, print hot paths."""
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
    except BytecodeVerificationError as exc:
        print(exc.report.format(), file=sys.stderr)
        return 1
    result = results[0]
    if result.trapped:
        print(f"trap: {result.trap}", file=sys.stderr)
        return 1
    print(f"result          : {result.value}")
    print(f"simulated cycles: {cycles:.0f}")
    print(f"compile time    : {artifact.report.total_compile_time * 1e3:.2f} ms")
    ok = _emit_vm_profile(vmprofile, cycles, top=args.top)
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
    from .dbds.explain import explain_graph
    from .interp.profile import apply_profile, profile_program
    from .opts.canonicalize import CanonicalizerPhase
    from .opts.inline import InliningPhase
    from .pipeline.compiler import parse_entry, parse_source, require_function

    source, name = _read_source(args.source), str(args.source)
    if args.profile_args is not None:
        program = parse_entry(
            source, args.entry, [args.profile_args], name, "--profile-args"
        )
        collector = profile_program(program, args.entry, [args.profile_args])
        apply_profile(program, collector)
    else:
        program = parse_source(source, name)
    functions = [args.function] if args.function else list(program.functions)
    for function in functions:
        graph = require_function(program, function, "to explain", name)
        InliningPhase(program).run(graph)
        CanonicalizerPhase().run(graph)
        print(explain_graph(graph, program))
        print()
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
    _add_check_bc_flag(run_parser)
    _add_engine_flag(run_parser, default="megaunit")
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
    _add_check_bc_flag(profile_parser)
    _add_check_flags(profile_parser)
    _add_metrics_flags(profile_parser)
    profile_parser.add_argument(
        "--top", type=int, default=10, help="rows per profile table"
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
        type=int,
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

    trace_parser = sub.add_parser(
        "trace", help="compile under a recording tracer, print the profile"
    )
    trace_parser.add_argument("source", type=pathlib.Path)
    _add_config_flag(trace_parser)
    trace_parser.add_argument(
        "--out", type=pathlib.Path, default=None, help="write the JSONL trace here"
    )
    trace_parser.add_argument(
        "--top", type=int, default=10, help="rows per profile section"
    )
    trace_parser.add_argument(
        "--decisions",
        action="store_true",
        help="also list every DBDS decision event",
    )
    trace_parser.set_defaults(func=cmd_trace)

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
    _add_check_bc_flag(check_parser)
    _add_check_flags(check_parser, default=CHECK_EACH_PHASE)
    check_parser.add_argument(
        "--lir",
        action="store_true",
        help="also lower to LIR and run the LIR checkers (pre/post regalloc)",
    )
    check_parser.add_argument(
        "--dynamic-stamps",
        action="store_true",
        help="interpret the optimized program and check every produced "
        "value against its static stamp",
    )
    check_parser.add_argument(
        "--fuzz",
        type=int,
        default=0,
        metavar="N",
        help="also translation-validate N generated programs",
    )
    check_parser.add_argument("--seed", type=int, default=0, help="fuzz seed")
    check_parser.add_argument(
        "--fuzz-mutations",
        type=int,
        default=0,
        metavar="N",
        help="also translation-validate N mutants of the checked sources "
        "(template-extraction-style fuzzing; see docs/ANALYSIS.md)",
    )
    check_parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="stop fuzzing after this many seconds",
    )
    _add_engine_flag(check_parser)
    check_parser.add_argument(
        "--diff-engines",
        action="store_true",
        help="run every checked program on both engines and demand "
        "identical outcomes, steps and cycles",
    )
    check_parser.add_argument(
        "--fuzz-engines",
        type=int,
        default=0,
        metavar="N",
        help="also engine-validate N mutants of the checked sources "
        "(reference interpreter vs every VM engine)",
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
        "--profile-run",
        action="store_true",
        help="also aggregate a VM execution profile over the suite's "
        "measured runs (dbds config)",
    )
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
        help="fail when per-config median cycles regress beyond the "
        "threshold against the last comparable trajectory entry",
    )
    bench_parser.add_argument(
        "--regression-threshold",
        type=float,
        default=DEFAULT_REGRESSION_THRESHOLD,
        metavar="FRAC",
        help="tolerated relative median-cycles growth (default: %(default)s)",
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
        "explain", help="report every duplication candidate and decision"
    )
    explain_parser.add_argument("source", type=pathlib.Path)
    explain_parser.add_argument(
        "--function", default=None, help="only this function (default: all)"
    )
    explain_parser.add_argument(
        "--profile-args",
        nargs="*",
        type=int64,
        default=None,
        help="profile with these entry args before explaining",
    )
    explain_parser.add_argument("--entry", default="main")
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
