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
count.  ``compile`` prints per-unit metrics and optionally the
optimized IR.  ``trace`` compiles under a recording tracer and prints
the aggregated compile profile.  ``bench``
regenerates one of the paper's evaluation figures.  ``check`` runs the
IR sanitizers (docs/ANALYSIS.md) over source files: checked compiles
with phase-blame diagnostics, optional LIR checks, dynamic stamp
checking, and translation-validation fuzzing.  ``run``,
``compile`` and ``bench`` all accept ``--trace-out FILE`` (write the
JSONL event trace) and ``--profile-compile`` (print the per-phase
profile); see docs/OBSERVABILITY.md.  ``run`` and ``compile`` accept
``--check-ir={off,boundaries,each-phase}`` plus
``--fail-fast``/``--keep-going``.  ``run``, ``bench`` and ``check``
accept ``--engine={reference,vm,closure,megaunit,tiered}`` to pick the
executor; ``run`` defaults to ``megaunit``, ``bench`` and ``check`` to
``reference`` (``megaunit`` compiles the whole program into one exec unit
with direct calls, docs/VM.md; ``tiered`` starts cold and promotes hot
functions at the ``--tier-threshold`` hotness, and with
``--tier2-engine=megaunit`` re-promotes the hottest into the
whole-program unit at ``--tier2-threshold``; docs/TIERING.md);
``bench --engine-report FILE`` writes the engine comparison matrix and
``check --diff-engines``/``--fuzz-engines N`` differentially validate
every engine against the reference
(docs/VM.md).  ``profile`` (and ``run``/``bench --profile-run``)
executes under the profiling VM and prints per-opcode/function/block
hot-path tables; ``run``, ``batch``, ``bench`` and ``check`` accept
``--metrics-out FILE``/``--metrics-prom FILE`` to export the unified
metrics snapshot; ``bench --append-trajectory``/``--check-regression``
maintain the committed perf trajectory (docs/OBSERVABILITY.md).

A user error — a source file that cannot be read or compiled, an
unknown ``--entry``, a wrong ``--args`` count — prints one
``repro: error: ...`` line (compile errors located as ``file:line:col``)
and exits 2; a program that traps exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys
from typing import TYPE_CHECKING

# Only what every verb needs loads here; modules that only some verbs or
# flags use (the batch driver, tiering, the profiling VM, the bytecode
# verifier, the fuzzers) are imported where they are used.
from .analysis.blame import CHECK_EACH_PHASE, CHECK_MODES, CHECK_OFF, PhaseBlameError
from .analysis.core import BytecodeVerificationError
from .bench.harness import format_suite_report, run_suite, suite_report_json
from .bench.trajectory import (
    DEFAULT_REGRESSION_THRESHOLD,
    DEFAULT_TRAJECTORY_PATH,
)
from .bench.workloads.suites import ALL_SUITES
from .frontend.irbuilder import compile_source
from .frontend.lexer import CompileError
from .interp.interpreter import Interpreter
from .interp.profile import apply_profile, profile_program
from .obs import (
    NULL_REGISTRY,
    CompileProfile,
    MetricsRegistry,
    Tracer,
    use_registry,
    write_jsonl,
)
from .pipeline.cache import ArtifactCache, cache_key, make_entry
from .obs.tracer import current_tracer, use_tracer
from .pipeline.compiler import Compiler, ENGINES, measure_performance
from .pipeline.config import (
    CONFIGURATIONS,
    DEFAULT_TIER2_THRESHOLD,
    DEFAULT_TIER_THRESHOLD,
)
from .vm.translate import translate_program

# ``run``'s default engine loads with the CLI, as does every layer that
# perfbench/traced.py wraps right after importing this module.
from .vm import megaunit  # noqa: F401

if TYPE_CHECKING:
    from .ir.graph import Graph, Program
    from .vm.profiler import VMProfile
    from .vm.tiering import TieringPolicy

#: default on-disk cache location of the ``batch`` verb
DEFAULT_CACHE_DIR = pathlib.Path(".repro-cache")

#: exit status of a user error: a source file that cannot be read or
#: compiled, an unknown entry, a wrong argument count (a trap exits 1)
EXIT_USER_ERROR = 2


class UserError(Exception):
    """A mistake in the command line or in the program it names.

    :func:`main` prints it as one ``repro: error: ...`` line and exits
    with :data:`EXIT_USER_ERROR` instead of showing a traceback.
    """


def _read_source(path: pathlib.Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise UserError(f"cannot read {path}: {exc.strerror or exc}") from None


def _compile_located(path: pathlib.Path, source: str) -> "Program":
    """The unoptimized program of ``source``; a compile error is a
    :class:`UserError` located as ``file:line:col``."""
    try:
        return compile_source(source)
    except CompileError as exc:
        where = str(path)
        if exc.line:
            where += f":{exc.line}" + (f":{exc.column}" if exc.column else "")
        raise UserError(f"{where}: {exc.message}") from None


def _require_function(
    path: pathlib.Path, program: "Program", name: str, purpose: str
) -> "Graph":
    graph = program.functions.get(name)
    if graph is None:
        defined = ", ".join(program.functions) or "none"
        raise UserError(
            f"{path}: no function {name!r} {purpose} (defined: {defined})"
        )
    return graph


def _compile_entry(
    path: pathlib.Path,
    source: str,
    entry: str,
    args: list[int],
    flag: str = "--args",
) -> "Program":
    """The unoptimized program of ``source``, checked to define
    ``entry`` taking ``len(args)`` arguments (given by ``flag``)."""
    program = _compile_located(path, source)
    graph = _require_function(path, program, entry, "to run")
    if len(graph.parameters) != len(args):
        raise UserError(
            f"{path}: {entry} takes {len(graph.parameters)} argument(s), "
            f"{flag} gave {len(args)}"
        )
    return program


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("source", type=pathlib.Path, help="MiniLang source file")
    parser.add_argument("--entry", default="main", help="entry function")
    parser.add_argument(
        "--config",
        default="dbds",
        choices=sorted(CONFIGURATIONS),
        help="compiler configuration",
    )
    parser.add_argument(
        "--args",
        nargs="*",
        type=int,
        default=[10],
        help="integer arguments for the entry function",
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
    parser.add_argument(
        "--tier-threshold",
        type=int,
        default=None,
        metavar="N",
        help="hotness (calls + back edges) at which --engine=tiered "
        f"promotes a function (default: {DEFAULT_TIER_THRESHOLD}; "
        "see docs/TIERING.md)",
    )
    parser.add_argument(
        "--tier2-engine",
        default=None,
        choices=("off", "megaunit"),
        help="tier-2 backend for --engine=tiered: 'megaunit' re-promotes "
        "functions that stay hot in tier 1 into the whole-program exec "
        "unit (default: off; see docs/TIERING.md)",
    )
    parser.add_argument(
        "--tier2-threshold",
        type=int,
        default=None,
        metavar="N",
        help="tier-1 calls at which a promoted function re-promotes to "
        f"the tier-2 engine (default: {DEFAULT_TIER2_THRESHOLD})",
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
    parser.add_argument(
        "--check-bc",
        default="off",
        choices=("off", "load", "rewrite"),
        help="statically verify VM bytecode: 'load' checks every cache "
        "artifact before it runs (reject -> evict + recompile), "
        "'rewrite' additionally checks freshly fused/quickened streams "
        "(see docs/ANALYSIS.md)",
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
    if args.no_cache or args.cache_dir is None:
        return None
    check_bc = getattr(args, "check_bc", "off")
    return ArtifactCache(
        args.cache_dir,
        verify_bytecode="load" if check_bc != "off" else "off",
    )


def _emit_cache_stats(args: argparse.Namespace, cache: ArtifactCache | None) -> None:
    if cache is not None and args.cache_stats:
        print(cache.stats.format(), file=sys.stderr)


def _jit_compile(
    program: "Program",
    entry: str,
    profile_args: list[list[int]],
    config,
    tracer: Tracer | None,
    check_ir: str,
    fail_fast: bool,
):
    """The ``compile_and_profile`` flow on an unoptimized ``program``
    (see :func:`_compile_entry`), keeping the compiler visible so
    keep-going guard failures can be reported after the fact.  The
    profiling run's ``interp.profile`` event goes to ``tracer``."""
    with use_tracer(tracer if tracer is not None else current_tracer()):
        collector = profile_program(program, entry, profile_args)
    apply_profile(program, collector)
    compiler = Compiler(config, tracer=tracer, check_ir=check_ir, fail_fast=fail_fast)
    report = compiler.compile_program(program)
    return program, report, compiler.guard


def _report_guard_failures(guard) -> int:
    """Print collected phase-blame diagnostics; returns how many."""
    if guard is None:
        return 0
    for failure in guard.failures:
        print(failure.format_blame(), file=sys.stderr)
    return len(guard.failures)


def _make_tracer(args: argparse.Namespace) -> Tracer | None:
    """An event-recording tracer when any telemetry output was asked."""
    if args.trace_out is not None or args.profile_compile:
        return Tracer()
    return None


def _make_tiering(args: argparse.Namespace) -> "TieringPolicy | None":
    """The :class:`TieringPolicy` encoded by the CLI flags, or None for
    defaults.  ``--check-bc=rewrite`` makes the tiering controller
    verify every promoted stream before it can reach dispatch."""
    threshold = getattr(args, "tier_threshold", None)
    check_bc = getattr(args, "check_bc", "off")
    tier2_engine = getattr(args, "tier2_engine", None)
    tier2_threshold = getattr(args, "tier2_threshold", None)
    if (
        threshold is None
        and check_bc != "rewrite"
        and tier2_engine is None
        and tier2_threshold is None
    ):
        return None
    from .vm.tiering import TieringPolicy

    return TieringPolicy(
        threshold=threshold if threshold is not None else DEFAULT_TIER_THRESHOLD,
        check_bc="rewrite" if check_bc == "rewrite" else "off",
        tier2_engine=tier2_engine if tier2_engine is not None else "off",
        tier2_threshold=(
            tier2_threshold
            if tier2_threshold is not None
            else DEFAULT_TIER2_THRESHOLD
        ),
    )


def _emit_observability(args: argparse.Namespace, tracer: Tracer | None) -> None:
    if tracer is None:
        return
    if args.trace_out is not None:
        records = write_jsonl(tracer, args.trace_out)
        print(f"trace: {records} records -> {args.trace_out}", file=sys.stderr)
    if args.profile_compile:
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


def _make_registry(args: argparse.Namespace) -> MetricsRegistry:
    """A recording registry when any metrics output was asked, else the
    ambient null registry (instrumentation stays free)."""
    if args.metrics_out is not None or args.metrics_prom is not None:
        return MetricsRegistry()
    return NULL_REGISTRY


def _emit_metrics(args: argparse.Namespace, registry: MetricsRegistry) -> None:
    if not registry.enabled:
        return
    snapshot = registry.snapshot()
    if args.metrics_out is not None:
        args.metrics_out.write_text(
            json.dumps(snapshot.to_json(), indent=2, sort_keys=True) + "\n"
        )
        print(f"metrics: -> {args.metrics_out}", file=sys.stderr)
    if args.metrics_prom is not None:
        args.metrics_prom.write_text(snapshot.render_prometheus())
        print(f"metrics: -> {args.metrics_prom}", file=sys.stderr)


def _with_metrics(impl):
    """Run a command under its own metrics registry and export on exit.

    Every verb decorated here gains ``--metrics-out``/``--metrics-prom``
    (added by :func:`_add_metrics_flags`); instrumented layers find the
    registry through the ambient ``current_registry()`` exactly like
    they find the tracer.
    """

    @functools.wraps(impl)
    def wrapper(args: argparse.Namespace) -> int:
        registry = _make_registry(args)
        with use_registry(registry):
            code = impl(args)
        _emit_metrics(args, registry)
        return code

    return wrapper


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


@_with_metrics
def cmd_run(args: argparse.Namespace) -> int:
    source = _read_source(args.source)
    config = CONFIGURATIONS[args.config]
    tracer = _make_tracer(args)
    cache = _make_cache(args)
    cached = None
    key = None
    if cache is not None:
        key = cache_key(
            source, config, entry=args.entry,
            profile_args=[args.args], check_ir=args.check_ir,
        )
        cached = cache.get(key, tracer)
    bytecode = None
    if cached is not None:
        program, report = cached.program(), cached.report
        bytecode = cached.bytecode()
    else:
        # Compile under a recording tracer even without telemetry flags
        # when caching: the stored artifact keeps its decision trace.
        compile_tracer = tracer if tracer is not None else (
            Tracer() if cache is not None else None
        )
        program = _compile_entry(args.source, source, args.entry, args.args)
        try:
            program, report, guard = _jit_compile(
                program, args.entry, [args.args], config, compile_tracer,
                args.check_ir, args.fail_fast,
            )
        except PhaseBlameError as exc:
            print(exc.format_blame(), file=sys.stderr)
            return 1
        if _report_guard_failures(guard):
            return 1
        if cache is not None:
            try:
                bytecode = translate_program(
                    program, check_bc=args.check_bc
                )
            except BytecodeVerificationError as exc:
                print(exc.report.format(), file=sys.stderr)
                return 1
            cache.put(
                make_entry(
                    key, program, report,
                    events=compile_tracer.events,
                    counters=compile_tracer.counters,
                    bytecode=bytecode,
                ),
                tracer,
            )
    vmprofile = None
    try:
        if args.profile_run:
            from .vm.profiler import profile_run

            # Profiling implies the VM: the profiler is a specialization
            # of its metered dispatch loop, so cycles match --engine=vm
            # runs.
            cycles, results, vmprofile = profile_run(
                program, entry=args.entry, arg_sets=[tuple(args.args)],
                bytecode=bytecode,
            )
        elif tracer is not None:
            # Run under the recording tracer so runtime events — the
            # tiered engine's tier.promote/tier.compile, plan-cache
            # hits — land in --trace-out next to the compile events.
            with use_tracer(tracer):
                cycles, results = measure_performance(
                    program, args.entry, [args.args],
                    engine=args.engine, bytecode=bytecode,
                    check_bc=args.check_bc, tiering=_make_tiering(args),
                    plan_cache=cache,
                )
        else:
            cycles, results = measure_performance(
                program, args.entry, [args.args],
                engine=args.engine, bytecode=bytecode,
                check_bc=args.check_bc, tiering=_make_tiering(args),
                plan_cache=cache,
            )
    except BytecodeVerificationError as exc:
        print(exc.report.format(), file=sys.stderr)
        return 1
    result = results[0]
    if result.trapped:
        print(f"trap: {result.trap}", file=sys.stderr)
        return 1
    print(f"result          : {result.value}")
    print(f"simulated cycles: {cycles:.0f}")
    print(f"compile time    : {report.total_compile_time * 1e3:.2f} ms")
    print(f"code size       : {report.total_code_size:.0f}")
    print(f"duplications    : {report.total_duplications}")
    if cached is not None:
        print("compiled from   : cache", file=sys.stderr)
    _emit_observability(args, tracer)
    _emit_cache_stats(args, cache)
    if vmprofile is not None and not _emit_vm_profile(vmprofile, cycles):
        return 1
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    source = _read_source(args.source)
    config = CONFIGURATIONS[args.config]
    program = _compile_located(args.source, source)
    tracer = _make_tracer(args)
    compiler = Compiler(
        config, tracer=tracer, check_ir=args.check_ir, fail_fast=args.fail_fast
    )
    try:
        report = compiler.compile_program(program)
    except PhaseBlameError as exc:
        print(exc.format_blame(), file=sys.stderr)
        return 1
    if _report_guard_failures(compiler.guard):
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
    _emit_observability(args, tracer)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Compile under a recording tracer; print the profile report."""
    source = _read_source(args.source)
    config = CONFIGURATIONS[args.config]
    program = _compile_located(args.source, source)
    tracer = Tracer()
    Compiler(config, tracer=tracer).compile_program(program)
    print(CompileProfile.from_tracer(tracer).format(top=args.top))
    if args.decisions:
        from .dbds.explain import format_decision_events

        print()
        print("DBDS decisions:")
        print(format_decision_events(tracer.events))
    if args.out is not None:
        records = write_jsonl(tracer, args.out)
        print(f"trace: {records} records -> {args.out}", file=sys.stderr)
    return 0


def _collect_sources(paths: list[pathlib.Path]) -> list[pathlib.Path]:
    """Expand files/directories into the list of .mini sources."""
    files: list[pathlib.Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.mini")))
        else:
            files.append(path)
    return files


def _check_one_file(
    path: pathlib.Path,
    args: argparse.Namespace,
    config,
    tracer: Tracer | None,
    cache: ArtifactCache | None = None,
) -> int:
    """Run every requested sanitizer over one source file; returns the
    number of failures found (0 = clean)."""
    failures = 0
    source = _read_source(path)
    key = None
    if cache is not None:
        key = cache_key(
            source, config, entry=args.entry,
            profile_args=[args.args], check_ir=args.check_ir,
        )
        cached = cache.get(key, tracer)
        if cached is not None:
            # Entries are only written for clean checked compiles, so a
            # hit skips the pipeline (and its guards) entirely; the
            # whole-program sweeps below still run on the rehydrated IR
            # (and, for --verify-bytecode, the rehydrated bytecode).
            program = cached.program()
            return _check_program_sweeps(
                path, args, program, bytecode=cached.bytecode()
            )
    compile_tracer = tracer if tracer is not None else (
        Tracer() if cache is not None else None
    )
    try:
        program, report, guard = _jit_compile(
            _compile_entry(path, source, args.entry, args.args),
            args.entry, [args.args], config, compile_tracer,
            args.check_ir, args.fail_fast,
        )
    except PhaseBlameError as exc:
        print(f"{path}:", file=sys.stderr)
        print(exc.format_blame(), file=sys.stderr)
        return 1
    failures += _report_guard_failures(guard)
    bytecode = None
    if cache is not None and failures == 0:
        try:
            bytecode = translate_program(program, check_bc=args.check_bc)
        except BytecodeVerificationError as exc:
            print(f"{path}:", file=sys.stderr)
            print(exc.report.format(), file=sys.stderr)
            return failures + len(exc.report.errors())
        cache.put(
            make_entry(
                key, program, report,
                events=compile_tracer.events,
                counters=compile_tracer.counters,
                bytecode=bytecode,
            ),
            tracer,
        )
    return failures + _check_program_sweeps(
        path, args, program, bytecode=bytecode
    )


def _check_program_sweeps(
    path: pathlib.Path, args: argparse.Namespace, program, bytecode=None
) -> int:
    """The post-compile sweeps: registered IR checkers plus optional
    LIR and dynamic-stamp validation; returns the failure count."""
    from .analysis import check_stamp_dynamic, run_lir_checkers, run_program_checkers

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
        # checking doubles as a VM spot-check under --engine=vm (the
        # closure engine falls back to the machine loops when observed,
        # so one VirtualMachine serves both bytecode engines here).
        if getattr(args, "engine", "reference") != "reference":
            from .vm.machine import VirtualMachine

            runner = VirtualMachine(translate_program(program), observer=observe)
        else:
            runner = Interpreter(program, observer=observe)
        runner.run(args.entry, list(args.args))
        for message in problems:
            print(f"{path}: dynamic-stamp: {message}", file=sys.stderr)
            failures += 1

    if getattr(args, "diff_engines", False):
        from .analysis import validate_engines

        result = validate_engines(
            _read_source(path), args.entry, [args.args],
            config=CONFIGURATIONS[args.config],
        )
        for record in result.divergences:
            print(f"{path}: engine-diff: {record.format()}", file=sys.stderr)
            failures += 1

    if getattr(args, "verify_bytecode", False):
        from .analysis.bcverify import verify_bytecode

        if bytecode is None:
            bytecode = translate_program(program)
        # The full profile: every checker including the codegen lint
        # and a quickened clone of each function, keep-going.
        report = verify_bytecode(bytecode, program, quicken=True)
        for violation in report.errors():
            print(f"{path}: {violation.format()}", file=sys.stderr)
            failures += 1
        if not hasattr(args, "_bc_reports"):
            args._bc_reports = []
        args._bc_reports.append({"file": str(path), **report.to_json()})
    return failures


@_with_metrics
def cmd_check(args: argparse.Namespace) -> int:
    """Checked compiles plus optional LIR/dynamic/fuzz validation."""
    config = CONFIGURATIONS[args.config]
    tracer = _make_tracer(args)
    cache = _make_cache(args)
    files = _collect_sources(args.paths or [pathlib.Path("examples")])
    failures = 0
    for path in files:
        failures += _check_one_file(path, args, config, tracer, cache)

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

    corruption_json = None
    if args.fuzz_corruption:
        from .analysis.bcverify import corruption_campaign

        report = corruption_campaign(
            seed=args.seed, corruptions=args.fuzz_corruption, config=config
        )
        print(report.format())
        failures += report.total - report.rejected
        corruption_json = report.to_json()

    if args.bc_report:
        payload = {
            "files": getattr(args, "_bc_reports", []),
            "corruption": corruption_json,
        }
        args.bc_report.write_text(json.dumps(payload, indent=2) + "\n")

    _emit_observability(args, tracer)
    _emit_cache_stats(args, cache)
    status = "ok" if failures == 0 else f"{failures} failure(s)"
    print(f"check: {len(files)} file(s), mode {args.check_ir}: {status}")
    return 1 if failures else 0


@_with_metrics
def cmd_batch(args: argparse.Namespace) -> int:
    """Parallel batch compilation with the persistent artifact cache."""
    config = CONFIGURATIONS[args.config]
    tracer = _make_tracer(args)
    cache = _make_cache(args)
    files = _collect_sources(args.paths or [pathlib.Path("examples")])
    if not files:
        print("batch: no .mini sources found", file=sys.stderr)
        return 1
    from .pipeline.batch import BatchOptions, compile_batch

    options = BatchOptions(
        config=config,
        jobs=args.jobs,
        entry=args.entry,
        args=tuple(args.args),
        check_ir=args.check_ir,
        check_bc=args.check_bc,
        fail_fast=args.fail_fast,
        cache=cache,
    )
    report = compile_batch(files, options, tracer=tracer)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.format())
    if args.profile_compile:
        print(report.profile().format())
    if tracer is not None and args.trace_out is not None:
        records = write_jsonl(tracer.events + report.events(), args.trace_out)
        print(f"trace: {records} records -> {args.trace_out}", file=sys.stderr)
    _emit_cache_stats(args, cache)
    return 0 if report.ok else 1


@_with_metrics
def cmd_bench(args: argparse.Namespace) -> int:
    profile = ALL_SUITES[args.suite]
    # Trajectory entries record per-phase compile seconds, so trajectory
    # runs need phase profiling on even without --profile-compile.
    profile_phases = (
        args.profile_compile
        or args.trace_out is not None
        or args.append_trajectory is not None
        or args.check_regression is not None
    )
    cache = _make_cache(args)
    report = run_suite(
        profile, seed=args.seed, profile_phases=profile_phases, cache=cache,
        engine=args.engine,
    )
    print(format_suite_report(report))
    if args.trace_out is not None:
        args.trace_out.write_text(json.dumps(suite_report_json(report), indent=2))
        print(f"suite report -> {args.trace_out}", file=sys.stderr)
    comparison = None
    if args.engine_report is not None or args.engine_report_txt is not None:
        from .bench.engines import compare_engines

        comparison = compare_engines(profile, seed=args.seed, cache=cache)
        print(comparison.format())
        if args.engine_report is not None:
            args.engine_report.write_text(
                json.dumps(comparison.to_json(), indent=2)
            )
            print(f"engine report -> {args.engine_report}", file=sys.stderr)
        if args.engine_report_txt is not None:
            args.engine_report_txt.parent.mkdir(parents=True, exist_ok=True)
            args.engine_report_txt.write_text(comparison.format() + "\n")
            print(
                f"engine report (text) -> {args.engine_report_txt}",
                file=sys.stderr,
            )
        if not comparison.all_match:
            return 1
    if args.profile_run:
        code = _bench_profile_run(args, profile)
        if code:
            return code
    if args.append_trajectory is not None or args.check_regression is not None:
        code = _bench_trajectory(args, report, comparison)
        if code:
            return code
    _emit_cache_stats(args, cache)
    return 0


def _bench_profile_run(args: argparse.Namespace, profile) -> int:
    """Aggregate a VM execution profile across the suite's measured runs
    (compiled fresh under the DBDS configuration)."""
    from .bench.workloads.suites import generate_suite
    from .pipeline.compiler import compile_and_profile
    from .vm.profiler import VMProfile, profile_run

    vmprofile = VMProfile()
    total = 0.0
    for workload in generate_suite(profile, args.seed):
        program, _ = compile_and_profile(
            workload.source, workload.entry, workload.profile_args,
            CONFIGURATIONS["dbds"],
        )
        cycles, _, _ = profile_run(
            program, entry=workload.entry,
            arg_sets=[tuple(a) for a in workload.measure_args],
            vmprofile=vmprofile,
        )
        total += cycles
    print()
    print(f"=== VM execution profile: {profile.suite} suite, dbds config ===")
    return 0 if _emit_vm_profile(vmprofile, total) else 1


def _bench_trajectory(args: argparse.Namespace, report, comparison) -> int:
    """Gate against, then append to, the committed perf trajectory.

    The regression check runs *before* the append so a failing run never
    pollutes the history it is being judged against."""
    from .bench.trajectory import (
        append_trajectory,
        check_regression,
        load_trajectory,
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
    if args.check_regression is not None:
        trajectory = load_trajectory(args.check_regression)
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
        trajectory = append_trajectory(args.append_trajectory, entry)
        print(
            f"trajectory: {len(trajectory['entries'])} entries "
            f"-> {args.append_trajectory}",
            file=sys.stderr,
        )
    return 0


@_with_metrics
def cmd_profile(args: argparse.Namespace) -> int:
    """JIT-compile, execute under the profiling VM, print hot paths."""
    from .vm.profiler import profile_run

    source = _read_source(args.source)
    config = CONFIGURATIONS[args.config]
    try:
        program, report, guard = _jit_compile(
            _compile_entry(args.source, source, args.entry, args.args),
            args.entry, [args.args], config, None,
            args.check_ir, args.fail_fast,
        )
    except PhaseBlameError as exc:
        print(exc.format_blame(), file=sys.stderr)
        return 1
    if _report_guard_failures(guard):
        return 1
    cycles, results, vmprofile = profile_run(
        program, entry=args.entry, arg_sets=[tuple(args.args)]
    )
    result = results[0]
    if result.trapped:
        print(f"trap: {result.trap}", file=sys.stderr)
        return 1
    print(f"result          : {result.value}")
    print(f"simulated cycles: {cycles:.0f}")
    print(f"compile time    : {report.total_compile_time * 1e3:.2f} ms")
    ok = _emit_vm_profile(vmprofile, cycles, top=args.top)
    if args.collapsed is not None:
        args.collapsed.write_text(vmprofile.collapsed())
        print(f"collapsed stacks -> {args.collapsed}", file=sys.stderr)
    if args.json is not None:
        args.json.write_text(
            json.dumps(vmprofile.to_json(), indent=2, sort_keys=True) + "\n"
        )
        print(f"profile json -> {args.json}", file=sys.stderr)
    return 0 if ok else 1


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .bench.report import render_markdown, run_evaluation

    result = run_evaluation(suites=args.suites, seed=args.seed)
    markdown = render_markdown(result)
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

    source = _read_source(args.source)
    if args.profile_args is not None:
        program = _compile_entry(
            args.source, source, args.entry, args.profile_args,
            "--profile-args",
        )
        collector = profile_program(program, args.entry, [args.profile_args])
        apply_profile(program, collector)
    else:
        program = _compile_located(args.source, source)
    names = [args.function] if args.function else list(program.functions)
    for name in names:
        graph = _require_function(args.source, program, name, "to explain")
        InliningPhase(program).run(graph)
        CanonicalizerPhase().run(graph)
        print(explain_graph(graph, program))
        print()
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    from .bench.workloads.suites import generate_workload

    profile = ALL_SUITES[args.suite]
    name = args.name or profile.benchmark_names[0]
    if name not in profile.benchmark_names:
        print(
            f"unknown benchmark {name!r}; choose from "
            f"{', '.join(profile.benchmark_names)}",
            file=sys.stderr,
        )
        return 1
    workload = generate_workload(profile, name, args.seed)
    print(workload.source)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="DBDS reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="JIT-compile and execute")
    _add_common(run_parser)
    _add_engine_flag(run_parser, default="megaunit")
    _add_observability(run_parser)
    _add_metrics_flags(run_parser)
    _add_check_flags(run_parser)
    _add_cache_flags(run_parser)
    run_parser.add_argument(
        "--profile-run",
        action="store_true",
        help="execute under the profiling VM and print hot-path tables "
        "(implies the VM engine; see docs/OBSERVABILITY.md)",
    )
    run_parser.set_defaults(func=cmd_run)

    profile_parser = sub.add_parser(
        "profile", help="execute under the profiling VM, print hot paths"
    )
    _add_common(profile_parser)
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
    batch_parser.add_argument("--entry", default="main", help="entry function")
    batch_parser.add_argument(
        "--args",
        nargs="*",
        type=int,
        default=[10],
        help="integer arguments for the profiling run",
    )
    batch_parser.add_argument(
        "--config",
        default="dbds",
        choices=sorted(CONFIGURATIONS),
        help="compiler configuration",
    )
    batch_parser.add_argument(
        "--json", action="store_true", help="print the batch report as JSON"
    )
    _add_check_flags(batch_parser)
    _add_cache_flags(batch_parser, default_dir=DEFAULT_CACHE_DIR)
    _add_observability(batch_parser)
    _add_metrics_flags(batch_parser)
    batch_parser.set_defaults(func=cmd_batch)

    compile_parser = sub.add_parser("compile", help="compile and show metrics")
    _add_common(compile_parser)
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
    trace_parser.add_argument(
        "--config",
        default="dbds",
        choices=sorted(CONFIGURATIONS),
        help="compiler configuration",
    )
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
    check_parser.add_argument("--entry", default="main", help="entry function")
    check_parser.add_argument(
        "--args",
        nargs="*",
        type=int,
        default=[10],
        help="integer arguments for profiling and dynamic runs",
    )
    check_parser.add_argument(
        "--config",
        default="dbds",
        choices=sorted(CONFIGURATIONS),
        help="compiler configuration",
    )
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
        "translation, including quickened streams and the closure "
        "codegen lint (see docs/ANALYSIS.md)",
    )
    check_parser.add_argument(
        "--fuzz-corruption",
        type=int,
        default=0,
        metavar="N",
        help="corrupt cached bytecode artifacts N times (seeded) and "
        "demand every mutation is rejected at load",
    )
    check_parser.add_argument(
        "--bc-report",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="write the bytecode-verifier + corruption-campaign report "
        "as JSON",
    )
    _add_observability(check_parser)
    _add_metrics_flags(check_parser)
    _add_cache_flags(check_parser)
    check_parser.set_defaults(func=cmd_check)

    bench_parser = sub.add_parser("bench", help="run one evaluation suite")
    bench_parser.add_argument("--suite", default="micro", choices=sorted(ALL_SUITES))
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
        choices=sorted(ALL_SUITES),
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
        type=int,
        default=None,
        help="profile with these entry args before explaining",
    )
    explain_parser.add_argument("--entry", default="main")
    explain_parser.set_defaults(func=cmd_explain)

    workload_parser = sub.add_parser(
        "workload", help="print a generated benchmark's MiniLang source"
    )
    workload_parser.add_argument("--suite", default="micro", choices=sorted(ALL_SUITES))
    workload_parser.add_argument("--name", default=None, help="benchmark name")
    workload_parser.add_argument("--seed", type=int, default=0)
    workload_parser.set_defaults(func=cmd_workload)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UserError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
