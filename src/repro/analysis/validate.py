"""Translation validation: differential execution across configurations.

The strongest correctness signal available for a duplication-based
optimizer: compile the same source twice (DBDS off / DBDS on), run
both through the reference interpreter on concrete inputs, and demand
identical observable outcomes (return value or trap, plus the global
state).  :func:`fuzz_translation` drives this with generated programs
from :mod:`repro.analysis.progen`, which is how the ``repro check
--fuzz`` verb and the CI fuzz job catch miscompiles that no static
invariant can see.

Pipeline imports are deferred into the functions: this module is part
of :mod:`repro.analysis`, which the optimization framework itself
imports for phase guarding.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from .progen import mutated_program, random_program

#: entry argument values used when the caller does not supply arg sets
DEFAULT_ARG_VALUES = (0, 1, 2, 3, 7)

#: interpreter step budget used to screen mutants before differential
#: runs (a flipped branch can change how much work a program does)
SCREEN_STEP_BUDGET = 500_000


@dataclass(frozen=True)
class DivergenceRecord:
    """One input on which two configurations disagreed."""

    entry: str
    args: tuple
    config_a: str
    config_b: str
    outcome_a: tuple
    outcome_b: tuple
    #: generator seed when the program came from the fuzzer
    seed: Optional[int] = None

    def format(self) -> str:
        where = f"{self.entry}({', '.join(map(repr, self.args))})"
        source = f" [seed {self.seed}]" if self.seed is not None else ""
        return (
            f"{where}{source}: {self.config_a} -> {self.outcome_a!r} but "
            f"{self.config_b} -> {self.outcome_b!r}"
        )


@dataclass
class ValidationResult:
    """Outcome of validating one program across configurations."""

    entry: str
    configs: list[str] = field(default_factory=list)
    runs: int = 0
    divergences: list[DivergenceRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _outcomes(program, entry: str, arg_sets: list[list[Any]]) -> list[tuple]:
    from ..interp.interpreter import Interpreter, observable_outcome

    interpreter = Interpreter(program)
    results = []
    for args in arg_sets:
        interpreter.reset()
        result = interpreter.run(entry, list(args))
        results.append(observable_outcome(result, interpreter.state))
    return results


def validate_translation(
    source: str,
    entry: str = "main",
    arg_sets: Optional[Iterable[Sequence[Any]]] = None,
    configs: Optional[Sequence] = None,
    seed: Optional[int] = None,
) -> ValidationResult:
    """Compile ``source`` under each configuration and compare runs.

    The first configuration is the reference (defaults: baseline vs.
    DBDS); every other configuration's observable outcomes must match
    it on every argument set.
    """
    from ..pipeline.compiler import compile_and_profile
    from ..pipeline.config import BASELINE, DBDS

    if configs is None:
        configs = (BASELINE, DBDS)
    sets = [list(args) for args in (arg_sets or [[v] for v in DEFAULT_ARG_VALUES])]
    result = ValidationResult(entry=entry, configs=[c.name for c in configs])

    per_config: list[tuple[str, list[tuple]]] = []
    for config in configs:
        program, _ = compile_and_profile(source, entry, sets, config)
        per_config.append((config.name, _outcomes(program, entry, sets)))
        result.runs += len(sets)

    reference_name, reference = per_config[0]
    for name, outcomes in per_config[1:]:
        for args, expected, actual in zip(sets, reference, outcomes):
            if actual != expected:
                result.divergences.append(
                    DivergenceRecord(
                        entry=entry,
                        args=tuple(args),
                        config_a=reference_name,
                        config_b=name,
                        outcome_a=expected,
                        outcome_b=actual,
                        seed=seed,
                    )
                )
    return result


@dataclass
class FuzzReport:
    """Aggregate of one translation-validation fuzz session."""

    programs: int = 0
    runs: int = 0
    elapsed: float = 0.0
    divergences: list[DivergenceRecord] = field(default_factory=list)
    #: seeds whose compilation itself crashed, with the error text
    compile_failures: list[tuple[int, str]] = field(default_factory=list)
    #: mutants screened out (step-budget / recursion blowups), not failures
    skipped: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.compile_failures

    def format(self) -> str:
        status = "ok" if self.ok else "FAILED"
        skipped = f", {self.skipped} skipped" if self.skipped else ""
        lines = [
            f"translation validation: {status} — {self.programs} programs, "
            f"{self.runs} runs in {self.elapsed:.1f}s{skipped}"
        ]
        for seed, message in self.compile_failures:
            lines.append(f"  seed {seed}: compile error: {message}")
        for record in self.divergences:
            lines.append(f"  {record.format()}")
        return "\n".join(lines)


def fuzz_translation(
    seed: int = 0,
    programs: int = 20,
    time_budget: Optional[float] = None,
    configs: Optional[Sequence] = None,
    arg_values: Sequence[int] = DEFAULT_ARG_VALUES,
) -> FuzzReport:
    """Validate ``programs`` generated programs starting at ``seed``.

    A ``time_budget`` (seconds) bounds the session for CI: generation
    stops early once the budget is spent, however many programs ran.
    """
    report = FuzzReport()
    start = time.perf_counter()
    arg_sets = [[value] for value in arg_values]
    for index in range(programs):
        if time_budget is not None and time.perf_counter() - start > time_budget:
            break
        program_seed = seed + index
        source = random_program(program_seed)
        try:
            result = validate_translation(
                source, "main", arg_sets, configs, seed=program_seed
            )
        except Exception as exc:  # compile crash: also a fuzz finding
            report.compile_failures.append(
                (program_seed, f"{type(exc).__name__}: {exc}")
            )
            report.programs += 1
            continue
        report.programs += 1
        report.runs += result.runs
        report.divergences.extend(result.divergences)
    report.elapsed = time.perf_counter() - start
    return report


# ----------------------------------------------------------------------
# Engine differential mode: the full execution-engine cross-product
# ----------------------------------------------------------------------
def validate_engines(
    source: str,
    entry: str = "main",
    arg_sets: Optional[Iterable[Sequence[Any]]] = None,
    config: Optional[Any] = None,
    seed: Optional[int] = None,
    engines: Optional[Sequence[str]] = None,
) -> ValidationResult:
    """Compile once, execute on every engine, demand exact agreement.

    Where :func:`validate_translation` compares two *compilations* on
    one engine, this compares all *engines* on one compilation — the
    check that the ``vm`` loop and the megaunit engine are faithful
    implementations of the reference semantics.  Agreement is stricter than observable
    outcome: step counts and metered cycles must match too, since the
    VM engines advertise step/cycle parity.  Every engine is compared
    against the reference, which by transitivity covers every engine
    pair.  ``engines`` defaults to the full matrix, ``reference``,
    ``vm`` and ``megaunit``.
    """
    from ..interp.interpreter import observable_outcome
    from ..pipeline.front import ENGINES, jit, make_engine
    from ..pipeline.config import DBDS

    if config is None:
        config = DBDS
    if engines is None:
        engines = ENGINES
    sets = [list(args) for args in (arg_sets or [[v] for v in DEFAULT_ARG_VALUES])]
    result = ValidationResult(entry=entry, configs=list(engines))
    artifact = jit(source, entry, sets, config)
    runners = [
        (name, make_engine(name, artifact.program, bytecode=artifact.bytecode()))
        for name in engines
    ]

    def outcome(runner, args) -> tuple:
        runner.reset()
        run = runner.run(entry, list(args))
        result.runs += 1
        return (observable_outcome(run, runner.state), run.steps, run.cycles)

    reference_name, reference = runners[0]
    for args in sets:
        expected = outcome(reference, args)
        for name, runner in runners[1:]:
            actual = outcome(runner, args)
            if actual != expected:
                result.divergences.append(
                    DivergenceRecord(
                        entry=entry,
                        args=tuple(args),
                        config_a=reference_name,
                        config_b=name,
                        outcome_a=expected,
                        outcome_b=actual,
                        seed=seed,
                    )
                )
    return result


def fuzz_engines(
    seed: int = 0,
    programs: int = 20,
    time_budget: Optional[float] = None,
    config: Optional[Any] = None,
    corpus: Optional[Sequence[str]] = None,
    arg_values: Sequence[int] = DEFAULT_ARG_VALUES,
    mutations: int = 2,
    screen_steps: int = SCREEN_STEP_BUDGET,
) -> FuzzReport:
    """Engine-validate ``programs`` mutants of real sources.

    The mutation machinery of :func:`fuzz_mutations` pointed at the
    engine oracle: every surviving mutant is compiled once and must
    behave identically on the reference interpreter and every VM
    engine (the ``vm`` loop and megaunit).
    """
    return _fuzz_mutants(
        functools.partial(validate_engines, config=config), seed, programs,
        time_budget, corpus, arg_values, mutations, screen_steps,
    )


# ----------------------------------------------------------------------
# Mutation-based fuzzing over real programs
# ----------------------------------------------------------------------
def _screen_mutant(
    source: str, entry: str, arg_sets: list[list[Any]], max_steps: int
) -> bool:
    """True when the unoptimized mutant terminates within the step
    budget on every argument set (traps count as terminating)."""
    from ..frontend.irbuilder import compile_source
    from ..interp.interpreter import BudgetExceeded, Interpreter

    program = compile_source(source)
    interpreter = Interpreter(program, max_steps=max_steps)
    for args in arg_sets:
        interpreter.reset()
        try:
            interpreter.run(entry, list(args))
        except (BudgetExceeded, RecursionError):
            return False
    return True


def fuzz_mutations(
    seed: int = 0,
    programs: int = 20,
    time_budget: Optional[float] = None,
    configs: Optional[Sequence] = None,
    corpus: Optional[Sequence[str]] = None,
    arg_values: Sequence[int] = DEFAULT_ARG_VALUES,
    mutations: int = 2,
    screen_steps: int = SCREEN_STEP_BUDGET,
) -> FuzzReport:
    """Translation-validate ``programs`` mutants of real sources.

    Template-extraction-style fuzzing: each seed picks a program from
    ``corpus`` (e.g. the ``examples/apps`` sources — ``repro check
    --fuzz-mutations`` passes the checked files) and applies up to
    ``mutations`` operators from :mod:`repro.analysis.progen` (swap
    constants, flip ``if`` comparisons, wrap loop bodies).  Without a
    corpus, generated programs are mutated instead.

    Mutants whose *unoptimized* run exceeds ``screen_steps``
    interpreter steps (a flipped guard can unbound recursion or
    inflate a workload) are counted as ``skipped``, not failures —
    differential comparison needs both sides to terminate.  A
    ``time_budget`` (seconds) bounds the session for CI.
    """
    return _fuzz_mutants(
        functools.partial(validate_translation, configs=configs), seed,
        programs, time_budget, corpus, arg_values, mutations, screen_steps,
    )


def _fuzz_mutants(
    oracle: Callable[..., ValidationResult],
    seed: int,
    programs: int,
    time_budget: Optional[float],
    corpus: Optional[Sequence[str]],
    arg_values: Sequence[int],
    mutations: int,
    screen_steps: int,
) -> FuzzReport:
    """The loop :func:`fuzz_mutations` and :func:`fuzz_engines` share:
    seed, mutate, screen, validate each survivor with ``oracle``,
    tally."""
    report = FuzzReport()
    start = time.perf_counter()
    corpus = list(corpus) if corpus else None
    arg_sets = [[value] for value in arg_values]
    for index in range(programs):
        if time_budget is not None and time.perf_counter() - start > time_budget:
            break
        mutant_seed = seed + index
        mutant = mutated_program(mutant_seed, corpus, mutations=mutations)
        label = f"{mutant.base}: {', '.join(mutant.applied) or 'unchanged'}"
        report.programs += 1
        try:
            if not _screen_mutant(mutant.source, "main", arg_sets, screen_steps):
                report.skipped += 1
                continue
            result = oracle(mutant.source, "main", arg_sets, seed=mutant_seed)
        except Exception as exc:  # compile/translate crash: a finding
            report.compile_failures.append(
                (mutant_seed, f"[{label}] {type(exc).__name__}: {exc}")
            )
            continue
        report.runs += result.runs
        report.divergences.extend(result.divergences)
    report.elapsed = time.perf_counter() - start
    return report
