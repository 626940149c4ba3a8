"""One oracle for ``repro check``, and the fuzz loop that feeds it.

A duplication-based optimizer can miscompile while leaving the IR
well-formed, so no static invariant sees it.  The differential matrix
does: :func:`differential` holds one compiled program to all of it on
concrete inputs.

* The baseline, compiled from the same profiling run, and the program
  run on the reference interpreter to equal observable outcomes
  (result or trap, plus the globals).
* The reference interpreter, the ``vm`` loop and megaunit run the
  program to equal outcomes, steps and cycles.
* The reference run is a
  :class:`~repro.analysis.checkers.StampCheckingInterpreter`: every
  value an instruction or phi produces lies inside its declared stamp.

:func:`fuzz` feeds it programs: seed ``s`` is a generated program
(:func:`~repro.analysis.progen.random_program`) when ``s`` is even and
a mutant of a checked source (template-extraction style,
:func:`~repro.analysis.progen.mutated_program`) when ``s`` is odd.
``repro check --fuzz`` gives each one the check it gives a file, with
the oracle on.

Pipeline imports are deferred into the functions: this module is part
of :mod:`repro.analysis`, which the optimization framework itself
imports for phase guarding.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from .progen import mutated_program, random_program

if TYPE_CHECKING:
    from ..pipeline.compiler import ProfiledSource
    from ..pipeline.front import Artifact

#: entry function and argument sets of every fuzzed program
FUZZ_ENTRY = "main"
FUZZ_ARGS = [[value] for value in (0, 1, 2, 3, 7)]

#: interpreter step budget a mutant's unoptimized run must finish in
#: (a flipped branch can change how much work a program does)
SCREEN_STEP_BUDGET = 500_000


def differential(artifact: "Artifact", profiled: "ProfiledSource") -> list[str]:
    """Hold ``artifact``, compiled from ``profiled``, to the
    differential matrix on each of ``profiled``'s argument sets; returns
    one line per disagreement (none: the program passed).

    The baseline compiles from ``profiled`` as well, so both compiles
    share one profiling run; a baseline ``artifact`` is its own
    baseline.
    """
    from ..interp.interpreter import Interpreter, observable_outcome
    from ..pipeline.config import BASELINE
    from ..pipeline.front import jit, make_engine
    from .checkers import StampCheckingInterpreter

    config, entry = artifact.report.config, profiled.entry
    baseline = Interpreter(
        artifact.program if config == BASELINE.name else jit(
            profiled.source, entry, profiled.profile_args, BASELINE,
            name=profiled.name, profiled=profiled,
        ).program
    )
    reference = StampCheckingInterpreter(artifact.program, metered=True)
    engines = [
        (name, make_engine(name, artifact.program, bytecode=artifact.bytecode()))
        for name in ("vm", "megaunit")
    ]

    def run(runner, args: list[Any]) -> tuple:
        runner.reset()
        result = runner.run(entry, list(args))
        return (
            observable_outcome(result, runner.state), result.steps, result.cycles
        )

    problems = []
    for args in profiled.profile_args:
        where = f"{entry}({', '.join(map(repr, args))})"
        expected = run(reference, args)
        outcome = run(baseline, args)[0]
        if outcome != expected[0]:
            problems.append(
                f"config-diff: {where}: baseline -> {outcome!r} but "
                f"{config} -> {expected[0]!r}"
            )
        for name, engine in engines:
            actual = run(engine, args)
            if actual != expected:
                problems.append(
                    f"engine-diff: {where}: reference -> {expected!r} but "
                    f"{name} -> {actual!r}"
                )
    problems.extend(f"dynamic-stamp: {message}" for message in reference.problems)
    return problems


@dataclass
class FuzzReport:
    """Tally of one :func:`fuzz` session."""

    programs: int = 0
    #: mutants the step-budget screen turned away, not failures
    skipped: int = 0
    #: failures the per-program check reported
    failures: int = 0
    #: (seed, label, error and where it was raised) of each program
    #: whose check raised
    crashes: list[tuple[int, str]] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures and not self.crashes

    def format(self) -> str:
        status = "ok" if self.ok else "FAILED"
        tallies = ((self.skipped, "skipped"), (self.failures, "failure(s)"))
        notes = "".join(f", {n} {what}" for n, what in tallies if n)
        lines = [
            f"fuzz: {status} — {self.programs} programs in "
            f"{self.elapsed:.1f}s{notes}"
        ]
        for seed, message in self.crashes:
            lines.append(f"  seed {seed}: crash: {message}")
        return "\n".join(lines)


def fuzz(
    check: Callable[[str, str], int],
    seed: int = 0,
    programs: int = 20,
    corpus: Sequence[str] = (),
    time_budget: Optional[float] = None,
    screen_steps: int = SCREEN_STEP_BUDGET,
) -> FuzzReport:
    """Check the programs of seeds ``seed`` to ``seed + programs - 1``.

    An even seed is a generated program, an odd one a mutant of
    ``corpus`` (of a generated program when ``corpus`` is empty).
    ``check(source, name)`` checks one program, entered at
    :data:`FUZZ_ENTRY` with each of :data:`FUZZ_ARGS`, and returns how
    many failures it reported.  A mutant whose unoptimized run does not
    finish within ``screen_steps`` interpreter steps on every argument
    set is skipped: the differential needs every run to finish.  An
    exception out of ``check`` (a compile crash) is a failure that
    carries the seed, the program's label and the innermost frame of
    its traceback (``file:line in function``).  A ``time_budget``
    (seconds) stops the loop early.
    """
    report = FuzzReport()
    start = time.perf_counter()
    for program_seed in range(seed, seed + programs):
        if time_budget is not None and time.perf_counter() - start > time_budget:
            break
        report.programs += 1
        mutant = program_seed % 2 == 1
        if mutant:
            mutated = mutated_program(program_seed, list(corpus))
            source = mutated.source
            label = f"{mutated.base}: {', '.join(mutated.applied) or 'unchanged'}"
        else:
            source, label = random_program(program_seed), "generated"
        try:
            if mutant and not _screen_mutant(
                source, FUZZ_ENTRY, FUZZ_ARGS, screen_steps
            ):
                report.skipped += 1
                continue
            report.failures += check(source, f"fuzz seed {program_seed} [{label}]")
        except Exception as exc:  # a crash: also a fuzz finding
            where = traceback.extract_tb(exc.__traceback__)[-1]
            report.crashes.append((
                program_seed,
                f"[{label}] {type(exc).__name__}: {exc} (at {where.filename}"
                f":{where.lineno} in {where.name})",
            ))
    report.elapsed = time.perf_counter() - start
    return report


def _screen_mutant(
    source: str, entry: str, arg_sets: list[list[Any]], max_steps: int
) -> bool:
    """True when the unoptimized mutant terminates within the step
    budget on every argument set (traps count as terminating)."""
    from ..frontend.irbuilder import compile_source
    from ..interp.interpreter import BudgetExceeded, Interpreter

    interpreter = Interpreter(compile_source(source), max_steps=max_steps)
    for args in arg_sets:
        interpreter.reset()
        try:
            interpreter.run(entry, list(args))
        except (BudgetExceeded, RecursionError):
            return False
    return True
