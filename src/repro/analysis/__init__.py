"""``repro.analysis`` — the pluggable static-analysis framework.

A decorator-registered checker registry over the IR, LIR and VM
bytecode (:mod:`~repro.analysis.core`, :mod:`~repro.analysis.checkers`,
:mod:`~repro.analysis.lir_checks`, :mod:`~repro.analysis.bcverify`),
per-phase invariant checking with phase-blame diagnostics
(:mod:`~repro.analysis.blame`, wired into ``Phase.run`` and the
``--check-ir`` pipeline modes), the differential oracle and its fuzz
loop (:mod:`~repro.analysis.validate`, behind ``repro check
--diff-engines`` and ``--fuzz``), and the static bytecode verifier
with its dataflow framework (``repro check --verify-bytecode``).  See
``docs/ANALYSIS.md``.

Typical use::

    from repro.analysis import run_checkers

    report = run_checkers(graph)          # keep-going: all violations
    for violation in report.errors():
        print(violation.format())

    from repro.analysis import PhaseGuard, use_guard

    with use_guard(PhaseGuard("each-phase")):
        DbdsPhase(program, config).run(graph)   # raises PhaseBlameError
"""

from .._lazy import lazy_exports

# Names resolve on first use, so ``import repro.analysis`` (or any one
# submodule) does not load the bytecode verifier, the fuzzers or the
# LIR checkers.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".core": (
        "CheckReport",
        "Checker",
        "CheckerContext",
        "Severity",
        "Violation",
        "all_checkers",
        "checker",
        "get_checker",
        "run_checkers",
        "run_program_checkers",
    ),
    ".checkers": (
        "CORE_CHECKERS",
        "StampCheckingInterpreter",
        "check_stamp_dynamic",
        "stamp_admits",
    ),
    ".lir_checks": ("LirCheckerContext", "run_lir_checkers"),
    ".blame": (
        "CHECK_BOUNDARIES",
        "CHECK_EACH_PHASE",
        "CHECK_MODES",
        "CHECK_OFF",
        "PhaseBlameError",
        "PhaseGuard",
        "current_guard",
        "use_guard",
    ),
    ".validate": ("FuzzReport", "differential", "fuzz"),
    ".progen": (
        "MUTATION_KINDS",
        "MutatedProgram",
        "ProgramGenerator",
        "SourceMutator",
        "mutated_program",
        "random_program",
    ),
    ".bcverify": (
        "BcVerifyReport",
        "run_bc_checkers",
        "verify_bytecode",
    ),
})

__all__ = [
    "CHECK_BOUNDARIES",
    "CHECK_EACH_PHASE",
    "CHECK_MODES",
    "CHECK_OFF",
    "CORE_CHECKERS",
    "BcVerifyReport",
    "CheckReport",
    "Checker",
    "CheckerContext",
    "FuzzReport",
    "LirCheckerContext",
    "MUTATION_KINDS",
    "MutatedProgram",
    "PhaseBlameError",
    "PhaseGuard",
    "ProgramGenerator",
    "Severity",
    "StampCheckingInterpreter",
    "SourceMutator",
    "Violation",
    "all_checkers",
    "check_stamp_dynamic",
    "checker",
    "current_guard",
    "differential",
    "fuzz",
    "get_checker",
    "mutated_program",
    "random_program",
    "run_bc_checkers",
    "run_checkers",
    "run_lir_checkers",
    "run_program_checkers",
    "stamp_admits",
    "use_guard",
    "verify_bytecode",
]
