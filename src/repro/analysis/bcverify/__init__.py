"""Static bytecode verifier over VM instruction streams.

JVM-style verification for the register VM: before a freshly
translated program reaches a dispatch loop, this package proves it
well-formed with purely static means.  The artifact cache stores no
bytecode — every verb translates the cached program afresh
(:meth:`~repro.pipeline.front.Artifact.bytecode`) — so ``repro check
--verify-bytecode`` verifies that translation, cold or warm, never a
stored one.  Three layers:

* **CFG recovery + dataflow** (:mod:`.cfg`, :mod:`.dataflow`) — block
  structure decoded through the :mod:`repro.vm.opspec` registry, a
  forward worklist engine over a small lattice API, and the
  must-defined analysis.
* **Structural checks** (:mod:`.checks`) — block spans, tuple layouts,
  operand ranges, branch targets, register def-before-use.
* **Codegen lint** (:mod:`.lint`) — the megaunit engine's
  exec-generated source (each function's body in the plain module
  that measured runs execute, and the whole counted module that
  profiling runs execute) is checked for banned names, leaked
  globals, balanced accounting and direct-call targets against the
  program's function table, without being executed.

Entry points: :func:`verify_bytecode` (full verification of a
:class:`~repro.vm.bytecode.BytecodeProgram`) and
:func:`run_bc_checkers` for one function.  CLI: ``repro check
--verify-bytecode``; see docs/ANALYSIS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ...obs.tracer import current_tracer
from ..core import CheckReport, Severity, Violation
from .cfg import (
    BCBlock,
    BytecodeCFG,
    DecodeError,
    build_cfg,
    instruction_events,
    spec_of,
)
from .checks import BcCheckerContext, run_bc_checkers
from .dataflow import DataflowResult, MustDefined, solve_forward
from .lint import BANNED_NAMES, lint_megaunit_function, lint_megaunit_source


@dataclass
class BcVerifyReport:
    """Outcome of one whole-program verification."""

    reports: list[CheckReport] = field(default_factory=list)
    #: program-level violations (the counted megaunit module's lint)
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors()

    def errors(self) -> list[Violation]:
        found = [
            v for v in self.violations if v.severity is Severity.ERROR
        ]
        for report in self.reports:
            found.extend(report.errors())
        return found

    def all_violations(self) -> list[Violation]:
        found = list(self.violations)
        for report in self.reports:
            found.extend(report.violations)
        return found

    def summary(self) -> str:
        errors = self.errors()
        if not errors:
            return f"bytecode verification ok ({len(self.reports)} stream(s))"
        return (
            f"bytecode verification failed: {len(errors)} error(s); "
            f"first: {errors[0].format()}"
        )

    def format(self) -> str:
        lines = [self.summary()]
        lines.extend(f"  {v.format()}" for v in self.all_violations())
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "errors": len(self.errors()),
            "violations": [
                {
                    "checker": v.checker,
                    "severity": v.severity.value,
                    "graph": v.graph,
                    "block": v.block,
                    "message": v.message,
                }
                for v in self.all_violations()
            ],
            "functions": [r.graph for r in self.reports],
        }


def verify_bytecode(bytecode) -> BcVerifyReport:
    """Statically verify every function of a translated program with
    every bytecode checker, keep-going; the ambient tracer records the
    run as one ``bcverify`` span carrying the verdict (``ok``)."""
    with current_tracer().span("bcverify") as span:
        result = BcVerifyReport()
        functions = list(bytecode.functions.values())
        for fn in functions:
            result.reports.append(
                run_bc_checkers(fn, bytecode, checkers=("bc-structure", "bc-defuse"))
            )

        # The codegen lint reads source generated from the whole
        # program's tables (the unit's meter width, the call targets),
        # so one malformed stream would fail every function's lint:
        # linting source generated from a known-bad table proves
        # nothing.  The per-function lint of each body in the plain
        # megaunit module, which measured runs execute, waits until
        # every function passed bc-structure; the lint of the counted
        # module (the text profiling runs execute, numbering its counter
        # slots across the whole unit) waits for a clean report.
        structured = not any(
            v.checker == "bc-structure" for v in result.errors()
        )
        if structured:
            for fn, report in zip(functions, result.reports):
                linted = run_bc_checkers(
                    fn, bytecode, checkers=("bc-codegen-lint",)
                )
                report.violations += linted.violations
                report.checkers_run += linted.checkers_run
        if result.ok:
            for message in lint_megaunit_source(bytecode, counted=True):
                result.violations.append(
                    Violation(
                        checker="bc-codegen-lint",
                        severity=Severity.ERROR,
                        graph="<megaunit counted>",
                        message=message,
                    )
                )
        span.attrs["ok"] = result.ok
    return result


__all__ = [
    "BANNED_NAMES",
    "BCBlock",
    "BcCheckerContext",
    "BcVerifyReport",
    "BytecodeCFG",
    "DataflowResult",
    "DecodeError",
    "MustDefined",
    "build_cfg",
    "instruction_events",
    "lint_megaunit_function",
    "lint_megaunit_source",
    "run_bc_checkers",
    "solve_forward",
    "spec_of",
    "verify_bytecode",
]
