"""Static bytecode verifier over VM instruction streams.

JVM-style load-time verification for the register VM: before a
translated program — especially one rehydrated from an untrusted cache
artifact — reaches a dispatch loop, this package proves it well-formed
with purely static means.  Four layers:

* **CFG recovery + dataflow** (:mod:`.cfg`, :mod:`.dataflow`) — block
  structure decoded through the :mod:`repro.vm.opspec` registry, a
  forward/backward worklist engine over a small lattice API, and
  must-defined / liveness / constant-propagation analyses.
* **Structural checks** (:mod:`.checks`) — tuple layouts, operand
  ranges, branch targets, register def-before-use.
* **Retranslation equivalence** — optionally the whole function
  matches a deterministic fresh translation of the program.
* **Codegen lint** (:mod:`.lint`) — the megaunit engine's
  exec-generated source (each function's body, and the whole counted
  module) is checked for banned names, leaked globals, balanced
  accounting and direct-call targets against the program's function
  table, without being executed.

Entry points: :func:`verify_bytecode` (full verification of a
:class:`~repro.vm.bytecode.BytecodeProgram`), :func:`verify_artifact`
(the cache-load profile: retranslate + compare, no codegen lint), and
:func:`run_bc_checkers` for one function.  CLI: ``--check-bc`` and
``repro check --verify-bytecode``; see docs/ANALYSIS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from ...obs.metrics import current_registry
from ..core import BytecodeVerificationError, CheckReport, Severity, Violation
from .cfg import (
    BCBlock,
    BytecodeCFG,
    DecodeError,
    build_cfg,
    instruction_events,
    spec_of,
)
from .checks import BcCheckerContext, run_bc_checkers
from .corrupt import CorruptionRecord, CorruptionReport, corruption_campaign
from .dataflow import (
    ConstProp,
    DataflowResult,
    Liveness,
    MustDefined,
    solve,
    solve_backward,
    solve_forward,
)
from .lint import BANNED_NAMES, lint_megaunit_function, lint_megaunit_source

#: ``--check-bc`` modes: "load" verifies cache-loaded artifacts only,
#: "rewrite" additionally verifies every freshly translated stream.
CHECK_BC_MODES = ("off", "load", "rewrite")


@dataclass
class BcVerifyReport:
    """Outcome of one whole-program verification."""

    reports: list[CheckReport] = field(default_factory=list)
    #: program-level violations (e.g. globals_init mismatch)
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


def verify_bytecode(
    bytecode,
    program=None,
    *,
    retranslate: Optional[bool] = None,
    lint: bool = True,
    checkers: Optional[Iterable[str]] = None,
    disable: Sequence[str] = (),
    fail_fast: bool = False,
) -> BcVerifyReport:
    """Statically verify every function of a translated program.

    With ``program`` and ``retranslate`` (the default when a program is
    supplied), the program is re-translated — translation is
    deterministic — and every function is compared against the fresh
    result, including the flattened ``globals_init``; this assumes the
    default cost model, which is what every pipeline translation uses.
    """
    start = time.perf_counter()
    if retranslate is None:
        retranslate = program is not None
    result = BcVerifyReport()
    disable = tuple(disable)
    if not lint:
        disable = disable + ("bc-codegen-lint",)

    fresh = None
    if retranslate and program is not None:
        from ...vm.translate import translate_program

        fresh = translate_program(program)
        if tuple(bytecode.globals_init) != tuple(fresh.globals_init):
            result.violations.append(
                Violation(
                    checker="bc-retranslate",
                    severity=Severity.ERROR,
                    graph="<program>",
                    message=(
                        "globals_init differs from a fresh translation"
                    ),
                )
            )
        fresh_names = set(fresh.functions)
        mine_names = set(bytecode.functions)
        if fresh_names != mine_names:
            result.violations.append(
                Violation(
                    checker="bc-retranslate",
                    severity=Severity.ERROR,
                    graph="<program>",
                    message=(
                        f"function set {sorted(mine_names)} differs from "
                        f"a fresh translation {sorted(fresh_names)}"
                    ),
                )
            )

    for name, fn in bytecode.functions.items():
        fresh_fn = fresh.functions.get(name) if fresh is not None else None
        report = run_bc_checkers(
            fn,
            bytecode,
            fresh_fn=fresh_fn,
            checkers=checkers,
            disable=disable,
            fail_fast=fail_fast,
        )
        result.reports.append(report)
        if fail_fast and not report.ok:
            break

    # The per-function checker lints each function's body in the plain
    # megaunit module; the counted (profiling) module's counter slots
    # are numbered across the whole unit, so its lint is program-level
    # (skipped when per-function verification already failed — linting
    # source generated from a known-bad table proves nothing).
    if (
        "bc-codegen-lint" not in disable
        and (checkers is None or "bc-codegen-lint" in checkers)
        and result.ok
    ):
        for message in lint_megaunit_source(bytecode, counted=True):
            result.violations.append(
                Violation(
                    checker="bc-codegen-lint",
                    severity=Severity.ERROR,
                    graph="<megaunit counted>",
                    message=message,
                )
            )

    registry = current_registry()
    if registry.enabled:
        registry.inc(
            "repro_bcverify_runs_total",
            result="ok" if result.ok else "fail",
        )
        registry.observe(
            "repro_bcverify_seconds", time.perf_counter() - start
        )
    return result


def verify_artifact(program, bytecode) -> BcVerifyReport:
    """The cache-load profile: structural + dataflow +
    retranslation-equivalence checks over an untrusted artifact.

    The codegen lint is skipped: megaunit source is generated from the
    — now verified — bytecode, or served from the codegen cache under a
    key that digests that bytecode.
    """
    return verify_bytecode(bytecode, program, retranslate=True, lint=False)


__all__ = [
    "BANNED_NAMES",
    "BCBlock",
    "BcCheckerContext",
    "BcVerifyReport",
    "BytecodeCFG",
    "BytecodeVerificationError",
    "CHECK_BC_MODES",
    "ConstProp",
    "CorruptionRecord",
    "CorruptionReport",
    "DataflowResult",
    "DecodeError",
    "Liveness",
    "MustDefined",
    "build_cfg",
    "corruption_campaign",
    "instruction_events",
    "lint_megaunit_function",
    "lint_megaunit_source",
    "run_bc_checkers",
    "solve",
    "solve_backward",
    "solve_forward",
    "spec_of",
    "verify_artifact",
    "verify_bytecode",
]
