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
  ranges, branch targets, handler coverage of the full specialized
  opcode space, padding reachability.
* **Conservation + equivalence** — fused superinstruction costs and
  step weights equal their unfused constituents; quickened forms are
  cost-identical to their generic origins; the fast stream decompiles
  field-by-field to the plain code stream; optionally the whole
  function matches a deterministic fresh translation of the program.
* **Codegen lint** (:mod:`.lint`) — the closure engine's exec-generated
  source and the megaunit engine's whole-program module (plain and
  counted) are checked for banned names, leaked globals, balanced
  accounting and (for the megaunit module) direct-call targets against
  the program's function table, without being executed.

Entry points: :func:`verify_bytecode` (full verification of a
:class:`~repro.vm.bytecode.BytecodeProgram`, optionally also of a
quickened clone of every function), :func:`verify_artifact` (the
cache-load profile: retranslate + compare, no codegen lint), and
:func:`run_bc_checkers` for one function.  CLI: ``--check-bc`` and
``repro check --verify-bytecode``; see docs/ANALYSIS.md.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from ...obs.metrics import current_registry
from ...vm.quicken import quicken_function
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
from .lint import BANNED_NAMES, lint_closure_source, lint_megaunit_source

#: ``--check-bc`` modes: "load" verifies cache-loaded artifacts only,
#: "rewrite" additionally verifies freshly built fused streams (and a
#: quickened clone) after every translation.
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


def _quickened_clone(fn):
    clone = copy.copy(fn)
    clone.xcode = list(fn.xcode)
    quicken_function(clone)
    return clone


def verify_bytecode(
    bytecode,
    program=None,
    *,
    retranslate: Optional[bool] = None,
    lint: bool = True,
    quicken: bool = False,
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
    With ``quicken``, a quickened *clone* of each fused function is
    additionally verified (the artifact itself is never mutated), so
    in-place quickening rewrites get the same checks as fusion ones.
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

        fresh = translate_program(program, fuse=False)
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
        if quicken and fn.xcode is not None and fn.blocks:
            qreport = run_bc_checkers(
                _quickened_clone(fn),
                bytecode,
                label=f"{name} [quickened]",
                checkers=checkers,
                disable=tuple(
                    set(disable) | {"bc-codegen-lint", "bc-retranslate"}
                ),
                fail_fast=fail_fast,
            )
            result.reports.append(qreport)
            if fail_fast and not qreport.ok:
                break

    # Whole-program codegen lint: the megaunit module and its counted
    # (profiling) variant are each one exec unit over the entire
    # function table, so their lint is program-level (skipped when
    # per-function verification already failed — linting source
    # generated from a known-bad table proves nothing).
    if (
        "bc-codegen-lint" not in disable
        and (checkers is None or "bc-codegen-lint" in checkers)
        and result.ok
    ):
        for counted in (False, True):
            graph = "<megaunit counted>" if counted else "<megaunit>"
            for message in lint_megaunit_source(bytecode, counted=counted):
                result.violations.append(
                    Violation(
                        checker="bc-codegen-lint",
                        severity=Severity.ERROR,
                        graph=graph,
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
    """The cache-load profile: structural + dataflow + conservation +
    retranslation-equivalence checks over an untrusted artifact.

    The codegen lint is skipped (closure source is generated fresh from
    the — now verified — bytecode, not loaded from the artifact), and
    quickening clones are not re-checked (cached streams are stored
    unquickened; ``--check-bc=rewrite`` covers live rewrites).
    """
    return verify_bytecode(
        bytecode, program, retranslate=True, lint=False, quicken=False
    )


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
    "lint_closure_source",
    "lint_megaunit_source",
    "run_bc_checkers",
    "solve",
    "solve_backward",
    "solve_forward",
    "spec_of",
    "verify_artifact",
    "verify_bytecode",
]
