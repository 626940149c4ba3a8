"""Per-phase invariant checking with phase-blame diagnostics.

A :class:`PhaseGuard` snapshots the graph around every ``Phase.run()``
(hooked in :class:`repro.opts.base.Phase`) and runs the checker
registry afterwards.  When a phase breaks an invariant the guard
raises (or, in keep-going mode, collects) a :class:`PhaseBlameError`
that names the offending phase and checker and carries a unified diff
of the IR before and after the phase — the *phase-blame diagnostic*.

The guard is ambient, mirroring the tracer: instrumentation sites call
:func:`current_guard` instead of threading a guard argument through
every phase constructor, and :func:`use_guard` installs one for the
duration of a compilation.  Failures are also emitted through the
ambient tracer as structured ``analysis.violation`` / ``analysis.blame``
events, and the check time itself is recorded as an ``ir-check`` phase
span so ``--profile-compile`` shows analysis overhead.

The two errors a checked compile or translation raises to the CLI live
here, :class:`PhaseBlameError` and the bytecode verifier's
:class:`BytecodeVerificationError`, and this module loads the checker
framework only when a guard checks: catching them costs a warm run
nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from ..ir.graph import Graph
from ..obs.tracer import current_tracer

if TYPE_CHECKING:
    from .core import CheckReport

#: ``--check-ir`` modes
CHECK_OFF = "off"
CHECK_BOUNDARIES = "boundaries"
CHECK_EACH_PHASE = "each-phase"
CHECK_MODES = (CHECK_OFF, CHECK_BOUNDARIES, CHECK_EACH_PHASE)


class BytecodeVerificationError(Exception):
    """Raised by checked-mode pipelines when bytecode verification fails;
    ``report`` is the :class:`~repro.analysis.bcverify.BcVerifyReport`.
    Defined here, apart from the verifier, so that callers can catch it
    without loading the verifier."""

    def __init__(self, report) -> None:
        self.report = report
        super().__init__(report.summary())


class PhaseBlameError(Exception):
    """A phase left the IR in a state that violates an invariant."""

    def __init__(
        self,
        phase: str,
        graph: str,
        report: CheckReport,
        diff: str = "",
    ) -> None:
        self.phase = phase
        self.graph = graph
        self.report = report
        self.diff = diff
        super().__init__(self.format_blame())

    @property
    def checkers(self) -> list[str]:
        """Names of the checkers that fired, most violations first."""
        counts: dict[str, int] = {}
        for violation in self.report.errors():
            counts[violation.checker] = counts.get(violation.checker, 0) + 1
        return sorted(counts, key=lambda name: -counts[name])

    def format_blame(self, max_violations: int = 8) -> str:
        errors = self.report.errors()
        lines = [
            f"phase {self.phase!r} broke {len(errors)} IR invariant(s) "
            f"in {self.graph}:"
        ]
        for violation in errors[:max_violations]:
            lines.append(f"  {violation.format()}")
        if len(errors) > max_violations:
            lines.append(f"  ... and {len(errors) - max_violations} more")
        if self.diff:
            lines.append("IR before/after the blamed phase:")
            lines.append(self.diff)
        return "\n".join(lines)


def _excerpt_diff(
    before: Optional[str], after: str, max_lines: int
) -> str:
    """Unified diff of the IR around the blamed phase (or a plain
    excerpt at a boundary check, where there is no before-state)."""
    import difflib

    after_lines = after.splitlines()
    if before is None:
        shown = after_lines[:max_lines]
        if len(after_lines) > max_lines:
            shown.append(f"... ({len(after_lines) - max_lines} more lines)")
        return "\n".join("  " + line for line in shown)
    diff = list(
        difflib.unified_diff(
            before.splitlines(),
            after_lines,
            fromfile="before",
            tofile="after",
            lineterm="",
        )
    )
    if len(diff) > max_lines:
        diff = diff[:max_lines] + [f"... ({len(diff) - max_lines} more lines)"]
    return "\n".join("  " + line for line in diff)


class PhaseGuard:
    """Checks graph invariants around phases and assigns blame.

    ``fail_fast=True`` raises :class:`PhaseBlameError` at the first
    failing phase; ``fail_fast=False`` (keep-going) collects every
    failure in :attr:`failures` and lets compilation continue, so one
    CI run reports all violations.
    """

    def __init__(
        self,
        mode: str = CHECK_EACH_PHASE,
        *,
        program=None,
        fail_fast: bool = True,
        checkers: Optional[Iterable[str]] = None,
        disable: Sequence[str] = (),
        max_diff_lines: int = 40,
    ) -> None:
        if mode not in CHECK_MODES:
            raise ValueError(f"unknown check mode {mode!r} (choose from {CHECK_MODES})")
        self.mode = mode
        self.program = program
        self.fail_fast = fail_fast
        self.checkers = list(checkers) if checkers is not None else None
        self.disable = tuple(disable)
        self.max_diff_lines = max_diff_lines
        #: collected blame errors (keep-going mode; fail-fast raises)
        self.failures: list[PhaseBlameError] = []
        #: number of checked phase/boundary points
        self.checks = 0

    # ------------------------------------------------------------------
    @property
    def per_phase(self) -> bool:
        """Whether every ``Phase.run()`` is bracketed with checks."""
        return self.mode == CHECK_EACH_PHASE

    def before_phase(self, phase: str, graph: Graph) -> Optional[str]:
        """Snapshot hook called before a phase runs; returns the
        snapshot token to pass back to :meth:`after_phase`."""
        if not self.per_phase:
            return None
        return graph.describe()

    def after_phase(
        self, phase: str, graph: Graph, before: Optional[str]
    ) -> None:
        """Check hook called after a phase ran."""
        if self.per_phase:
            self._check(phase, graph, before)

    def check_boundary(self, label: str, graph: Graph) -> None:
        """Explicit check at a pipeline boundary (both non-off modes)."""
        if self.mode != CHECK_OFF:
            self._check(label, graph, None)

    # ------------------------------------------------------------------
    def _check(self, phase: str, graph: Graph, before: Optional[str]) -> None:
        from .core import run_checkers

        tracer = current_tracer()
        self.checks += 1
        # The check itself appears as its own pipeline phase so compile
        # profiles attribute analysis overhead explicitly.
        with tracer.span("phase", phase="ir-check", graph=graph.name):
            report = run_checkers(
                graph,
                self.program,
                checkers=self.checkers,
                disable=self.disable,
                fail_fast=False,
            )
        if report.ok:
            return
        diff = _excerpt_diff(before, graph.describe(), self.max_diff_lines)
        error = PhaseBlameError(phase, graph.name, report, diff)
        for violation in report.errors():
            tracer.event(
                "analysis.violation",
                phase=phase,
                graph=graph.name,
                checker=violation.checker,
                severity=violation.severity.value,
                block=violation.block,
                message=violation.message,
            )
        tracer.event(
            "analysis.blame",
            phase=phase,
            graph=graph.name,
            checkers=error.checkers,
            violations=len(report.errors()),
        )
        tracer.count("analysis.blame")
        self.failures.append(error)
        if self.fail_fast:
            raise error


# ----------------------------------------------------------------------
# Ambient guard, mirroring repro.obs.tracer's ambient tracer.
# ----------------------------------------------------------------------
_current_guard: Optional[PhaseGuard] = None


def current_guard() -> Optional[PhaseGuard]:
    """The guard phase instrumentation should report to (or None)."""
    return _current_guard


@contextmanager
def use_guard(guard: Optional[PhaseGuard]) -> Iterator[Optional[PhaseGuard]]:
    """Install ``guard`` as the ambient phase guard for the duration."""
    global _current_guard
    previous = _current_guard
    _current_guard = guard
    try:
        yield guard
    finally:
        _current_guard = previous
