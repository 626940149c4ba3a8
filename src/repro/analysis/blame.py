"""Per-phase invariant checking with phase-blame diagnostics.

A :class:`PhaseGuard` snapshots the graph around every ``Phase.run()``
(hooked in :class:`repro.opts.base.Phase`) and runs the checker
registry afterwards.  When a phase breaks an invariant the guard
raises (or, in keep-going mode, collects) a :class:`PhaseBlameError`
that names the offending phase and checker and carries a unified diff
of the IR before and after the phase — the *phase-blame diagnostic*.
The guard also blames a phase that changed the IR without its graph's
change log noticing (the ``change-log`` check): the incremental
canonicalizer trusts that log, so an unlogged edit would make it skip
work silently.

The guard is ambient, mirroring the tracer: instrumentation sites call
:func:`current_guard` instead of threading a guard argument through
every phase constructor, and :func:`use_guard` installs one for the
duration of a compilation.  Failures are also emitted through the
ambient tracer: each violation, the guard's own ``change-log`` one
included, is an ``analysis.violation`` event recorded by the checker
framework's :func:`~repro.analysis.core.record_violations`, and the
guard names the blamed phase in one ``analysis.blame`` event.  The
check time itself is recorded as an ``ir-check`` phase span so
``--profile-compile`` shows analysis overhead.

The error a checked compile raises to the CLI, :class:`PhaseBlameError`,
lives here, and this module loads the checker framework only when a
guard checks: catching it costs a warm run nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

from ..ir.graph import Graph
from ..obs.tracer import current_tracer

if TYPE_CHECKING:
    from .core import CheckReport

#: ``--check-ir`` modes
CHECK_OFF = "off"
CHECK_BOUNDARIES = "boundaries"
CHECK_EACH_PHASE = "each-phase"
CHECK_MODES = (CHECK_OFF, CHECK_BOUNDARIES, CHECK_EACH_PHASE)

#: the guard's own check: a phase's IR dump changed, its graph's change
#: log serial did not
CHANGE_LOG_CHECK = "change-log"

#: what :meth:`PhaseGuard.before_phase` records: the IR dump and the
#: change log's serial
Snapshot = tuple[str, int]


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
    before: Optional[str], after: str, max_lines: int = 40
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
    """Checks graph invariants around phases, with every registered IR
    checker, and assigns blame.

    ``fail_fast=True`` raises :class:`PhaseBlameError` at the first
    failing phase; ``fail_fast=False`` (keep-going) collects every
    failure in :attr:`failures` and lets compilation continue, so one
    CI run reports all violations.
    """

    def __init__(
        self, mode: str = CHECK_EACH_PHASE, *, fail_fast: bool = True
    ) -> None:
        if mode not in CHECK_MODES:
            raise ValueError(f"unknown check mode {mode!r} (choose from {CHECK_MODES})")
        self.mode = mode
        self.fail_fast = fail_fast
        #: collected blame errors (keep-going mode; fail-fast raises)
        self.failures: list[PhaseBlameError] = []

    # ------------------------------------------------------------------
    @property
    def per_phase(self) -> bool:
        """Whether every ``Phase.run()`` is bracketed with checks."""
        return self.mode == CHECK_EACH_PHASE

    def before_phase(self, phase: str, graph: Graph) -> Optional[Snapshot]:
        """Snapshot hook called before a phase runs; returns the
        snapshot token to pass back to :meth:`after_phase`."""
        if not self.per_phase:
            return None
        return graph.describe(), graph.changes.serial

    def after_phase(
        self, phase: str, graph: Graph, before: Optional[Snapshot]
    ) -> None:
        """Check hook called after a phase ran."""
        if self.per_phase:
            self._check(phase, graph, before)

    def check_boundary(self, label: str, graph: Graph) -> None:
        """Explicit check at a pipeline boundary (both non-off modes)."""
        if self.mode != CHECK_OFF:
            self._check(label, graph, None)

    # ------------------------------------------------------------------
    def _check(
        self, phase: str, graph: Graph, before: Optional[Snapshot]
    ) -> None:
        from .core import Severity, Violation, record_violations, run_checkers

        tracer = current_tracer()
        # The check itself appears as its own pipeline phase so compile
        # profiles attribute analysis overhead explicitly.
        with tracer.span("phase", phase="ir-check", graph=graph.name):
            report = run_checkers(graph)
        # Like the derived-state checkers, this one stays silent when
        # another checker already blames the phase.
        dump = None
        if report.ok and before is not None and graph.changes.serial == before[1]:
            dump = graph.describe()
            if dump != before[0]:
                violation = Violation(
                    checker=CHANGE_LOG_CHECK,
                    severity=Severity.ERROR,
                    graph=graph.name,
                    message="changed the graph without logging it",
                )
                report.violations.append(violation)
                record_violations([violation])
        if report.ok:
            return
        diff = _excerpt_diff(
            None if before is None else before[0], dump or graph.describe()
        )
        error = PhaseBlameError(phase, graph.name, report, diff)
        tracer.event(
            "analysis.blame",
            phase=phase,
            graph=graph.name,
            checkers=error.checkers,
            violations=len(report.errors()),
        )
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
