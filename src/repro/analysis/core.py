"""The checker framework: registry, context, runner.

A *checker* is a named invariant-checking function over one function
graph (or one LIR function).  Checkers register themselves with the
:func:`checker` decorator, carry a default severity and a scope
(``"ir"`` or ``"lir"``), and report through a :class:`CheckerContext`
that caches the expensive derived structures (dominators, loops,
frequencies) so a full suite costs one analysis pass, not one per
checker.

Two consumption styles:

* ``run_checkers(graph, fail_fast=True)`` — verifier style, stop at the
  first error (what :mod:`repro.ir.verifier` is a shim over);
* ``run_checkers(graph, fail_fast=False)`` — CI style, collect every
  violation of every checker in one pass (``repro check --keep-going``).

Every violation a run finds is one ``analysis.violation`` event on the
ambient tracer (which ``repro_analysis_violations_total`` folds by
severity); the phase guard times its checking as ``ir-check`` phase
spans.
"""

from __future__ import annotations

import enum
import importlib
from typing import Callable, Iterable, Optional

from ..ir.cfgutils import reachable_blocks
from ..ir.dominators import DominatorTree
from ..ir.frequency import BlockFrequencies
from ..ir.graph import Graph
from ..ir.loops import LoopForest
from ..obs.tracer import current_tracer

SCOPE_IR = "ir"
SCOPE_LIR = "lir"
SCOPE_BC = "bc"

#: scope -> the module registering its built-in checkers, in run order
#: (IR, LIR, bytecode)
_BUILTIN_CHECKERS = {
    SCOPE_IR: "repro.analysis.checkers",
    SCOPE_LIR: "repro.analysis.lir_checks",
    SCOPE_BC: "repro.analysis.bcverify.checks",
}
_SCOPE_RANK = {scope: rank for rank, scope in enumerate(_BUILTIN_CHECKERS)}


class Severity(enum.Enum):
    """How bad a violation is.

    ``ERROR`` violations make a graph invalid (the pipeline must not
    continue); ``WARNING`` violations flag suspicious-but-legal state
    and never fail a check run.
    """

    WARNING = "warning"
    ERROR = "error"


class Violation:
    """One broken invariant, attributed to the checker that found it;
    ``block`` names the block it anchors to (None = graph-level)."""

    __slots__ = ("checker", "severity", "graph", "message", "block")

    def __init__(
        self,
        checker: str,
        severity: Severity,
        graph: str,
        message: str,
        block: Optional[str] = None,
    ) -> None:
        self.checker = checker
        self.severity = severity
        self.graph = graph
        self.message = message
        self.block = block

    def format(self) -> str:
        where = f"{self.graph}/{self.block}" if self.block else self.graph
        return f"{self.severity.value}[{self.checker}] {where}: {self.message}"


class Checker:
    """A registered invariant checker."""

    __slots__ = ("name", "func", "severity", "scope", "description")

    def __init__(
        self,
        name: str,
        func: Callable,
        severity: Severity = Severity.ERROR,
        scope: str = SCOPE_IR,
        description: str = "",
    ) -> None:
        self.name = name
        self.func = func
        self.severity = severity
        self.scope = scope
        self.description = description


#: registration-ordered checker table; within a scope, order is the run
#: order and the shim's fail-fast order, so structural checkers must
#: register first.
_REGISTRY: dict[str, Checker] = {}


def checker(
    name: str,
    *,
    scope: str = SCOPE_IR,
    severity: Severity = Severity.ERROR,
    description: str = "",
):
    """Class-level decorator registering a checker function.

    The decorated function receives a :class:`CheckerContext` (IR
    scope) or :class:`LirCheckerContext` (LIR scope) and reports
    violations via ``ctx.report``.
    """

    def register(func: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"duplicate checker {name!r}")
        _REGISTRY[name] = Checker(
            name=name,
            func=func,
            severity=severity,
            scope=scope,
            description=description or (func.__doc__ or "").strip().split("\n")[0],
        )
        return func

    return register


def _load_builtin_checkers(scope: Optional[str] = None) -> None:
    """Import the modules registering the built-in checkers of ``scope``
    (``None`` = every scope)."""
    for name, module in _BUILTIN_CHECKERS.items():
        if scope is None or scope == name:
            importlib.import_module(module)


def all_checkers(scope: Optional[str] = None) -> list[Checker]:
    """Registered checkers in run order, optionally filtered by scope.

    The built-in checkers of the scope are always included, and the
    order is by scope (IR, LIR, bytecode), then by registration, so the
    answer does not depend on which modules a process imported first.
    """
    _load_builtin_checkers(scope)
    return sorted(
        (c for c in _REGISTRY.values() if scope is None or c.scope == scope),
        key=lambda c: _SCOPE_RANK.get(c.scope, len(_SCOPE_RANK)),
    )


def get_checker(name: str) -> Checker:
    if name not in _REGISTRY:
        _load_builtin_checkers()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown checker {name!r} (known: {known})") from None


class _StopCheck(Exception):
    """Internal control flow: a fail-fast run hit an error."""


class _ContextBase:
    """Violation collection shared by the IR and LIR contexts."""

    def __init__(self, graph_name: str) -> None:
        self.graph_name = graph_name
        self.violations: list[Violation] = []
        self.fail_fast = False
        self._checker: Optional[Checker] = None

    def report(
        self,
        message: str,
        *,
        block=None,
        severity: Optional[Severity] = None,
    ) -> None:
        """Record a violation attributed to the running checker."""
        assert self._checker is not None, "report() outside a checker run"
        sev = severity or self._checker.severity
        self.violations.append(
            Violation(
                checker=self._checker.name,
                severity=sev,
                graph=self.graph_name,
                message=message,
                block=getattr(block, "name", block),
            )
        )
        if self.fail_fast and sev is Severity.ERROR:
            raise _StopCheck


class CheckerContext(_ContextBase):
    """One IR check run: the graph plus lazily cached analyses."""

    def __init__(self, graph: Graph, program=None) -> None:
        super().__init__(graph.name)
        self.graph = graph
        self.program = program
        self._dom: Optional[DominatorTree] = None
        self._loops: Optional[LoopForest] = None
        self._frequencies: Optional[BlockFrequencies] = None
        self._reachable = None

    # Checkers deliberately bypass Graph's analysis cache: a sanitizer
    # must recompute from the raw CFG, since the very thing it validates
    # may be a mutation that failed to invalidate the cache.
    @property
    def dom(self) -> DominatorTree:
        if self._dom is None:
            self._dom = DominatorTree(self.graph)
        return self._dom

    @property
    def loops(self) -> LoopForest:
        if self._loops is None:
            self._loops = LoopForest(self.graph, self.dom)
        return self._loops

    @property
    def frequencies(self) -> BlockFrequencies:
        if self._frequencies is None:
            self._frequencies = BlockFrequencies(self.graph, self.loops)
        return self._frequencies

    @property
    def reachable(self) -> set:
        if self._reachable is None:
            self._reachable = reachable_blocks(self.graph)
        return self._reachable


class CheckReport:
    """Outcome of one ``run_checkers`` call."""

    __slots__ = ("graph", "violations", "checkers_run")

    def __init__(self, graph: str) -> None:
        self.graph = graph
        self.violations: list[Violation] = []
        self.checkers_run: list[str] = []

    @property
    def ok(self) -> bool:
        """No *error* violations (warnings do not fail a run)."""
        return not self.errors()

    def errors(self) -> list[Violation]:
        return [v for v in self.violations if v.severity is Severity.ERROR]

    def warnings(self) -> list[Violation]:
        return [v for v in self.violations if v.severity is Severity.WARNING]

    def by_checker(self) -> dict[str, list[Violation]]:
        grouped: dict[str, list[Violation]] = {}
        for violation in self.violations:
            grouped.setdefault(violation.checker, []).append(violation)
        return grouped

    def format(self) -> str:
        if not self.violations:
            return f"{self.graph}: ok ({len(self.checkers_run)} checkers)"
        lines = [f"{self.graph}: {len(self.violations)} violation(s)"]
        lines.extend(f"  {v.format()}" for v in self.violations)
        return "\n".join(lines)


def _select(names: Optional[Iterable[str]], scope: str) -> list[Checker]:
    if names is None:
        return all_checkers(scope)
    return [get_checker(n) for n in names]


def record_violations(violations: Iterable[Violation]) -> None:
    """Record each violation as one ``analysis.violation`` event on the
    ambient tracer: the one writer of that event."""
    tracer = current_tracer()
    for violation in violations:
        tracer.event(
            "analysis.violation",
            graph=violation.graph,
            checker=violation.checker,
            severity=violation.severity.value,
            block=violation.block,
            message=violation.message,
        )


def _execute(
    ctx: _ContextBase,
    selected: list[Checker],
    fail_fast: bool,
    report: CheckReport,
) -> CheckReport:
    ctx.fail_fast = fail_fast
    for chk in selected:
        ctx._checker = chk
        before = len(ctx.violations)
        stop = False
        try:
            chk.func(ctx)
        except _StopCheck:
            stop = True
        except Exception as exc:  # a corrupt graph may crash an analysis
            ctx.violations.append(
                Violation(
                    checker=chk.name,
                    severity=Severity.ERROR,
                    graph=ctx.graph_name,
                    message=f"checker crashed: {type(exc).__name__}: {exc}",
                )
            )
            stop = fail_fast
        finally:
            ctx._checker = None
        report.checkers_run.append(chk.name)
        record_violations(ctx.violations[before:])
        if stop:
            break
    report.violations = ctx.violations
    return report


def run_checkers(
    graph: Graph,
    program=None,
    *,
    checkers: Optional[Iterable[str]] = None,
    fail_fast: bool = False,
) -> CheckReport:
    """Run IR checkers over one graph.

    ``checkers`` selects by name (None = every registered IR checker).
    With ``fail_fast`` the run stops at the first
    :data:`Severity.ERROR` violation — warnings never stop a run.
    """
    selected = _select(checkers, SCOPE_IR)
    ctx = CheckerContext(graph, program)
    return _execute(ctx, selected, fail_fast, CheckReport(graph=graph.name))


def run_program_checkers(program) -> list[CheckReport]:
    """Run every IR checker over every function of a program."""
    return [run_checkers(graph, program) for graph in program.functions.values()]
