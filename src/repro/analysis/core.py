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

Per-checker wall time and violation counts are tallied on the ambient
tracer (``analysis.checker.<name>.us`` / ``.violations``) so
``--profile-compile`` shows what the checking itself costs, and every
violation counts once per severity (``analysis.violations.<severity>``).
"""

from __future__ import annotations

import enum
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

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


@dataclass(frozen=True)
class Violation:
    """One broken invariant, attributed to the checker that found it."""

    checker: str
    severity: Severity
    graph: str
    message: str
    #: name of the block the violation anchors to (None = graph-level)
    block: Optional[str] = None

    def format(self) -> str:
        where = f"{self.graph}/{self.block}" if self.block else self.graph
        return f"{self.severity.value}[{self.checker}] {where}: {self.message}"


@dataclass(frozen=True)
class Checker:
    """A registered invariant checker."""

    name: str
    func: Callable
    severity: Severity = Severity.ERROR
    scope: str = SCOPE_IR
    description: str = ""


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


@dataclass
class CheckReport:
    """Outcome of one ``run_checkers`` call."""

    graph: str
    violations: list[Violation] = field(default_factory=list)
    checkers_run: list[str] = field(default_factory=list)
    #: checker name -> wall seconds
    checker_times: dict[str, float] = field(default_factory=dict)

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


def _select(
    names: Optional[Iterable[str]],
    disable: Sequence[str],
    scope: str,
) -> list[Checker]:
    if names is None:
        selected = all_checkers(scope)
    else:
        selected = [get_checker(n) for n in names]
    return [c for c in selected if c.name not in set(disable)]


def _execute(
    ctx: _ContextBase,
    selected: list[Checker],
    fail_fast: bool,
    report: CheckReport,
) -> CheckReport:
    tracer = current_tracer()
    ctx.fail_fast = fail_fast
    for chk in selected:
        ctx._checker = chk
        before = len(ctx.violations)
        start = time.perf_counter()
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
        elapsed = time.perf_counter() - start
        report.checkers_run.append(chk.name)
        report.checker_times[chk.name] = (
            report.checker_times.get(chk.name, 0.0) + elapsed
        )
        found = len(ctx.violations) - before
        tracer.count(f"analysis.checker.{chk.name}.us", int(elapsed * 1e6))
        if found:
            tracer.count(f"analysis.checker.{chk.name}.violations", found)
            tracer.count(f"analysis.checker.{chk.name}.fail")
            for violation in ctx.violations[before:]:
                tracer.count(f"analysis.violations.{violation.severity.value}")
        else:
            tracer.count(f"analysis.checker.{chk.name}.pass")
        if stop:
            break
    report.violations = ctx.violations
    tracer.count("analysis.runs")
    if report.errors():
        tracer.count("analysis.runs.fail")
    else:
        tracer.count("analysis.runs.pass")
    return report


def run_checkers(
    graph: Graph,
    program=None,
    *,
    checkers: Optional[Iterable[str]] = None,
    disable: Sequence[str] = (),
    fail_fast: bool = False,
) -> CheckReport:
    """Run IR checkers over one graph.

    ``checkers`` selects by name (None = every registered IR checker);
    ``disable`` removes names from the selection.  With ``fail_fast``
    the run stops at the first :data:`Severity.ERROR` violation —
    warnings never stop a run.
    """
    selected = _select(checkers, disable, SCOPE_IR)
    ctx = CheckerContext(graph, program)
    return _execute(ctx, selected, fail_fast, CheckReport(graph=graph.name))


def run_program_checkers(
    program,
    *,
    checkers: Optional[Iterable[str]] = None,
    disable: Sequence[str] = (),
    fail_fast: bool = False,
) -> list[CheckReport]:
    """Run IR checkers over every function of a program."""
    reports = []
    for graph in program.functions.values():
        report = run_checkers(
            graph,
            program,
            checkers=checkers,
            disable=disable,
            fail_fast=fail_fast,
        )
        reports.append(report)
        if fail_fast and not report.ok:
            break
    return reports
