"""Structural and SSA verifier — compatibility shim.

The checks themselves now live in the pluggable registry of
:mod:`repro.analysis` (see ``docs/ANALYSIS.md``); this module keeps the
historical fail-fast API that phases and tests call between rewrites.
Message texts are unchanged: :func:`verify_graph` raises
:class:`VerificationError` describing the first violated property, and
:func:`verify_program` names the failing function.

The analysis imports are deferred into the functions because
``repro.ir.__init__`` re-exports this module while the analysis
package itself is built on ``repro.ir``.  They name the checker
framework and the IR checkers directly, so verifying a graph loads
neither the LIR nor the bytecode checkers.
"""

from __future__ import annotations

from typing import Optional

from .graph import Graph


class VerificationError(Exception):
    """An IR invariant does not hold.

    ``function`` names the graph that failed (always set by
    :func:`verify_graph`/:func:`verify_program`).
    """

    def __init__(self, message: str, function: Optional[str] = None) -> None:
        super().__init__(message)
        self.function = function


def verify_graph(graph: Graph, check_dominance: bool = True) -> None:
    """Verify all structural invariants of one function graph."""
    from ..analysis.checkers import CORE_CHECKERS, STRUCTURAL_CHECKERS
    from ..analysis.core import run_checkers

    names = CORE_CHECKERS if check_dominance else STRUCTURAL_CHECKERS
    report = run_checkers(graph, checkers=names, fail_fast=True)
    errors = report.errors()
    if errors:
        raise VerificationError(
            f"{graph.name}: {errors[0].message}", function=graph.name
        )


def verify_program(program) -> None:
    """Verify all functions of a program.

    The raised :class:`VerificationError` names the failing function
    both in its message and in its ``function`` attribute.
    """
    for name, graph in program.functions.items():
        try:
            verify_graph(graph)
        except VerificationError as exc:
            raise VerificationError(
                f"in function {name!r}: {exc}", function=name
            ) from None
