"""The full sweep as the oracle of the incremental canonicalizer.

Compiles every workload of the chosen suites under baseline, dbds and
dupalot, one profiling run per workload as ``run_suite`` does.  Around
every ``CanonicalizerPhase`` run it takes a pickle clone of the graph.
A graph pickles without its change log, so the clone counts as
all-dirty and canonicalizing it is a full sweep; the clone keeps block
ids.  Both runs must leave the same normalized IR (every block in block
order, and every value's users in use-list order) and report the same
number of rewrites.

From the repository root::

    PYTHONPATH=src python -m tests.canonicalize_oracle --seed 1
    PYTHONPATH=src python -m tests.canonicalize_oracle --seed 1 --suite micro

Prints each mismatch and a summary, and exits 1 if any run mismatched.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.bench.workloads.suites import ALL_SUITES, generate_suite
from repro.ir.graph import Graph
from repro.obs.tracer import NULL_TRACER, use_tracer
from repro.opts.canonicalize import CanonicalizerPhase
from repro.pipeline import ProfiledSource, jit
from repro.pipeline.cache import normalize_ir, pack_artifact, unpack_artifact
from repro.pipeline.config import BASELINE, DBDS, DUPALOT

CONFIGS = (BASELINE, DBDS, DUPALOT)


@dataclass
class OracleReport:
    """Canonicalizer runs checked, and a line per mismatching run."""

    runs: int = 0
    mismatches: list[str] = field(default_factory=list)


def snapshot(graph: Graph) -> str:
    """Every block in block order, then every value's users in
    use-list order (later phases walk use lists), value names
    normalized."""
    lines = [block.describe() for block in graph.blocks]
    values = [*graph.parameters, *graph._constants.values()]
    for block in graph.blocks:
        values.extend(block.phis)
        values.extend(block.instructions)
    for value in values:
        users = " ".join(
            getattr(user, "name", None) or f"{user.block}.end"
            for user in value.uses
        )
        lines.append(f"{value!r} <- {users}")
    return normalize_ir("\n".join(lines))


@contextmanager
def full_sweep_oracle() -> Iterator[OracleReport]:
    """Check every canonicalizer run inside the block against a full
    sweep of an all-dirty clone of its graph."""
    report = OracleReport()
    traced_run = CanonicalizerPhase.run
    sweep = traced_run.__wrapped__

    def checked_run(self, graph):
        clone = unpack_artifact(pack_artifact(graph))
        rewrites = traced_run(self, graph)
        with use_tracer(NULL_TRACER):
            expected = sweep(self, clone)
        report.runs += 1
        if rewrites != expected or snapshot(graph) != snapshot(clone):
            report.mismatches.append(
                f"{graph.name}: run {report.runs} rewrote {rewrites}, "
                f"the full sweep {expected}"
                + ("" if rewrites != expected else "; the IR differs")
            )
        return rewrites

    CanonicalizerPhase.run = checked_run
    try:
        yield report
    finally:
        CanonicalizerPhase.run = traced_run


def check_suites(suites, seed: int) -> OracleReport:
    """Compile ``suites`` at ``seed`` under the oracle."""
    with full_sweep_oracle() as report:
        for suite in sorted(suites):
            for workload in generate_suite(ALL_SUITES[suite], seed):
                profiled = ProfiledSource(
                    workload.source, workload.entry, workload.profile_args,
                    uses=len(CONFIGS),
                )
                for config in CONFIGS:
                    jit(
                        workload.source, workload.entry,
                        workload.profile_args, config, profiled=profiled,
                    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--suite", action="append", choices=sorted(ALL_SUITES),
        help="suite to compile (repeatable; default: every suite)",
    )
    args = parser.parse_args(argv)
    report = check_suites(args.suite or ALL_SUITES, args.seed)
    for line in report.mismatches:
        print(f"mismatch: {line}")
    print(
        f"{report.runs - len(report.mismatches)} of {report.runs} "
        "canonicalizer runs equal a full sweep"
    )
    return 1 if report.mismatches or not report.runs else 0


if __name__ == "__main__":
    sys.exit(main())
