"""The artifact-manifest digest of every paper-figure compile.

Compiles every workload of every suite at seed 0 under each of the six
named configurations (``CONFIGURATIONS``), one profiling run per
workload as ``run_suite`` does, and
compares each compile's :func:`~repro.pipeline.cache.artifact_manifest`
digest (optimized IR, DBDS decisions, sizes and counts) with the
committed ``tests/goldens/manifest_digests.json``.  A change to compile
time that must not change what is compiled keeps every digest.

From the repository root::

    PYTHONPATH=src python -m tests.manifest_digests           # compare
    PYTHONPATH=src python -m tests.manifest_digests --write   # re-record

Comparing prints the digests that moved and exits 1 if any did.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.bench.workloads.suites import ALL_SUITES, generate_suite
from repro.obs.tracer import Tracer
from repro.pipeline import ProfiledSource, artifact_manifest, jit
from repro.pipeline.config import CONFIGURATIONS

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "manifest_digests.json"

CONFIGS = tuple(CONFIGURATIONS.values())


def manifest_digests(suites=None, seed: int = 0) -> dict[str, str]:
    """``suite/workload/config`` -> manifest digest, for ``suites``
    (default: every suite)."""
    digests = {}
    for suite in sorted(suites or ALL_SUITES):
        for workload in generate_suite(ALL_SUITES[suite], seed):
            profiled = ProfiledSource(
                workload.source, workload.entry, workload.profile_args,
                uses=len(CONFIGS),
            )
            for config in CONFIGS:
                artifact = jit(
                    workload.source, workload.entry, workload.profile_args,
                    config, tracer=Tracer(), profiled=profiled,
                )
                manifest = artifact_manifest(
                    artifact.program, artifact.report, artifact.events
                )
                digests[f"{suite}/{workload.name}/{config.name}"] = (
                    manifest["digest"]
                )
    return digests


def moved(golden: dict[str, str], digests: dict[str, str]) -> list[str]:
    """The keys of either map whose digests differ or are missing."""
    return sorted(
        key for key in golden.keys() | digests.keys()
        if golden.get(key) != digests.get(key)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help=f"re-record {GOLDEN.name}"
    )
    args = parser.parse_args(argv)
    digests = manifest_digests()
    if args.write:
        GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"{len(digests)} digests -> {GOLDEN}")
        return 0
    changed = moved(json.loads(GOLDEN.read_text()), digests)
    for key in changed:
        print(f"moved: {key}")
    print(f"{len(digests) - len(changed)} of {len(digests)} digests match")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
