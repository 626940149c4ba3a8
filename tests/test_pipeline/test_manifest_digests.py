"""The committed manifest digests pin what every paper-figure compile
produces (``python -m tests.manifest_digests`` checks all of them in
CI; here one suite keeps the golden honest in the tier-1 run)."""

from __future__ import annotations

import json

from repro.bench.workloads.suites import ALL_SUITES, generate_suite

from tests.manifest_digests import CONFIGS, GOLDEN, manifest_digests, moved


def test_golden_covers_every_suite_workload_and_config():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(
        f"{suite}/{workload.name}/{config.name}"
        for suite in ALL_SUITES
        for workload in generate_suite(ALL_SUITES[suite], 0)
        for config in CONFIGS
    )


def test_micro_suite_compiles_to_the_committed_digests():
    digests = manifest_digests(["micro"])
    golden = json.loads(GOLDEN.read_text())
    assert len(digests) == 9 * len(CONFIGS) == 54
    assert moved({key: golden[key] for key in digests}, digests) == []
