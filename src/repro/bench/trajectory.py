"""Committed perf trajectory: BENCH results as a tracked history.

``BENCH_headline.json`` is a fire-and-forget CI artifact — useful for
one build, invisible the build after.  This module turns benchmark
results into an append-only, schema-versioned JSON file committed to
the repository (``benchmarks/results/BENCH_trajectory.json``), so perf
is a *trajectory* rather than a point: every ``repro bench
--append-trajectory`` run adds one entry, and ``repro bench
--check-regression`` fails when the new run's per-configuration median
cycles regress beyond a threshold against the last committed entry.

Gating policy: only **simulated cycles** gate.  They are deterministic
(cost-model arithmetic, identical on every machine), so a regression
is a real compiler-quality change, never CI-runner noise.  Wall-clock
facts — the VM median speedup from the engine comparison, per-phase
compile seconds — are *recorded* for trend analysis but never gated
here; the CI bench job's ≥2× median-VM-speedup floor covers the
wall-clock side with a machine-tolerant margin.

Entry layout (``schema`` 1)::

    {
      "schema": 1,
      "recorded_at": "2026-08-08T12:00:00+00:00",
      "suite": "micro", "seed": 0, "repro_version": "...",
      "configs": {
        "dbds": {"fingerprint": "...", "median_cycles": ...,
                  "geomean_speedup_percent": ..., "median_compile_time": ...},
        ...
      },
      "vm_median_speedup": 37.2 | null,
      "engine_medians": {"vm": ..., "megaunit": ...} | null,
      "phase_times": {"dbds": {...}, ...}
    }

``engine_medians`` (added alongside the engine matrix; still schema 1
— readers treat a missing key as null) records every engine's median
wall-clock speedup over the reference interpreter, so the trajectory
shows what each engine buys over time (older entries also carry the
since-removed ``vm-nofuse``, ``closure`` and ``tiered`` rows).
"""

from __future__ import annotations

import json
import statistics
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Optional, Union

from ..pipeline.config import CONFIGURATIONS
from .harness import (
    DEFAULT_REGRESSION_THRESHOLD,
    DEFAULT_TRAJECTORY_PATH,
    SuiteReport,
    suite_phase_times,
)

TRAJECTORY_SCHEMA_VERSION = 1


def _fingerprint(config_name: str) -> Optional[str]:
    config = CONFIGURATIONS.get(config_name)
    return config.fingerprint() if config is not None else None


def trajectory_entry(
    report: SuiteReport,
    *,
    seed: int = 0,
    vm_median_speedup: Optional[float] = None,
    engine_medians: Optional[dict[str, float]] = None,
    recorded_at: Optional[str] = None,
) -> dict[str, Any]:
    """Build one trajectory entry from a finished suite run.

    ``vm_median_speedup`` and ``engine_medians`` come from the engine
    comparison when one ran alongside (``--engine-report``); they are
    recorded, not gated.
    """
    from ..pipeline.cache import repro_version

    configs: dict[str, dict[str, Any]] = {}
    for name in ["baseline", *report.config_names]:
        if name == "baseline":
            cycles = [row.baseline.cycles for row in report.rows]
            compile_times = [row.baseline.compile_time for row in report.rows]
            speedup = 0.0
        else:
            cycles = [row.configs[name].cycles for row in report.rows]
            compile_times = [
                row.configs[name].compile_time for row in report.rows
            ]
            speedup = report.geomean_speedup(name)
        configs[name] = {
            "fingerprint": _fingerprint(name),
            "median_cycles": statistics.median(cycles) if cycles else 0.0,
            "geomean_speedup_percent": speedup,
            "median_compile_time": (
                statistics.median(compile_times) if compile_times else 0.0
            ),
        }
    return {
        "schema": TRAJECTORY_SCHEMA_VERSION,
        "recorded_at": (
            recorded_at
            if recorded_at is not None
            else datetime.now(timezone.utc).isoformat(timespec="seconds")
        ),
        "suite": report.suite,
        "seed": seed,
        "repro_version": repro_version(),
        "configs": configs,
        "vm_median_speedup": vm_median_speedup,
        "engine_medians": dict(engine_medians) if engine_medians else None,
        "phase_times": suite_phase_times(report),
    }


def load_trajectory(path: Union[str, Path]) -> dict[str, Any]:
    """The trajectory file's content; an empty trajectory when absent."""
    path = Path(path)
    if not path.exists():
        return {"schema": TRAJECTORY_SCHEMA_VERSION, "entries": []}
    data = json.loads(path.read_text())
    if data.get("schema") != TRAJECTORY_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported trajectory schema "
            f"{data.get('schema')!r} (expected {TRAJECTORY_SCHEMA_VERSION})"
        )
    return data


def append_trajectory(
    path: Union[str, Path], entry: dict[str, Any]
) -> dict[str, Any]:
    """Append ``entry`` and write the file back; returns the trajectory."""
    path = Path(path)
    trajectory = load_trajectory(path)
    trajectory["entries"].append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    return trajectory


def last_comparable_entry(
    trajectory: dict[str, Any], entry: dict[str, Any]
) -> Optional[dict[str, Any]]:
    """The most recent committed entry the new one can be gated against
    (same suite, same seed — different seeds are different workloads)."""
    for past in reversed(trajectory.get("entries", [])):
        if (
            past.get("suite") == entry.get("suite")
            and past.get("seed") == entry.get("seed")
        ):
            return past
    return None


def check_regression(
    trajectory: dict[str, Any],
    entry: dict[str, Any],
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> list[str]:
    """Compare ``entry`` against the last comparable committed entry.

    Returns human-readable failure strings, one per configuration whose
    median simulated cycles grew beyond ``threshold`` (relative).  A
    configuration whose fingerprint changed since the committed entry
    is skipped — its constants changed, so its medians are a new
    baseline rather than a regression.  Empty list = pass.
    """
    baseline = last_comparable_entry(trajectory, entry)
    if baseline is None:
        return []
    failures: list[str] = []
    for name, new in entry.get("configs", {}).items():
        old = baseline.get("configs", {}).get(name)
        if old is None:
            continue
        if (
            old.get("fingerprint") is not None
            and new.get("fingerprint") is not None
            and old["fingerprint"] != new["fingerprint"]
        ):
            continue
        old_cycles = old.get("median_cycles", 0.0)
        new_cycles = new.get("median_cycles", 0.0)
        if old_cycles <= 0:
            continue
        if new_cycles > old_cycles * (1.0 + threshold):
            fingerprint = new.get("fingerprint") or old.get("fingerprint")
            fp_note = (
                f", config fingerprint {fingerprint}"
                if fingerprint is not None
                else ", config fingerprint unknown"
            )
            failures.append(
                f"{entry.get('suite')}/{name}: median cycles regressed "
                f"{old_cycles:g} -> {new_cycles:g} "
                f"(+{(new_cycles / old_cycles - 1.0) * 100.0:.1f}%, "
                f"threshold {threshold * 100.0:.1f}%, "
                f"committed {baseline.get('recorded_at')}{fp_note})"
            )
    return failures


__all__ = [
    "DEFAULT_REGRESSION_THRESHOLD",
    "DEFAULT_TRAJECTORY_PATH",
    "TRAJECTORY_SCHEMA_VERSION",
    "append_trajectory",
    "check_regression",
    "last_comparable_entry",
    "load_trajectory",
    "trajectory_entry",
]
