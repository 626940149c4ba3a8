"""Tests for the committed perf trajectory (bench/trajectory.py)."""

import json

import pytest

from repro.bench.harness import DEFAULT_TRAJECTORY_PATH, cell_phase_times, run_suite
from repro.bench.trajectory import (
    TRAJECTORY_SCHEMA_VERSION,
    append_trajectory,
    check_regression,
    last_comparable_entry,
    load_trajectory,
    trajectory_entry,
)
from repro.bench.workloads.suites import ALL_SUITES
from repro.obs import Tracer, use_tracer
from repro.pipeline.config import CONFIGURATIONS
from tests.helpers import REPO


def make_entry(
    suite="micro",
    seed=0,
    cycles=1000.0,
    fingerprint="f0",
    recorded_at="2026-01-01T00:00:00+00:00",
):
    return {
        "schema": TRAJECTORY_SCHEMA_VERSION,
        "recorded_at": recorded_at,
        "suite": suite,
        "seed": seed,
        "repro_version": "test",
        "configs": {
            "dbds": {
                "fingerprint": fingerprint,
                "median_cycles": cycles,
                "geomean_speedup_percent": 10.0,
                "median_compile_time": 0.01,
            }
        },
        "vm_median_speedup": None,
        "phase_times": {},
    }


# ----------------------------------------------------------------------
# Entry construction from a real suite run
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def micro_entry():
    tracer = Tracer()
    with use_tracer(tracer):
        report = run_suite(ALL_SUITES["micro"], seed=0)
    return trajectory_entry(
        report, seed=0, vm_median_speedup=42.0, recorded_at="pinned",
        phase_times=cell_phase_times(tracer.events),
    )


def test_entry_layout(micro_entry):
    assert micro_entry["schema"] == TRAJECTORY_SCHEMA_VERSION
    assert micro_entry["suite"] == "micro"
    assert micro_entry["seed"] == 0
    assert micro_entry["recorded_at"] == "pinned"
    assert micro_entry["vm_median_speedup"] == 42.0
    assert set(micro_entry["configs"]) == {"baseline", "dbds", "dupalot"}
    for name, config in micro_entry["configs"].items():
        assert config["median_cycles"] > 0
        assert config["fingerprint"] == CONFIGURATIONS[name].fingerprint()
    assert micro_entry["configs"]["baseline"]["geomean_speedup_percent"] == 0.0
    assert set(micro_entry["phase_times"]) == {"baseline", "dbds", "dupalot"}


def test_entry_is_json_serializable(micro_entry):
    json.dumps(micro_entry)


# ----------------------------------------------------------------------
# Load / append
# ----------------------------------------------------------------------
def test_load_missing_file_is_empty_trajectory(tmp_path):
    trajectory = load_trajectory(tmp_path / "absent.json")
    assert trajectory == {
        "schema": TRAJECTORY_SCHEMA_VERSION,
        "entries": [],
    }


def test_append_roundtrips(tmp_path):
    path = tmp_path / "traj.json"
    append_trajectory(path, make_entry(cycles=1000.0))
    trajectory = append_trajectory(path, make_entry(cycles=990.0))
    assert len(trajectory["entries"]) == 2
    assert load_trajectory(path) == trajectory


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "traj.json"
    path.write_text(json.dumps({"schema": 999, "entries": []}))
    with pytest.raises(ValueError):
        load_trajectory(path)


# ----------------------------------------------------------------------
# Comparability and gating
# ----------------------------------------------------------------------
def test_last_comparable_matches_suite_and_seed():
    trajectory = {
        "schema": TRAJECTORY_SCHEMA_VERSION,
        "entries": [
            make_entry(seed=0, recorded_at="t0"),
            make_entry(seed=1, recorded_at="t1"),
            make_entry(seed=0, recorded_at="t2"),
        ],
    }
    found = last_comparable_entry(trajectory, make_entry(seed=0))
    assert found["recorded_at"] == "t2"
    assert last_comparable_entry(trajectory, make_entry(seed=9)) is None


def trajectory_with(*entries):
    return {"schema": TRAJECTORY_SCHEMA_VERSION, "entries": list(entries)}


def test_empty_history_passes():
    assert check_regression(trajectory_with(), make_entry()) == []


def test_within_threshold_passes():
    history = trajectory_with(make_entry(cycles=1000.0))
    assert check_regression(history, make_entry(cycles=1040.0), 0.05) == []


def test_regression_beyond_threshold_fails():
    history = trajectory_with(make_entry(cycles=1000.0))
    failures = check_regression(history, make_entry(cycles=1100.0), 0.05)
    assert len(failures) == 1
    assert "micro/dbds" in failures[0]
    assert "+10.0%" in failures[0]


def test_regression_message_names_the_config_fingerprint():
    # The suite name alone is ambiguous once several configs share a
    # suite: the failure must name the offending config's fingerprint
    # so the regression can be traced to its exact constants.
    history = trajectory_with(make_entry(cycles=1000.0, fingerprint="f0"))
    failures = check_regression(history, make_entry(cycles=1100.0, fingerprint="f0"), 0.05)
    assert len(failures) == 1
    assert "config fingerprint f0" in failures[0]


def test_regression_message_flags_missing_fingerprint():
    history = trajectory_with(make_entry(cycles=1000.0, fingerprint=None))
    failures = check_regression(history, make_entry(cycles=1100.0, fingerprint=None), 0.05)
    assert len(failures) == 1
    assert "config fingerprint unknown" in failures[0]


def test_improvement_always_passes():
    history = trajectory_with(make_entry(cycles=1000.0))
    assert check_regression(history, make_entry(cycles=600.0), 0.05) == []


def test_changed_fingerprint_is_a_new_baseline():
    history = trajectory_with(make_entry(cycles=1000.0, fingerprint="old"))
    worse_but_retuned = make_entry(cycles=5000.0, fingerprint="new")
    assert check_regression(history, worse_but_retuned, 0.05) == []


def test_different_seed_never_gates():
    history = trajectory_with(make_entry(seed=0, cycles=1000.0))
    assert check_regression(history, make_entry(seed=1, cycles=9000.0)) == []


def test_gates_against_most_recent_comparable():
    history = trajectory_with(
        make_entry(cycles=2000.0, recorded_at="t0"),
        make_entry(cycles=1000.0, recorded_at="t1"),
    )
    # 1500 regresses vs the latest (1000) even though it beats t0.
    failures = check_regression(history, make_entry(cycles=1500.0), 0.05)
    assert len(failures) == 1


def test_committed_trajectory_gates_a_real_run(micro_entry, tmp_path):
    path = tmp_path / "traj.json"
    append_trajectory(path, micro_entry)
    trajectory = load_trajectory(path)
    # An identical re-run passes...
    assert check_regression(trajectory, dict(micro_entry)) == []
    # ...and an inflated dbds median fails.
    worse = json.loads(json.dumps(micro_entry))
    worse["configs"]["dbds"]["median_cycles"] *= 1.2
    assert len(check_regression(trajectory, worse, 0.05)) == 1


def test_committed_trajectory_carries_todays_fingerprints():
    """``check_regression`` skips a config whose fingerprint differs
    from the committed entry's, so CI's ``bench --check-regression``
    gates nothing once a config changes, until a fresh entry
    (``bench --append-trajectory``) is committed."""
    trajectory = load_trajectory(REPO / DEFAULT_TRAJECTORY_PATH)
    entry = last_comparable_entry(trajectory, {"suite": "micro", "seed": 0})
    assert entry is not None
    committed = {name: c["fingerprint"] for name, c in entry["configs"].items()}
    assert committed == {
        name: CONFIGURATIONS[name].fingerprint() for name in committed
    }
