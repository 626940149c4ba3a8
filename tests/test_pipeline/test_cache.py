"""Cache correctness: keying, hits, corruption recovery, concurrency."""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro.obs import MetricsSnapshot, Tracer, validate_record, event_to_dict
from repro.pipeline.batch import BatchOptions, compile_batch
from repro.pipeline.cache import (
    PICKLE_PROTOCOL,
    ArtifactCache,
    CacheEntry,
    artifact_manifest,
    cache_key,
    config_fingerprint,
    make_entry,
    normalize_ir,
)
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import BASELINE, DBDS

SOURCE = textwrap.dedent(
    """
    fn main(n: int) -> int {
      var acc: int = 0;
      var i: int = 0;
      while (i < n) {
        if (i > 2) { acc = acc + 2 * i; } else { acc = acc + 1; }
        i = i + 1;
      }
      return acc;
    }
    """
)


def compiled_entry(key: str):
    tracer = Tracer()
    program, report = compile_and_profile(SOURCE, "main", [[5]], DBDS, tracer=tracer)
    return make_entry(key, program, report, tracer.events)


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def test_key_is_stable_for_identical_inputs():
    assert cache_key(SOURCE, DBDS, profile_args=[[5]]) == cache_key(
        SOURCE, DBDS, profile_args=[[5]]
    )


def test_key_misses_on_source_edit():
    edited = SOURCE.replace("acc + 1", "acc + 3")
    assert cache_key(SOURCE, DBDS) != cache_key(edited, DBDS)


def test_key_misses_on_config_change():
    assert cache_key(SOURCE, DBDS) != cache_key(SOURCE, BASELINE)
    tweaked = DBDS.with_trade_off(benefit_scale=128.0)
    assert cache_key(SOURCE, DBDS) != cache_key(SOURCE, tweaked)
    assert config_fingerprint(DBDS) != config_fingerprint(tweaked)


def test_key_misses_on_version_bump():
    assert cache_key(SOURCE, DBDS, version="1.0.0") != cache_key(
        SOURCE, DBDS, version="1.0.1"
    )


def test_schema_5_directory_is_keyed_apart(tmp_path, monkeypatch):
    # Schema-5 entries could carry a fused fast stream, schema-6 ones a
    # bytecode translation and schema-7 ones dataclass types and stamps:
    # a directory filled by an older build must never serve the current
    # one.
    from repro.pipeline import cache as cache_module

    assert cache_module.CACHE_SCHEMA_VERSION == 8
    key = cache_key(SOURCE, DBDS)
    cache = ArtifactCache(tmp_path)
    for old_schema in (5, 6, 7):
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "CACHE_SCHEMA_VERSION", old_schema)
            old_key = cache_key(SOURCE, DBDS)
            ArtifactCache(tmp_path).put(compiled_entry(old_key))
        assert key != old_key
        assert cache.get(old_key) is not None  # still on disk, never consulted
    assert cache.get(key) is None


def test_key_misses_on_profile_args_and_check_mode():
    assert cache_key(SOURCE, DBDS, profile_args=[[5]]) != cache_key(
        SOURCE, DBDS, profile_args=[[7]]
    )
    assert cache_key(SOURCE, DBDS, check_ir="off") != cache_key(
        SOURCE, DBDS, check_ir="each-phase"
    )


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
def test_normalize_ir_renumbers_values_only():
    dump = "entry:  preds=[]\n  v113 = Mul p1:row v9\n  If v113 ? b3 : b4"
    shifted = "entry:  preds=[]\n  v413 = Mul p1:row v309\n  If v413 ? b3 : b4"
    assert normalize_ir(dump) == normalize_ir(shifted)
    assert normalize_ir(dump) == (
        "entry:  preds=[]\n  v0 = Mul p1:row v1\n  If v0 ? b3 : b4"
    )


def test_manifest_independent_of_process_id_history():
    # Value IDs come from a process-global counter: compiling the same
    # source twice in one process yields different absolute vN names.
    # The manifest must cancel that out (this is what makes parallel
    # batches byte-identical to serial ones).
    tracer_a, tracer_b = Tracer(), Tracer()
    prog_a, rep_a = compile_and_profile(SOURCE, "main", [[5]], DBDS, tracer=tracer_a)
    prog_b, rep_b = compile_and_profile(SOURCE, "main", [[5]], DBDS, tracer=tracer_b)
    manifest_a = artifact_manifest(prog_a, rep_a, tracer_a.events)
    manifest_b = artifact_manifest(prog_b, rep_b, tracer_b.events)
    assert json.dumps(manifest_a, sort_keys=True) == json.dumps(
        manifest_b, sort_keys=True
    )


# ----------------------------------------------------------------------
# Hit / miss / round-trip
# ----------------------------------------------------------------------
def test_hit_after_identical_recompile(tmp_path):
    cache = ArtifactCache(tmp_path)
    tracer = Tracer()
    key = cache_key(SOURCE, DBDS, profile_args=[[5]])
    assert cache.get(key, tracer) is None
    entry = compiled_entry(key)
    cache.put(entry, tracer)

    again = cache.get(key, tracer)
    assert again is not None
    assert again.manifest == entry.manifest
    assert again.manifest["digest"] == entry.manifest["digest"]
    assert again.report.to_json() == entry.report.to_json()
    # The rehydrated program is executably identical.
    assert again.program().describe() == entry.program().describe()
    assert [e.name for e in tracer.events] == [
        "cache.miss", "cache.store", "cache.hit",
    ]


def test_an_entry_whose_report_holds_phase_times_still_hits(tmp_path):
    # Schema-8 entries written before the per-phase seconds became a
    # fold of the trace carry ``phase_times`` in their report's units
    # and totals.  Reports are read by key, so those entries still serve.
    from repro.pipeline import cache as cache_module

    assert cache_module.CACHE_SCHEMA_VERSION == 8
    cache = ArtifactCache(tmp_path)
    key = cache_key(SOURCE, DBDS, profile_args=[[5]])
    payload = compiled_entry(key).to_payload()
    units = payload["report"]["units"]
    for unit in units:
        unit["phase_times"] = {"dbds": 0.001, "canonicalize": 0.002}
    payload["report"]["totals"]["phase_times"] = {"dbds": 0.003}
    ArtifactCache._write(cache.path_for(key), key, payload)

    tracer = Tracer()
    entry = cache.get(key, tracer)
    assert entry is not None
    assert [e.name for e in tracer.events] == ["cache.hit"]
    assert entry.report.to_json()["units"] == [
        {name: value for name, value in unit.items() if name != "phase_times"}
        for unit in units
    ]


def test_cache_events_match_schema(tmp_path):
    cache = ArtifactCache(tmp_path)
    tracer = Tracer()
    key = cache_key(SOURCE, DBDS)
    cache.get(key, tracer)  # miss
    cache.put(compiled_entry(key), tracer)  # store
    cache.get(key, tracer)  # hit
    names = [e.name for e in tracer.events]
    assert names == ["cache.miss", "cache.store", "cache.hit"]
    for event in tracer.events:
        assert validate_record(event_to_dict(event)) == []
    # the events are the lookups' one record: the metrics fold them
    lookups = MetricsSnapshot.from_events(tracer.events).counters
    assert lookups["repro_cache_lookups_total"] == {"result=miss": 1, "result=hit": 1}


# ----------------------------------------------------------------------
# Corruption recovery
# ----------------------------------------------------------------------
def _garbage_program_blob(raw: bytes) -> bytes:
    """The entry with a program blob that does not unpickle, re-signed
    with a valid digest."""
    payload = pickle.loads(raw.split(b"\n", 1)[1])
    payload["program_blob"] = b"\x80\x04not a pickle"
    body = pickle.dumps(payload, protocol=PICKLE_PROTOCOL)
    return hashlib.sha256(body).hexdigest().encode("ascii") + b"\n" + body


@pytest.mark.parametrize(
    "corruptor",
    [
        lambda raw: raw[: len(raw) // 2],            # truncated write
        lambda raw: b"garbage\n" + raw[8:],          # digest mismatch
        lambda raw: b"",                              # empty file
        lambda raw: raw.replace(b"\n", b"", 1),       # no digest header
        _garbage_program_blob,                        # digest-valid, blob not
    ],
    ids=[
        "truncated", "digest-mismatch", "empty", "headerless",
        "garbage-program-blob",
    ],
)
def test_corrupted_entry_falls_back_to_recompile(tmp_path, corruptor):
    cache = ArtifactCache(tmp_path)
    key = cache_key(SOURCE, DBDS, profile_args=[[5]])
    cache.put(compiled_entry(key))
    path = cache.path_for(key)
    path.write_bytes(corruptor(path.read_bytes()))

    tracer = Tracer()
    assert cache.get(key, tracer) is None
    assert not path.exists(), "corrupted entry must be deleted"
    evicts = [e for e in tracer.events if e.name == "cache.evict"]
    assert len(evicts) == 1
    assert evicts[0].attrs["reason"] == "corrupted entry"
    assert validate_record(event_to_dict(evicts[0])) == []

    # The driver recompiles and repopulates transparently.
    options = BatchOptions(config=DBDS, jobs=1, args=(5,), cache=cache)
    report = compile_batch([("mem.mini", SOURCE)], options)
    assert report.ok and report.compiled == 1
    assert cache.get(key) is not None


def test_wrong_key_payload_is_treated_as_corrupted(tmp_path):
    cache = ArtifactCache(tmp_path)
    key_a = cache_key(SOURCE, DBDS)
    key_b = cache_key(SOURCE, BASELINE)
    cache.put(compiled_entry(key_a))
    # Copy A's bytes over B's slot: digest is fine but the key inside
    # does not match the slot — must evict, not serve the wrong unit.
    path_b = cache.path_for(key_b)
    path_b.parent.mkdir(parents=True, exist_ok=True)
    path_b.write_bytes(cache.path_for(key_a).read_bytes())
    tracer = Tracer()
    assert cache.get(key_b, tracer) is None
    assert [e.name for e in tracer.events] == ["cache.evict", "cache.miss"]


# ----------------------------------------------------------------------
# Concurrent writers: same key, no torn reads
# ----------------------------------------------------------------------
_WRITER = """
import sys
sys.path.insert(0, "src")
from repro.obs import Tracer
from repro.pipeline.cache import ArtifactCache, cache_key, make_entry
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import DBDS

source = open(sys.argv[2]).read()
cache = ArtifactCache(sys.argv[1])
key = cache_key(source, DBDS, profile_args=[[5]])
tracer = Tracer()
program, report = compile_and_profile(source, "main", [[5]], DBDS, tracer=tracer)
entry = make_entry(key, program, report, tracer.events)
for _ in range(40):
    cache.put(entry)
print("done")
"""


def test_concurrent_writers_same_key(tmp_path):
    source_file = tmp_path / "prog.mini"
    source_file.write_text(SOURCE)
    cache_dir = tmp_path / "cache"
    env = dict(os.environ)

    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER, str(cache_dir), str(source_file)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        for _ in range(2)
    ]

    # Read continuously while both writers hammer the same key: every
    # read must be either a miss (nothing written yet) or a fully
    # valid entry — never a torn/corrupted one.
    cache = ArtifactCache(cache_dir)
    tracer = Tracer()
    key = cache_key(SOURCE, DBDS, profile_args=[[5]])
    observed_hit = False
    while any(p.poll() is None for p in procs):
        entry = cache.get(key, tracer)
        if entry is not None:
            observed_hit = True
            assert entry.key == key
            assert entry.manifest["digest"]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        assert b"done" in out
    assert not tracer.named("cache.evict"), "a reader saw a torn write"

    final = cache.get(key)
    assert final is not None and final.key == key
    assert observed_hit or final is not None


# ----------------------------------------------------------------------
# Entry payload round-trip
# ----------------------------------------------------------------------
def test_entry_payload_round_trip(tmp_path):
    key = cache_key(SOURCE, DBDS)
    entry = compiled_entry(key)
    clone = CacheEntry.from_payload(entry.to_payload())
    assert clone.key == entry.key
    assert clone.manifest == entry.manifest
    assert clone.events == entry.events
    # the trace is the entry's one record of its compile, and a payload
    # from before the counter table went still loads
    payload = entry.to_payload()
    assert "counters" not in payload
    older = CacheEntry.from_payload({**payload, "counters": {"cache.miss": 1}})
    assert older.events == entry.events
    assert json.dumps(clone.report.to_json()) == json.dumps(entry.report.to_json())
