"""Load-time artifact verification in the cache (satellite regression).

A cache entry whose bytecode stream was tampered with — and
re-signed with a *valid* whole-payload digest — must be caught by the
verifying cache at load, evicted with a ``cache.evict`` event, counted
in the metrics, and transparently replaced by a recompile.  A cache
built with verification off keeps the old trusting behaviour.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.obs import MetricsRegistry, Tracer, use_registry
from repro.pipeline.cache import (
    PICKLE_PROTOCOL,
    ArtifactCache,
    cache_key,
    make_entry,
    pack_artifact,
    unpack_artifact,
)
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import CONFIGURATIONS
from repro.vm.translate import translate_program

SOURCE = """
fn main(n: int) -> int {
  var total: int = 0;
  var i: int = 0;
  while (i < n) {
    total = total + i * i;
    i = i + 1;
  }
  return total;
}
"""


@pytest.fixture(scope="module")
def artifact():
    program, report = compile_and_profile(
        SOURCE, "main", [[9]], CONFIGURATIONS["dbds"]
    )
    return program, report


def _store(cache, program, report):
    key = cache_key(SOURCE, CONFIGURATIONS["dbds"])
    bytecode = translate_program(program)
    cache.put(make_entry(key, program, report, bytecode=bytecode))
    return key


def _tamper_stream(path):
    """Corrupt one instruction's cost inside the stored artifact, then
    re-sign the file with a correct digest."""
    raw = path.read_bytes()
    _digest, payload = raw.split(b"\n", 1)
    payload_dict = pickle.loads(payload)
    program, bytecode = unpack_artifact(payload_dict["program_blob"])
    fn = bytecode.function("main")
    ins = fn.code[0]
    fn.code = (ins[:1] + (ins[1] + 3,) + ins[2:],) + fn.code[1:]
    payload_dict["program_blob"] = pack_artifact(program, bytecode)
    new_payload = pickle.dumps(payload_dict, protocol=PICKLE_PROTOCOL)
    digest = hashlib.sha256(new_payload).hexdigest().encode("ascii")
    path.write_bytes(digest + b"\n" + new_payload)


def test_tampered_artifact_rejected_and_recompiled(tmp_path, artifact):
    program, report = artifact
    registry = MetricsRegistry()
    with use_registry(registry):
        cache = ArtifactCache(tmp_path, verify_bytecode="load")
        key = _store(cache, program, report)
        _tamper_stream(cache.path_for(key))

        tracer = Tracer()
        assert cache.get(key, tracer) is None
        assert cache.stats.evictions == 1
        evicts = [e for e in tracer.events if e.name == "cache.evict"]
        assert len(evicts) == 1
        assert "bytecode verification failed" in evicts[0].attrs["reason"]
        # the file is gone: the pipeline's miss path recompiles...
        assert not cache.path_for(key).exists()
        key2 = _store(cache, program, report)
        assert key2 == key
        # ...and the replacement loads cleanly (transparent recovery)
        entry = cache.get(key)
        assert entry is not None
        assert entry.bytecode().function("main").code

    snapshot = registry.snapshot()
    assert snapshot.counter_total("repro_bcverify_rejected_artifacts_total") == 1


def test_unverified_cache_trusts_tampered_artifact(tmp_path, artifact):
    program, report = artifact
    cache = ArtifactCache(tmp_path)  # verify_bytecode defaults to off
    key = _store(cache, program, report)
    _tamper_stream(cache.path_for(key))
    # digest is valid, so the trusting cache happily returns the entry
    entry = cache.get(key)
    assert entry is not None
    assert cache.stats.evictions == 0


def test_pristine_artifact_loads_under_verification(tmp_path, artifact):
    program, report = artifact
    cache = ArtifactCache(tmp_path, verify_bytecode="load")
    key = _store(cache, program, report)
    entry = cache.get(key)
    assert entry is not None
    assert cache.stats.hits == 1 and cache.stats.evictions == 0


def test_garbage_blob_rejected_not_raised(tmp_path, artifact):
    """An artifact whose inner pickle is broken must come back as a
    miss (evict), not as an exception escaping ``get``."""
    program, report = artifact
    cache = ArtifactCache(tmp_path, verify_bytecode="load")
    key = _store(cache, program, report)
    path = cache.path_for(key)
    raw = path.read_bytes()
    _digest, payload = raw.split(b"\n", 1)
    payload_dict = pickle.loads(payload)
    payload_dict["program_blob"] = b"\x80\x04not a pickle"
    new_payload = pickle.dumps(payload_dict, protocol=PICKLE_PROTOCOL)
    digest = hashlib.sha256(new_payload).hexdigest().encode("ascii")
    path.write_bytes(digest + b"\n" + new_payload)
    tracer = Tracer()
    assert cache.get(key, tracer) is None
    evicts = [e for e in tracer.events if e.name == "cache.evict"]
    assert evicts and "unpickle" in evicts[0].attrs["reason"]
