"""Persistent compilation-artifact cache.

A warm recompile of an unchanged source must skip parsing, the
profiling run and the whole simulate → trade-off → optimize pipeline.
The cache stores one :class:`CacheEntry` per *(source, configuration,
repro version, profiling inputs)* combination — the optimized program
(pickled; never its VM translation, which every run makes afresh), the
:class:`~repro.pipeline.front.CompilationReport`, the full event
trace of the original compilation, and a deterministic **artifact
manifest** (IR dump + DBDS decision list + size/duplication numbers,
no wall-clock fields) whose SHA-256 digest is the identity the
differential tests compare — parallel batch compiles must be
byte-identical to serial ones at the manifest level.

Storage layout and durability::

    <cache-dir>/<key[:2]>/<key>.entry
    # file = "<sha256-hex-of-payload>\n" + pickle(payload)

Writes go to a per-process temp file in the same directory followed by
``os.replace``, so concurrent writers of the same key can never
produce a torn read — the last complete write wins.  Reads verify the
leading digest and the key embedded in the payload, and decode the
program blob; any mismatch or unpickling failure counts as a
corrupted entry: the file is deleted, a ``cache.evict`` event is
emitted, and the caller falls back to a cold compile.

Telemetry: ``cache.hit`` / ``cache.miss`` / ``cache.store`` /
``cache.evict`` events flow through :mod:`repro.obs` (the ambient
tracer by default); an entry's ``cache.hit`` and ``cache.store`` carry
its size in ``bytes``.  See docs/OBSERVABILITY.md for the schema and
docs/PIPELINE.md for the key diagram.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import json
import os
import pickle
import re
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from ..ir.graph import Program
from ..obs.sinks import event_from_dict, event_to_dict
from ..obs.tracer import Event, Tracer, current_tracer
from .front import CompilationReport
from .config import CompilerConfig

#: bump when the on-disk payload layout changes (invalidates old dirs).
#: v3: bytecode artifacts carry block spans and const ranges.
#: v4: the aux store additionally carries exec-generated megaunit
#: source (keyed per repro.vm.codegen_cache) — old dirs are
#: invalidated wholesale so a v3 tree can never serve generated text.
#: v5: program blobs are shell-first pickle streams (see
#: :func:`pack_artifact`), which a v4 reader would rehydrate as empty
#: shells.
#: v6: bytecode artifacts carry only the plain ``fn.code`` stream (no
#: fused/quickened fast stream); a v5 blob would rehydrate functions
#: with a stale ``xcode`` attribute.
#: v7: program blobs hold the optimized program alone, no bytecode
#: translation.
#: v8: types, stamps and class declarations are slotted classes; a v7
#: blob holds their state as a ``__dict__``, which they cannot restore.
CACHE_SCHEMA_VERSION = 8

#: pickle protocol pinned so parent and pool workers agree
PICKLE_PROTOCOL = 4


def repro_version() -> str:
    """The package version baked into every cache key."""
    from .. import __version__

    return __version__


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def config_fingerprint(config: CompilerConfig) -> str:
    """Deterministic digest of every tunable in a configuration
    (delegates to :meth:`CompilerConfig.fingerprint`)."""
    return config.fingerprint()


def source_fingerprint(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def cache_key(
    source: str,
    config: CompilerConfig,
    entry: str = "main",
    profile_args: Sequence[Sequence[Any]] = ((10,),),
    check_ir: str = "off",
    version: Optional[str] = None,
) -> str:
    """The cache identity of one compilation.

    ``entry``/``profile_args`` are part of the key because the
    profiling run feeds branch probabilities into the trade-off tier —
    different profiles legitimately produce different artifacts.
    ``check_ir`` is included so a checked compile never satisfies a
    request for an unchecked one (and vice versa).
    """
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "source": source_fingerprint(source),
            "config": config_fingerprint(config),
            "version": version if version is not None else repro_version(),
            "entry": entry,
            "profile_args": [list(args) for args in profile_args],
            "check_ir": check_ir,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Artifact manifests
# ----------------------------------------------------------------------
_VALUE_NAME_RE = re.compile(r"\bv(\d+)\b")


def normalize_ir(dump: str) -> str:
    """Renumber SSA value names in an IR dump to first-appearance order.

    ``Value.id`` comes from a process-global counter, so two isomorphic
    compiles of the same source print different absolute ``vN`` names
    depending on what the process compiled before.  Manifests must be a
    function of the compilation alone — a pool worker and an inline
    compile have different ID histories but identical IR — so value
    names are canonicalized to ``v0, v1, ...`` in order of appearance.
    Block labels and parameter/constant names are already per-graph
    deterministic and pass through untouched.
    """
    mapping: dict[str, str] = {}

    def rename(match: "re.Match[str]") -> str:
        old = match.group(1)
        if old not in mapping:
            mapping[old] = f"v{len(mapping)}"
        return mapping[old]

    return _VALUE_NAME_RE.sub(rename, dump)


def artifact_manifest(
    program: Program,
    report: CompilationReport,
    events: Iterable[Event] = (),
) -> dict[str, Any]:
    """The deterministic identity of one compilation's output.

    Contains only reproducible facts — the optimized IR of every unit,
    the DBDS decision list (event attrs, no timestamps), code sizes,
    duplication and candidate counts.  Wall-clock fields are excluded
    on purpose: a parallel compile is *bit-identical* to a serial one
    exactly when the manifests match byte for byte.
    """
    decisions = [
        dict(sorted(event.attrs.items()))
        for event in events
        if event.name == "dbds.decision"
    ]
    manifest = {
        "config": report.config,
        "units": [
            {
                "function": unit.function,
                "code_size": unit.code_size,
                "initial_code_size": unit.initial_code_size,
                "duplications": unit.duplications,
                "candidates": unit.candidates,
            }
            for unit in report.units
        ],
        "ir": normalize_ir(program.describe()),
        "decisions": decisions,
    }
    manifest["digest"] = manifest_digest(manifest)
    return manifest


def manifest_digest(manifest: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON form (``digest`` key excluded)."""
    body = {k: v for k, v in manifest.items() if k != "digest"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")
    ).hexdigest()


# ----------------------------------------------------------------------
# Entries
# ----------------------------------------------------------------------
class CacheEntry:
    """Everything needed to skip a recompile.

    ``program_blob`` is the packed optimized :class:`Program` (see
    :func:`pack_artifact`); ``events`` is the original compilation's
    full trace (so :func:`~repro.obs.profile.format_decisions` renders
    its DBDS decisions offline from cache).
    """

    __slots__ = ("key", "manifest", "report", "program_blob", "events", "_program")

    def __init__(
        self,
        key: str,
        manifest: dict[str, Any],
        report: CompilationReport,
        program_blob: bytes,
        events: Optional[list[Event]] = None,
    ) -> None:
        self.key = key
        self.manifest = manifest
        self.report = report
        self.program_blob = program_blob
        self.events = events if events is not None else []
        #: memoized program — :meth:`ArtifactCache.get` decodes it to
        #: validate the entry, and the caller then asks for it
        self._program: Optional[Program] = None

    def program(self) -> Program:
        """Rehydrate the optimized program."""
        if self._program is None:
            self._program = unpack_artifact(self.program_blob)
        return self._program

    # -- serialization --------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "manifest": self.manifest,
            "report": self.report.to_json(),
            "program_blob": self.program_blob,
            "events": [event_to_dict(e) for e in self.events],
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CacheEntry":
        return cls(
            key=payload["key"],
            manifest=payload["manifest"],
            report=CompilationReport.from_json(payload["report"]),
            program_blob=payload["program_blob"],
            events=[event_from_dict(d) for d in payload.get("events", [])],
        )


class _ShellPickler(pickle.Pickler):
    """Writes ``repro`` objects as empty shells and defers their state.

    A plain pickle recurses once per not-yet-written object along a
    reference chain, so deep IR (long block, instruction and use
    chains) overflows the recursion limit.  Here every identity-hashed
    ``repro`` object is written as a bare ``cls.__new__`` shell and its
    attribute state is queued in :attr:`pending`; :func:`pack_artifact`
    writes the queue as further pickles on the same stream (the memo
    carries across ``dump`` calls).  Recursion depth is then bounded by
    the container nesting inside one object's state, not by the graph.
    Value-hashed objects (types, stamps, enums) are pickled as usual: a
    shell of one could not be hashed as a dict key."""

    def __init__(self, file) -> None:
        super().__init__(file, protocol=PICKLE_PROTOCOL)
        self.pending: list[tuple[Any, Any]] = []

    def reducer_override(self, obj):
        cls = type(obj)
        if cls.__hash__ is not object.__hash__ or not cls.__module__.startswith(
            "repro."
        ):
            return NotImplemented
        reduced = obj.__reduce_ex__(PICKLE_PROTOCOL)
        if reduced[0] is not copyreg.__newobj__ or any(
            part is not None for part in reduced[3:]
        ):
            return NotImplemented
        if reduced[2] is not None:
            self.pending.append((obj, reduced[2]))
        return reduced[:2]


def _set_state(obj: Any, state: Any) -> None:
    """Apply deferred pickle state exactly as the BUILD opcode does."""
    setstate = getattr(obj, "__setstate__", None)
    if setstate is not None:
        setstate(state)
        return
    slots = None
    if isinstance(state, tuple):
        state, slots = state
    if state:
        obj.__dict__.update(state)
    if slots:
        for name, value in slots.items():
            setattr(obj, name, value)


def pack_artifact(program: Program) -> bytes:
    """Pickle ``program`` as ONE blob, of any depth.

    The stream is the root pickle followed by batches of deferred
    ``(shell, state)`` pairs (see :class:`_ShellPickler`), so deep IR
    never hits the recursion limit.
    """
    buffer = io.BytesIO()
    pickler = _ShellPickler(buffer)
    pickler.dump(program)
    while pickler.pending:
        batch, pickler.pending = pickler.pending, []
        pickler.dump(batch)
    return buffer.getvalue()


def unpack_artifact(blob: bytes) -> Program:
    """Inverse of :func:`pack_artifact`."""
    stream = io.BytesIO(blob)
    unpickler = pickle.Unpickler(stream)
    program = unpickler.load()
    while stream.tell() < len(blob):
        for shell, state in unpickler.load():
            _set_state(shell, state)
    return program


def make_entry(
    key: str,
    program: Program,
    report: CompilationReport,
    events: Iterable[Event] = (),
) -> CacheEntry:
    """Build an entry from a just-finished compilation."""
    events = list(events)
    return CacheEntry(
        key=key,
        manifest=artifact_manifest(program, report, events),
        report=report,
        program_blob=pack_artifact(program),
        events=events,
    )


def _decode_entry(payload: dict[str, Any]) -> CacheEntry:
    """An entry from its payload, program blob decoded: a blob that does
    not unpickle makes the whole entry corrupted."""
    entry = CacheEntry.from_payload(payload)
    entry.program()
    return entry


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class ArtifactCache:
    """Content-addressed store of :class:`CacheEntry` files.

    Thread/process safe for writers (atomic ``os.replace``); readers
    verify a whole-payload digest, so a reader can never observe a
    partially written entry — worst case it misses.  It keeps no
    tallies: every lookup, store and eviction is a ``cache.*`` event of
    the tracer it is given (default: the ambient one), which
    ``--cache-stats`` and the metrics fold.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.entry"

    # ------------------------------------------------------------------
    def get(self, key: str, tracer: Optional[Tracer] = None) -> Optional[CacheEntry]:
        """The entry for ``key``, or None (miss or corrupted)."""
        tracer = tracer if tracer is not None else current_tracer()
        path = self.path_for(key)
        raw, entry = self._read(path, _decode_entry)
        if raw is None:
            return self._miss(key, tracer)
        if entry is None or entry.key != key:
            self._evict(key, path, "corrupted entry", tracer)
            return self._miss(key, tracer)
        tracer.event("cache.hit", key=key, path=str(path), bytes=len(raw))
        return entry

    def put(
        self, entry: CacheEntry, tracer: Optional[Tracer] = None
    ) -> Path:
        """Atomically persist ``entry``; returns its path."""
        tracer = tracer if tracer is not None else current_tracer()
        path = self.path_for(entry.key)
        size = self._write(path, entry.key, entry.to_payload())
        tracer.event("cache.store", key=entry.key, path=str(path), bytes=size)
        return path

    # ------------------------------------------------------------------
    # Aux blobs: small digest-verified side artifacts keyed separately
    # from compilation entries — megaunit stores its generated source
    # here (repro.vm.codegen_cache).
    # Same durability story as entries: atomic replace on write, a
    # whole-payload digest on read, corrupted files evicted.
    # ------------------------------------------------------------------
    def aux_path_for(self, key: str) -> Path:
        return self.root / "aux" / key[:2] / f"{key}.aux"

    def get_aux(self, key: str, tracer: Optional[Tracer] = None) -> Optional[Any]:
        """The aux payload for ``key``, or None (miss or corrupted)."""
        tracer = tracer if tracer is not None else current_tracer()
        path = self.aux_path_for(key)
        raw, payload = self._read(path)
        if raw is None:
            return self._miss(key, tracer, kind="aux")
        if payload is None:
            self._evict(key, path, "corrupted aux blob", tracer)
            return self._miss(key, tracer, kind="aux")
        tracer.event("cache.hit", key=key, path=str(path), kind="aux")
        return payload

    def put_aux(
        self, key: str, payload: Any, tracer: Optional[Tracer] = None
    ) -> Path:
        """Atomically persist an aux ``payload``; returns its path."""
        tracer = tracer if tracer is not None else current_tracer()
        path = self.aux_path_for(key)
        self._write(path, key, payload)
        tracer.event("cache.store", key=key, path=str(path), kind="aux")
        return path

    # ------------------------------------------------------------------
    @staticmethod
    def _read(
        path: Path, decode: Optional[Callable[[Any], Any]] = None
    ) -> tuple[Optional[bytes], Any]:
        """``(raw bytes, payload)`` of the file at ``path``: the payload
        unpickled after its digest checks out (and passed through
        ``decode``), None when the file is corrupted; ``(None, None)``
        when there is no file."""
        try:
            raw = path.read_bytes()
        except OSError:
            return None, None
        try:
            digest, body = raw.split(b"\n", 1)
            if hashlib.sha256(body).hexdigest().encode("ascii") == digest:
                payload = pickle.loads(body)
                return raw, decode(payload) if decode is not None else payload
        except Exception:
            pass
        return raw, None

    @staticmethod
    def _write(path: Path, key: str, payload: Any) -> int:
        """Atomically write ``payload`` digest-first (a temp file in the
        same directory, then ``os.replace``); returns the pickle size."""
        path.parent.mkdir(parents=True, exist_ok=True)
        body = pickle.dumps(payload, protocol=PICKLE_PROTOCOL)
        digest = hashlib.sha256(body).hexdigest()
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:8]}.", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(digest.encode("ascii") + b"\n" + body)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return len(body)

    def _miss(self, key: str, tracer: Tracer, **attrs: Any) -> None:
        """Record a lookup that found nothing usable; returns None."""
        tracer.event("cache.miss", key=key, **attrs)

    def _evict(
        self, key: str, path: Path, reason: str, tracer: Tracer
    ) -> None:
        try:
            path.unlink()
        except OSError:
            pass
        tracer.event("cache.evict", key=key, reason=reason)
