"""Persistent cache for exec-generated engine source.

The closure and megaunit engines *generate Python source* from
bytecode streams and ``exec`` it.  Codegen is pure — a deterministic
function of the instruction stream, the metering mode and the baked-in
limits — so the generated text can be persisted in the artifact
cache's aux store (:meth:`~repro.pipeline.cache.ArtifactCache.put_aux`)
and reused by warm runs, skipping source generation and the per-line
f-string work entirely.

Keys are content digests over schema + engine + per-function stream
digests + every baked knob (``metered``, ``max_steps``,
``max_call_depth``), so a stale artifact can never be executed against
a stream it was not generated from.  Payloads carry the source plus
the callee-name order needed to rebuild the exec namespace without
regenerating.  Hits and misses are counted by the
``repro_codegen_cache_total`` metric, labelled by engine.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, Optional, Sequence

from ..obs.metrics import current_registry
from .bytecode import BytecodeFunction, disassemble

#: codegen-cache payload layout version (part of every aux key).
#: 2: megaunit budget exits pass ``s``/``c`` and only the live-in
#: registers to ``_finish`` — schema-1 text calls it with the whole
#: register file and must never be exec'd against the new replay.
CODEGEN_SCHEMA = 2

#: default reprs embed ``id()`` addresses; scrub them so digests are
#: pure functions of structure and compare equal across processes
_ADDR = re.compile(r" object at 0x[0-9a-f]+")


def stream_digest(fn: BytecodeFunction, stream: str = "code") -> str:
    """Scrubbed digest of one function's instruction stream."""
    text = _ADDR.sub("", disassemble(fn, stream=stream))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def function_digest(fn: BytecodeFunction) -> str:
    """Digest of everything codegen reads from one function: the frame
    shape, the constant template, the block spans and the base stream."""
    payload = json.dumps(
        {
            "name": fn.name,
            "nparams": fn.nparams,
            "nregs": fn.nregs,
            "const_base": fn.const_base,
            "const_count": fn.const_count,
            "template": _ADDR.sub("", repr(fn.template)),
            "blocks": [
                [start, count, _ADDR.sub("", str(name))]
                for start, count, name in fn.blocks
            ],
            "stream": stream_digest(fn),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def codegen_key(
    engine: str,
    fns: Sequence[BytecodeFunction],
    metered: bool,
    max_steps: int,
    max_call_depth: int,
) -> str:
    """The aux-store key for one generated source unit."""
    payload = json.dumps(
        {
            "schema": CODEGEN_SCHEMA,
            "engine": engine,
            "functions": [function_digest(fn) for fn in fns],
            "metered": bool(metered),
            "max_steps": max_steps,
            "max_call_depth": max_call_depth,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_source(
    cache: Optional[Any], key: str, engine: str
) -> Optional[dict]:
    """Aux-store lookup; counts ``repro_codegen_cache_total``.

    Returns the payload dict on a schema- and engine-matching hit,
    ``None`` otherwise (including when ``cache`` is ``None``)."""
    if cache is None:
        return None
    payload = cache.get_aux(key)
    hit = (
        isinstance(payload, dict)
        and payload.get("schema") == CODEGEN_SCHEMA
        and payload.get("engine") == engine
        and isinstance(payload.get("source"), str)
    )
    registry = current_registry()
    if registry.enabled:
        registry.inc(
            "repro_codegen_cache_total",
            result="hit" if hit else "miss",
            engine=engine,
        )
    return payload if hit else None


def store_source(cache: Optional[Any], key: str, payload: dict) -> None:
    """Persist one generated source unit (no-op without a cache)."""
    if cache is None:
        return
    cache.put_aux(key, dict(payload, schema=CODEGEN_SCHEMA))


__all__ = [
    "CODEGEN_SCHEMA",
    "codegen_key",
    "function_digest",
    "load_source",
    "store_source",
    "stream_digest",
]
