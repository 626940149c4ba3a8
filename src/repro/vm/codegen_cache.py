"""Persistent cache for megaunit's exec-generated source.

The megaunit engine *generates Python source* from bytecode streams
and runs it with ``exec``.  Codegen is pure — a deterministic
function of the instruction stream, the metering mode and the baked-in
limits — so the generated text can be persisted in the artifact
cache's aux store (:meth:`~repro.pipeline.cache.ArtifactCache.put_aux`)
and reused by warm runs, skipping source generation and the per-line
f-string work entirely.

Keys are content digests over schema + per-function stream digests +
every baked knob (``metered``, ``max_steps``, ``max_call_depth``), so a
stale artifact can never be executed against a stream it was not
generated from.  Payloads carry the source plus the function-name order
needed to rebuild the exec namespace without regenerating.  Hits and
misses are counted on the ambient tracer (``vm.codegen_cache.hit`` /
``.miss``), which the ``repro_codegen_cache_total`` metric reads.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, Optional, Sequence

from ..obs.tracer import current_tracer
from .bytecode import BytecodeFunction, disassemble

#: codegen-cache payload layout version (part of every aux key).
#: 2: megaunit budget exits pass ``s``/``c`` and only the live-in
#: registers to ``_finish`` — schema-1 text calls it with the whole
#: register file and must never be exec'd against the new replay.
#: 3: ``==``/``!=`` compile to a bare Python ``==``/``!=`` — schema-2
#: text calls a reference-test helper the exec namespace no longer holds.
#: 4: ``new T[n]`` traps past ``MAX_ARRAY_LENGTH`` — schema-3 text
#: allocates any length and dies of a ``MemoryError``.
CODEGEN_SCHEMA = 4

#: default reprs embed ``id()`` addresses; scrub them so digests are
#: pure functions of structure and compare equal across processes
_ADDR = re.compile(r" object at 0x[0-9a-f]+")


#: the engine label of every key and payload
ENGINE = "megaunit"


def stream_digest(fn: BytecodeFunction) -> str:
    """Scrubbed digest of one function's instruction stream."""
    text = _ADDR.sub("", disassemble(fn))
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
    fns: Sequence[BytecodeFunction],
    metered: bool,
    max_steps: int,
    max_call_depth: int,
) -> str:
    """The aux-store key for one generated source unit."""
    payload = json.dumps(
        {
            "schema": CODEGEN_SCHEMA,
            "engine": ENGINE,
            "functions": [function_digest(fn) for fn in fns],
            "metered": bool(metered),
            "max_steps": max_steps,
            "max_call_depth": max_call_depth,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_source(cache: Optional[Any], key: str) -> Optional[dict]:
    """Aux-store lookup; counts ``vm.codegen_cache.hit``/``.miss``.

    Returns the payload dict on a schema- and engine-matching hit,
    ``None`` otherwise (including when ``cache`` is ``None``)."""
    if cache is None:
        return None
    payload = cache.get_aux(key)
    hit = (
        isinstance(payload, dict)
        and payload.get("schema") == CODEGEN_SCHEMA
        and payload.get("engine") == ENGINE
        and isinstance(payload.get("source"), str)
    )
    current_tracer().count(f"vm.codegen_cache.{'hit' if hit else 'miss'}")
    return payload if hit else None


def store_source(cache: Optional[Any], key: str, payload: dict) -> None:
    """Persist one generated source unit (no-op without a cache)."""
    if cache is None:
        return
    cache.put_aux(key, dict(payload, schema=CODEGEN_SCHEMA, engine=ENGINE))


__all__ = [
    "CODEGEN_SCHEMA",
    "codegen_key",
    "function_digest",
    "load_source",
    "store_source",
    "stream_digest",
]
