"""Persistent cache for megaunit's exec-generated source.

The megaunit engine *generates Python source* from bytecode streams
and runs it with ``exec``.  Codegen is pure — a deterministic function
of the instruction stream and the baked-in limits — so the plain
module's text can be persisted in the artifact cache's aux store
(:meth:`~repro.pipeline.cache.ArtifactCache.put_aux`) and reused by
warm runs, skipping source generation and the per-line f-string work
entirely.

Keys are content digests over schema + per-function stream digests +
every baked knob (``max_steps``, ``MAX_CALL_DEPTH``), so a stale
artifact can never be executed against a stream it was not generated
from.  Payloads carry the source plus the function-name order
needed to rebuild the exec namespace without regenerating.  Each
lookup's verdict is one ``vm.codegen_cache`` event on the ambient
tracer, which the ``repro_codegen_cache_total`` metric folds: a
payload of an older schema under the current key is a hit of the aux
store but a miss here.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, Optional, Sequence

from ..ir.ops import MAX_CALL_DEPTH
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
#: 5: one packed meter ``e = (steps << K) + cycles`` in the one slot
#: ``m[0]``, and ``_finish(vm, m, _fn<N>, e, pc, ...)`` — schema-4 text
#: keeps ``s``/``c`` in two slots and calls the old replay signature.
#: 6: one expression per instruction, wrapping through ``_w`` only out
#: of range — schema-5 text is the same program in longer form, and a
#: cached entry must be the text this codegen would generate.
#: 7: no prologue seeds registers and the exec namespace holds no
#: ``_tmpl<N>`` cells — schema-6 text reads them.
CODEGEN_SCHEMA = 7

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


def codegen_key(fns: Sequence[BytecodeFunction], max_steps: int) -> str:
    """The aux-store key for one generated (plain) source unit; the
    counted module is never cached."""
    payload = json.dumps(
        {
            "schema": CODEGEN_SCHEMA,
            "engine": ENGINE,
            "functions": [function_digest(fn) for fn in fns],
            "max_steps": max_steps,
            "max_call_depth": MAX_CALL_DEPTH,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_source(cache: Optional[Any], key: str) -> Optional[dict]:
    """Aux-store lookup; records its verdict as a ``vm.codegen_cache``
    event.

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
    current_tracer().event(
        "vm.codegen_cache", engine=ENGINE, key=key,
        result="hit" if hit else "miss",
    )
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
