"""Seeded corruption campaigns against cached bytecode artifacts.

The load-time verifier's acceptance bar is *"no corrupted instruction
stream ever reaches a dispatch loop"*.  This module turns that into a
repeatable experiment: compile a small corpus, persist the artifacts
through :class:`~repro.pipeline.cache.ArtifactCache`, then — hundreds
of times, driven by one seed — decode an entry, apply a single targeted
mutation (bit flips, opcode swaps, register redirects, cost and weight
perturbations, branch retargets, instruction swaps, template and
block-table tampering), **re-sign the file with a valid digest**, and
assert the verifying cache still rejects it at load.

Re-signing matters: the whole-payload digest only proves the file
matches the bytes someone wrote, so an adversarial (or buggy) writer
defeats it trivially.  Every structural mutation here carries a correct
digest; only the two bit-flip kinds leave it stale, keeping that layer
honest too.  Used by ``repro check --fuzz-corruption N`` and the CI
fuzz step.
"""

from __future__ import annotations

import hashlib
import pickle
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

from ...vm.bytecode import OP_ADD, OP_GE, OPCODE_NAMES

#: small but representative: arithmetic + loop, recursion + calls,
#: arrays + globals — enough to populate every instruction family the
#: translator emits for real programs.
DEFAULT_CORPUS = (
    (
        "loops",
        """
        fn main(n: int) -> int {
          var acc: int = 0;
          var i: int = 0;
          while (i < n) {
            if (i % 3 == 0) { acc = acc + i * 2; }
            else { acc = acc - 1; }
            i = i + 1;
          }
          return acc;
        }
        """,
    ),
    (
        "calls",
        """
        fn fib(n: int) -> int {
          if (n < 2) { return n; }
          return fib(n - 1) + fib(n - 2);
        }
        fn main(n: int) -> int {
          var total: int = 0;
          var i: int = 0;
          while (i < n) {
            total = total + fib(i);
            i = i + 1;
          }
          return total;
        }
        """,
    ),
    (
        "arrays",
        """
        fn fill(data: int[], n: int) -> int {
          var i: int = 0;
          while (i < n) {
            data[i] = i * i;
            i = i + 1;
          }
          return n;
        }
        fn main(n: int) -> int {
          var data: int[] = new int[n];
          fill(data, n);
          var sum: int = 0;
          var i: int = 0;
          while (i < n) {
            sum = sum + data[i];
            i = i + 1;
          }
          return sum;
        }
        """,
    ),
)

_ARITH_CMP = frozenset(range(OP_ADD, OP_GE + 1))


@dataclass
class CorruptionRecord:
    """One mutation attempt and its fate."""

    index: int
    target: str
    kind: str
    detail: str
    rejected: bool
    evict_reason: str = ""


@dataclass
class CorruptionReport:
    """Outcome of a whole campaign."""

    seed: int
    total: int = 0
    rejected: int = 0
    records: list[CorruptionRecord] = field(default_factory=list)
    kinds: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.total > 0 and self.rejected == self.total

    def accepted(self) -> list[CorruptionRecord]:
        return [r for r in self.records if not r.rejected]

    def format(self) -> str:
        lines = [
            f"corruption campaign (seed {self.seed}): "
            f"{self.rejected}/{self.total} mutation(s) rejected at load"
        ]
        for kind in sorted(self.kinds):
            lines.append(f"  {kind}: {self.kinds[kind]}")
        for record in self.accepted():
            lines.append(
                f"  NOT REJECTED: #{record.index} {record.kind} on "
                f"{record.target}: {record.detail}"
            )
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "total": self.total,
            "rejected": self.rejected,
            "ok": self.ok,
            "kinds": dict(sorted(self.kinds.items())),
            "accepted": [
                {
                    "index": r.index,
                    "target": r.target,
                    "kind": r.kind,
                    "detail": r.detail,
                }
                for r in self.accepted()
            ],
        }


# ----------------------------------------------------------------------
# Mutators.  Each takes (rng, bytecode) on freshly unpickled objects,
# applies at most one change and returns a description string, or None
# when the function offers no site for this kind (the driver then tries
# the next kind).  Every applied mutation is guaranteed to differ from
# the pristine artifact, so at minimum the retranslation-equivalence
# checker must fire.
# ----------------------------------------------------------------------
def _pick_fn(rng, bytecode):
    names = sorted(
        name for name, fn in bytecode.functions.items() if len(fn.code) >= 2
    )
    if not names:
        return None
    return bytecode.functions[rng.choice(names)]


def _replace_code(fn, pc, ins) -> None:
    code = list(fn.code)
    code[pc] = ins
    fn.code = tuple(code)


def _mut_opcode(rng, bytecode):
    fn = _pick_fn(rng, bytecode)
    if fn is None:
        return None
    pc = rng.randrange(len(fn.code))
    ins = fn.code[pc]
    new_op = rng.randrange(len(OPCODE_NAMES))
    while new_op == ins[0]:
        new_op = rng.randrange(len(OPCODE_NAMES))
    _replace_code(fn, pc, (new_op,) + ins[1:])
    return f"{fn.name}: code[{pc}] opcode {ins[0]} -> {new_op}"


def _mut_register(rng, bytecode):
    fn = _pick_fn(rng, bytecode)
    if fn is None or fn.nregs < 2:
        return None
    sites = [
        pc for pc, ins in enumerate(fn.code) if ins[0] in _ARITH_CMP
    ]
    if not sites:
        return None
    pc = rng.choice(sites)
    ins = fn.code[pc]
    slot = rng.choice((3, 4, 5))
    reg = ins[slot]
    new_reg = (reg + 1 + rng.randrange(fn.nregs - 1)) % fn.nregs
    _replace_code(
        fn, pc, ins[:slot] + (new_reg,) + ins[slot + 1:]
    )
    return f"{fn.name}: code[{pc}] slot {slot} r{reg} -> r{new_reg}"


def _mut_cost(rng, bytecode):
    fn = _pick_fn(rng, bytecode)
    if fn is None:
        return None
    pc = rng.randrange(len(fn.code))
    ins = fn.code[pc]
    _replace_code(fn, pc, ins[:1] + (ins[1] + 1,) + ins[2:])
    return f"{fn.name}: code[{pc}] cost {ins[1]} -> {ins[1] + 1}"


def _mut_branch(rng, bytecode):
    fn = _pick_fn(rng, bytecode)
    if fn is None:
        return None
    sites = []
    for pc, ins in enumerate(fn.code):
        for slot, operand in enumerate(ins):
            if (
                isinstance(operand, tuple)
                and len(operand) == 4
                and isinstance(operand[0], int)
            ):
                sites.append((pc, slot))
    if not sites:
        return None
    pc, slot = rng.choice(sites)
    ins = fn.code[pc]
    edge = ins[slot]
    new_target = (edge[0] + 1 + rng.randrange(len(fn.code))) % (
        len(fn.code) + 1
    )
    if new_target == edge[0]:
        new_target = (new_target + 1) % (len(fn.code) + 1)
    new_edge = (new_target,) + edge[1:]
    _replace_code(
        fn, pc, ins[:slot] + (new_edge,) + ins[slot + 1:]
    )
    return (
        f"{fn.name}: code[{pc}] branch target "
        f"{edge[0]} -> {new_target}"
    )


def _mut_swap(rng, bytecode):
    fn = _pick_fn(rng, bytecode)
    if fn is None:
        return None
    sites = [
        pc
        for pc in range(len(fn.code) - 1)
        if fn.code[pc] != fn.code[pc + 1]
    ]
    if not sites:
        return None
    pc = rng.choice(sites)
    code = list(fn.code)
    code[pc], code[pc + 1] = code[pc + 1], code[pc]
    fn.code = tuple(code)
    return f"{fn.name}: swapped code[{pc}] and code[{pc + 1}]"


def _mut_template(rng, bytecode):
    candidates = []
    for name, fn in sorted(bytecode.functions.items()):
        for reg in range(fn.const_base, fn.const_base + fn.const_count):
            if type(fn.template[reg]) is int:
                candidates.append((fn, reg))
    if not candidates:
        return None
    fn, reg = candidates[rng.randrange(len(candidates))]
    old = fn.template[reg]
    fn.template = list(fn.template)
    fn.template[reg] = old + 1 + rng.randrange(9)
    return (
        f"{fn.name}: template constant r{reg} "
        f"{old} -> {fn.template[reg]}"
    )


def _mut_blocks(rng, bytecode):
    fn = _pick_fn(rng, bytecode)
    if fn is None or not fn.blocks:
        return None
    fn.blocks = ()
    return f"{fn.name}: block table dropped"


#: structural mutators, applied to a freshly decoded artifact and
#: written back with a *valid* digest
_MUTATORS = (
    ("opcode", _mut_opcode),
    ("register", _mut_register),
    ("cost", _mut_cost),
    ("branch", _mut_branch),
    ("swap", _mut_swap),
    ("template", _mut_template),
    ("blocks", _mut_blocks),
)

#: raw bit flips, applied to the entry file's bytes
_BITFLIP_KINDS = ("bitflip-payload", "bitflip-file")


def _flip_bit(data: bytes, offset: int, bit: int) -> bytes:
    mutated = bytearray(data)
    mutated[offset] ^= 1 << bit
    return bytes(mutated)


def corruption_campaign(
    seed: int = 0,
    corruptions: int = 200,
    corpus: Optional[Sequence[tuple[str, str]]] = None,
    config=None,
    cache_dir: Optional[str] = None,
) -> CorruptionReport:
    """Run a seeded campaign of single-point artifact corruptions.

    Compiles ``corpus`` (name, source) pairs once, stores the artifacts
    in a verifying cache, then per iteration mutates one stored file
    and asserts :meth:`ArtifactCache.get` refuses it.  The pristine
    bytes are restored after every attempt, and the campaign ends with
    a sanity pass proving the untouched entries still load.
    """
    from ...pipeline.cache import (
        PICKLE_PROTOCOL,
        ArtifactCache,
        pack_artifact,
        unpack_artifact,
    )
    from ...pipeline.compiler import jit
    from ...pipeline.config import CONFIGURATIONS

    if config is None:
        config = CONFIGURATIONS["dbds"]
    if corpus is None:
        corpus = DEFAULT_CORPUS
    rng = random.Random(seed)
    report = CorruptionReport(seed=seed)

    with tempfile.TemporaryDirectory(prefix="bccorrupt.") as tmp:
        cache = ArtifactCache(
            cache_dir if cache_dir is not None else tmp,
            verify_bytecode="load",
        )
        targets = []
        for name, source in corpus:
            key = jit(source, "main", [[10]], config, cache=cache).key
            path = cache.path_for(key)
            targets.append((name, key, path, path.read_bytes()))

        for index in range(corruptions):
            name, key, path, pristine = targets[index % len(targets)]
            use_bitflip = rng.randrange(8) == 0
            if use_bitflip:
                kind = _BITFLIP_KINDS[rng.randrange(2)]
                _digest, payload = pristine.split(b"\n", 1)
                if kind == "bitflip-payload":
                    # flip inside the payload, digest left stale
                    offset = len(pristine) - len(payload)
                    offset += rng.randrange(len(payload))
                else:
                    offset = rng.randrange(len(pristine))
                bit = rng.randrange(8)
                mutated = _flip_bit(pristine, offset, bit)
                if mutated == pristine:  # cannot happen, but stay honest
                    continue
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(mutated)
                detail = f"bit {bit} at byte {offset}"
            else:
                _digest, payload = pristine.split(b"\n", 1)
                payload_dict = pickle.loads(payload)
                program, bytecode = unpack_artifact(
                    payload_dict["program_blob"]
                )
                start = rng.randrange(len(_MUTATORS))
                detail = kind = None
                for step in range(len(_MUTATORS)):
                    name_k, mutator = _MUTATORS[
                        (start + step) % len(_MUTATORS)
                    ]
                    detail = mutator(rng, bytecode)
                    if detail is not None:
                        kind = name_k
                        break
                if detail is None:
                    continue
                payload_dict["program_blob"] = pack_artifact(
                    program, bytecode
                )
                new_payload = pickle.dumps(
                    payload_dict, protocol=PICKLE_PROTOCOL
                )
                new_digest = hashlib.sha256(new_payload).hexdigest()
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(
                    new_digest.encode("ascii") + b"\n" + new_payload
                )

            loaded = cache.get(key)
            rejected = loaded is None
            report.total += 1
            report.rejected += int(rejected)
            report.kinds[kind] = report.kinds.get(kind, 0) + 1
            report.records.append(
                CorruptionRecord(
                    index=index,
                    target=name,
                    kind=kind,
                    detail=detail,
                    rejected=rejected,
                )
            )
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(pristine)

        for name, key, path, _pristine in targets:
            if cache.get(key) is None:
                report.records.append(
                    CorruptionRecord(
                        index=-1,
                        target=name,
                        kind="pristine",
                        detail="pristine artifact no longer loads",
                        rejected=False,
                    )
                )
                report.total += 1
    return report


__all__ = [
    "DEFAULT_CORPUS",
    "CorruptionRecord",
    "CorruptionReport",
    "corruption_campaign",
]
