"""Tiered adaptive execution: baseline tier-0 frames, hot-swap tier-up.

The paper assumes a HotSpot-style tiered JIT: code starts life in a
cheap baseline tier that *profiles itself*, and only hot functions pay
for the optimizing tier.  This module closes that loop for the VM.
Every function of a :class:`TieredVirtualMachine` starts in the
**baseline translation** — the flat-tuple stream produced by
``translate_program(program, fuse=False)``: no superinstruction
fusion, no quickening, no fast stream at all — executed by a dispatch
loop that additionally maintains cheap **call / back-edge / branch
counters** plus per-block and per-branch live profile tallies.  The
counters live outside step/cycle accounting: a tier-0 frame reports
steps and cycles bit-identical to the plain machine loops.

When a function's hotness (``calls + backedges``) reaches the
:class:`TieringPolicy` threshold, the :class:`TieringController`
**promotes** it: the live profile is snapshotted and fingerprinted,
a superinstruction plan is mined from it (reusing a fingerprint-keyed
plan from the :class:`~repro.pipeline.cache.ArtifactCache` aux store
when one exists), :func:`~repro.vm.fusion.fuse_function` builds the
optimized fast stream, the stream is optionally verified by the
``bcverify`` rewrite-mode checkers, and ``fn.xcode`` is swapped in
atomically.  Quickening then happens on the first optimized frame
exactly as in the always-fused engine.

Swap-point invariants (see docs/TIERING.md for the state machine):

* the swap is visible **only at call boundaries** — frame dispatch
  reads ``fn.xcode`` once at entry, so a frame that started in tier-0
  finishes in tier-0 even if its function is promoted mid-frame
  (promotion triggered by its own back edges included);
* fused and flat streams are step/cycle identical by construction
  (fusion preserves summed costs and carries step weights), so the
  swap never perturbs accounting — a budget stop lands on the same
  step whether or not a promotion happened first;
* hooked runs (profile collector or observer attached) delegate to
  the base machine loops untouched: hook sequences are bit-identical
  to ``--engine=vm`` and tiering simply pauses for those runs.

Promotion order, the ``tier.promote``/``tier.compile`` event stream
and the promoted stream digests are deterministic functions of
(source, seed, thresholds): counters advance in execution order and
plan mining is tie-broken deterministically.

Telemetry: ``tier.promote`` / ``tier.compile`` tracer events through
the ambient tracer and ``repro_tier_*`` metrics through the ambient
registry (docs/OBSERVABILITY.md lists both schemas).
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass
from typing import Any, Optional

from ..interp.interpreter import BudgetExceeded
from ..ir.ops import EvaluationTrap
from ..obs.metrics import current_registry
from ..obs.tracer import current_tracer
from ..pipeline.config import DEFAULT_TIER2_THRESHOLD, DEFAULT_TIER_THRESHOLD
from .bytecode import (
    OP_CALL,
    OP_GOTO,
    OP_IF,
    BytecodeFunction,
    BytecodeProgram,
    disassemble,
)
from .fusion import DEFAULT_TOP_PAIRS, fuse_function, mine_hot_pairs
from .machine import _HANDLERS, VirtualMachine

#: plan-cache payload layout version (part of every aux key)
TIER_PLAN_SCHEMA = 1

#: sentinel for functions whose tier-2 promotion was declined (no
#: megaunit entry, or insufficient recursion headroom) — they stay in
#: the fused/quickened tier-1 forever
_TIER2_BLOCKED = object()


@dataclass(frozen=True)
class TieringPolicy:
    """The tiering controller's knobs.

    ``threshold`` is the hotness (invocation count plus back-edge
    count) at which a function is promoted; ``top_pairs`` bounds the
    mined superinstruction plan; ``check_bc="rewrite"`` verifies every
    promoted stream with the static bytecode checkers before it can
    reach dispatch (a violation raises
    :class:`~repro.analysis.bcverify.BytecodeVerificationError` and
    the function stays in tier-0).  ``tier2_engine="megaunit"``
    enables the optional second promotion: a function that accumulates
    ``tier2_threshold`` tier-1 invocations dispatches through the
    whole-program megaunit module from then on (docs/TIERING.md).
    """

    threshold: int = DEFAULT_TIER_THRESHOLD
    top_pairs: int = DEFAULT_TOP_PAIRS
    check_bc: str = "off"
    tier2_engine: str = "off"
    tier2_threshold: int = DEFAULT_TIER2_THRESHOLD

    def fingerprint(self) -> str:
        """Deterministic digest of every knob (part of plan-cache keys)."""
        payload = json.dumps(
            {"threshold": self.threshold, "top_pairs": self.top_pairs},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class FunctionTierState:
    """Counters and live profile of one function in tier-0.

    ``blocks`` maps CFG blocks to entry counts and ``branches`` maps
    the pc of each conditional branch to ``[taken, not_taken]`` —
    both keyed by stable per-function identities, so profile
    fingerprints agree across processes.  All counters are maintained
    outside step/cycle accounting.
    """

    __slots__ = (
        "calls", "backedges", "branches_taken", "blocks", "branches",
        "promotable", "tier1_calls",
    )

    def __init__(self) -> None:
        self.calls = 0
        self.backedges = 0
        self.branches_taken = 0
        self.blocks: dict[Any, int] = {}
        self.branches: dict[int, list[int]] = {}
        self.promotable = True
        #: invocations since tier-1 promotion (drives optional tier-2)
        self.tier1_calls = 0

    @property
    def hotness(self) -> int:
        return self.calls + self.backedges


class _LiveVMProfile:
    """Minimal :class:`~repro.vm.profiler.VMProfile` facade over the
    tier-0 counters — exactly the ``_blocks`` attribute that
    :func:`~repro.vm.fusion.mine_hot_pairs` weights pairs by.  Block
    hotness is the live entry count (relative order is all mining
    needs; absolute cycle attribution would require metering the
    baseline tier, defeating its purpose)."""

    def __init__(self, states: dict[str, FunctionTierState]) -> None:
        self._blocks: dict[Any, tuple[str, int, float]] = {}
        for name, state in states.items():
            for block, count in state.blocks.items():
                self._blocks[block] = (name, count, float(count))


class TieringController:
    """Detects hotness, recompiles, and hot-swaps — the tier-up brain.

    One controller serves one :class:`TieredVirtualMachine`; its
    ``promotions`` list records every tier-up in execution order (the
    determinism tests compare it across fresh processes).
    """

    def __init__(
        self,
        program: Any,
        bytecode: BytecodeProgram,
        policy: TieringPolicy,
        plan_cache: Optional[Any] = None,
    ) -> None:
        self.program = program
        self.bytecode = bytecode
        self.policy = policy
        self.plan_cache = plan_cache
        self.states: dict[str, FunctionTierState] = {}
        #: tier-up log in promotion order (deterministic)
        self.promotions: list[dict[str, Any]] = []

    def state_for(self, fn: BytecodeFunction) -> FunctionTierState:
        state = self.states.get(fn.name)
        if state is None:
            state = self.states[fn.name] = FunctionTierState()
            if not fn.blocks:
                # Legacy/partial translation without block spans: no
                # fusion possible, stays in tier-0 forever.
                state.promotable = False
        return state

    # ------------------------------------------------------------------
    # Fingerprints and digests
    # ------------------------------------------------------------------
    def profile_fingerprint(self) -> str:
        """Deterministic digest of the whole live profile snapshot."""
        snapshot = {
            name: {
                "calls": state.calls,
                "backedges": state.backedges,
                "blocks": sorted(
                    (block.name, count)
                    for block, count in state.blocks.items()
                ),
                "branches": sorted(
                    (pc, counts[0], counts[1])
                    for pc, counts in state.branches.items()
                ),
            }
            for name, state in sorted(self.states.items())
        }
        payload = json.dumps(snapshot, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @staticmethod
    def stream_digest(fn: BytecodeFunction) -> str:
        """Digest of a function's current executable stream (the fast
        stream once promoted, the baseline stream before).

        Quickened guard instructions embed IR node objects whose
        default reprs carry ``id()`` addresses; those are scrubbed so
        the digest is a pure function of the stream's structure and
        compares equal across processes.
        """
        text = disassemble(
            fn, stream="xcode" if fn.xcode is not None else "code"
        )
        text = re.sub(r" object at 0x[0-9a-f]+", "", text)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _plan_key(self, fn: BytecodeFunction, profile_fp: str) -> str:
        payload = json.dumps(
            {
                "schema": TIER_PLAN_SCHEMA,
                "function": fn.name,
                "baseline": self.stream_digest(fn),
                "profile": profile_fp,
                "policy": self.policy.fingerprint(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Promotion
    # ------------------------------------------------------------------
    def promote(
        self, fn: BytecodeFunction, state: FunctionTierState, trigger: str
    ) -> None:
        """Recompile ``fn`` from the live profile and swap its stream in.

        ``trigger`` is ``"entry"`` (threshold crossed at a call
        boundary: the promoting call itself runs optimized) or
        ``"backedge"`` (crossed inside an active frame: that frame
        finishes in tier-0, the swap takes effect at the next call).
        """
        if not state.promotable or fn.xcode is not None:
            return
        tracer = current_tracer()
        registry = current_registry()
        start = time.perf_counter()
        profile_fp = self.profile_fingerprint()
        plan, cached = self._plan_for(fn, profile_fp)
        fused = fuse_function(fn, plan)
        if self.policy.check_bc == "rewrite":
            try:
                self._verify_promoted(fn)
            except Exception:
                # Never swap in a stream that failed verification.
                fn.xcode = None
                fn.quickened = True
                raise
        state.promotable = False
        seconds = time.perf_counter() - start
        digest = self.stream_digest(fn)
        record = {
            "function": fn.name,
            "trigger": trigger,
            "calls": state.calls,
            "backedges": state.backedges,
            "hotness": state.hotness,
            "threshold": self.policy.threshold,
            "profile": profile_fp,
            "plan": [list(pair) for pair in plan],
            "fused_sites": fused,
            "digest": digest,
            "plan_cached": cached,
        }
        self.promotions.append(record)
        tracer.count("tier.promote")
        tracer.event(
            "tier.compile",
            function=fn.name,
            seconds=seconds,
            fused_sites=fused,
            plan_size=len(plan),
            cached=cached,
            profile=profile_fp,
        )
        tracer.event(
            "tier.promote",
            function=fn.name,
            trigger=trigger,
            calls=state.calls,
            backedges=state.backedges,
            hotness=state.hotness,
            threshold=self.policy.threshold,
            digest=digest,
        )
        if registry.enabled:
            registry.inc(
                "repro_tier_promotions_total",
                function=fn.name,
                trigger=trigger,
            )
            registry.observe("repro_tier_compile_seconds", seconds)

    def _plan_for(
        self, fn: BytecodeFunction, profile_fp: str
    ) -> tuple[tuple, bool]:
        """The superinstruction plan for this promotion, reusing a
        profile-fingerprint-keyed cached plan when one exists."""
        registry = current_registry()
        if self.plan_cache is None:
            return self._mine(), False
        key = self._plan_key(fn, profile_fp)
        payload = self.plan_cache.get_aux(key)
        if (
            isinstance(payload, dict)
            and payload.get("schema") == TIER_PLAN_SCHEMA
        ):
            if registry.enabled:
                registry.inc("repro_tier_plan_cache_total", result="hit")
            return tuple(tuple(pair) for pair in payload["plan"]), True
        plan = self._mine()
        self.plan_cache.put_aux(
            key,
            {
                "schema": TIER_PLAN_SCHEMA,
                "function": fn.name,
                "plan": [list(pair) for pair in plan],
            },
        )
        if registry.enabled:
            registry.inc("repro_tier_plan_cache_total", result="miss")
        return plan, False

    def _mine(self) -> tuple:
        return mine_hot_pairs(
            self.program,
            self.bytecode,
            vmprofile=_LiveVMProfile(self.states),
            top=self.policy.top_pairs,
        )

    def _verify_promoted(self, fn: BytecodeFunction) -> None:
        """Run the rewrite-mode bytecode checkers on the promoted stream
        (and on a quickened clone of it, mirroring what the first fast
        frame will execute); raise on any violation."""
        from ..analysis.bcverify import (
            BcVerifyReport,
            BytecodeVerificationError,
            _quickened_clone,
            run_bc_checkers,
        )

        result = BcVerifyReport()
        result.reports.append(
            run_bc_checkers(fn, self.bytecode, label=f"{fn.name} [tier-1]")
        )
        if fn.xcode is not None and fn.blocks:
            result.reports.append(
                run_bc_checkers(
                    _quickened_clone(fn),
                    self.bytecode,
                    label=f"{fn.name} [tier-1 quickened]",
                    disable=("bc-codegen-lint", "bc-retranslate"),
                )
            )
        if not result.ok:
            raise BytecodeVerificationError(result)

    def report(self) -> dict[str, Any]:
        """Deterministic summary for tests and tooling: promotion order
        and the current stream digest of every function."""
        return {
            "promotions": [dict(p) for p in self.promotions],
            "digests": {
                name: self.stream_digest(fn)
                for name, fn in sorted(self.bytecode.functions.items())
            },
        }


class TieredVirtualMachine(VirtualMachine):
    """A :class:`VirtualMachine` that starts cold and tiers itself up.

    Construct it from the optimized IR ``program``; the baseline
    bytecode is translated here with ``fuse=False`` (a supplied
    ``bytecode`` must itself be an unfused baseline translation —
    cached fused artifacts are never reused directly, because tiering
    must observe every function going hot).  ``reset()`` keeps the
    tiering state: like a long-running VM, hotness and promotions
    survive run-to-run isolation of globals and meters.
    """

    def __init__(
        self,
        program: Any,
        bytecode: Optional[BytecodeProgram] = None,
        max_steps: int = 50_000_000,
        metered: bool = False,
        profile: Optional[Any] = None,
        max_call_depth: int = 200,
        observer: Optional[Any] = None,
        policy: Optional[TieringPolicy] = None,
        plan_cache: Optional[Any] = None,
    ) -> None:
        if bytecode is None:
            from .translate import translate_program

            bytecode = translate_program(program, fuse=False)
        super().__init__(
            bytecode,
            max_steps=max_steps,
            metered=metered,
            profile=profile,
            max_call_depth=max_call_depth,
            observer=observer,
            fused=True,
        )
        self.program = program
        self.policy = policy if policy is not None else TieringPolicy()
        self.controller = TieringController(
            program, bytecode, self.policy, plan_cache=plan_cache
        )
        #: tier-2 state: the shared megaunit module (compiled lazily on
        #: the first tier-2 promotion) and per-function entries —
        #: a generated function, or _TIER2_BLOCKED for declined ones
        self._tier2_module: Optional[Any] = None
        self._tier2_ready = False
        self._tier2_entries: dict[str, Any] = {}

    # ------------------------------------------------------------------
    def _run_frame(self, fn: BytecodeFunction, args: list[Any]) -> Any:
        if self.profile is not None or self.observer is not None:
            # Hooked runs: identical hook semantics to the base machine
            # (which itself pins hooked frames to the flat loops).
            # Tiering pauses — no counters, no promotions — so hook
            # sequences can never diverge from --engine=vm.
            return VirtualMachine._run_frame(self, fn, args)
        if fn.xcode is not None:
            if self.policy.tier2_engine == "megaunit":
                return self._run_frame_tier1(fn, args)
            return self._run_frame_fast(fn, args)
        controller = self.controller
        state = controller.states.get(fn.name)
        if state is None:
            state = controller.state_for(fn)
        state.calls += 1
        if (
            state.promotable
            and state.calls + state.backedges >= self.policy.threshold
        ):
            # Threshold crossed at a call boundary: promote now and run
            # this very frame in the optimized tier.
            controller.promote(fn, state, "entry")
            return self._run_frame_fast(fn, args)
        return self._run_frame_tier0(fn, state, args)

    # ------------------------------------------------------------------
    # Optional tier-2: whole-program megaunit promotion.  A tier-1
    # function that accumulates ``tier2_threshold`` invocations swaps
    # its dispatch to the shared megaunit module — registers in Python
    # locals, direct calls, no per-frame allocation.  Step/cycle
    # accounting is unchanged by construction (megaunit compiles the
    # same baseline streams), so the swap is invisible to outcomes.
    # ------------------------------------------------------------------
    def _run_frame_tier1(self, fn: BytecodeFunction, args: list[Any]) -> Any:
        entry = self._tier2_entries.get(fn.name)
        if entry is None:
            state = self.controller.state_for(fn)
            state.tier1_calls += 1
            if state.tier1_calls < self.policy.tier2_threshold:
                return self._run_frame_fast(fn, args)
            entry = self._promote_tier2(fn, state)
        if entry is _TIER2_BLOCKED:
            return self._run_frame_fast(fn, args)
        state = self.state
        m = [state.steps, state.cycles]
        # Raising paths flush state at their raise site (megaunit's
        # meter protocol); only the normal return path flushes here.
        value = entry(self, m, *args, self._call_depth)
        state.steps = m[0]
        state.cycles = m[1]
        return value

    def _promote_tier2(self, fn: BytecodeFunction, state: Any) -> Any:
        """Compile (once) the shared megaunit module and activate this
        function's entry, with the same paired ``tier.promote`` /
        ``tier.compile`` telemetry as a tier-1 promotion."""
        from .megaunit import compile_module, stack_headroom_ok

        tracer = current_tracer()
        registry = current_registry()
        start = time.perf_counter()
        module_was_ready = self._tier2_ready
        if not self._tier2_ready:
            self._tier2_ready = True
            self._tier2_module = compile_module(
                self.bytecode, self.metered, self.max_steps,
                self.max_call_depth,
                codegen_cache=self.controller.plan_cache,
            )
        module = self._tier2_module
        entry = module.entries.get(fn.name) if module is not None else None
        if entry is None:
            entry = _TIER2_BLOCKED
            reason = "no-block-spans"
        elif not stack_headroom_ok(self._call_depth, self.max_call_depth):
            entry = _TIER2_BLOCKED
            reason = "recursion-headroom"
        else:
            reason = None
        self._tier2_entries[fn.name] = entry
        if reason is not None:
            tracer.event(
                "vm.fallback", engine="megaunit", fallback="tier1",
                reason=reason,
            )
            if registry.enabled:
                registry.inc(
                    "repro_vm_fallback_total", engine="megaunit",
                    reason=reason,
                )
            return entry
        seconds = time.perf_counter() - start
        profile_fp = self.controller.profile_fingerprint()
        tracer.count("tier.promote")
        tracer.event(
            "tier.compile",
            function=fn.name,
            seconds=seconds,
            fused_sites=0,
            plan_size=0,
            cached=module_was_ready,
            profile=profile_fp,
        )
        tracer.event(
            "tier.promote",
            function=fn.name,
            trigger="tier2",
            calls=state.calls,
            backedges=state.backedges,
            hotness=state.tier1_calls,
            threshold=self.policy.tier2_threshold,
            digest=self.controller.stream_digest(fn),
        )
        if registry.enabled:
            registry.inc(
                "repro_tier_promotions_total",
                function=fn.name,
                trigger="tier2",
            )
            registry.observe("repro_tier_compile_seconds", seconds)
        return entry

    # ------------------------------------------------------------------
    # The baseline (tier-0) frame loop: the machine's flat-tuple loop
    # plus hotness counters and live profile tallies.  Branches are
    # dispatched inline (counting needs the edge), everything else
    # through the base handler table.  Step/cycle accounting is
    # line-identical to VirtualMachine._run_frame — the counters cost
    # zero steps and zero cycles by construction.
    # ------------------------------------------------------------------
    def _run_frame_tier0(
        self, fn: BytecodeFunction, state_rec: FunctionTierState, args: list[Any]
    ) -> Any:
        if self._call_depth > self.max_call_depth:
            raise EvaluationTrap("stack overflow")
        regs = fn.template[:]
        if args:
            regs[: len(args)] = args
        state = self.state
        max_steps = self.max_steps
        metered = self.metered
        handlers = _HANDLERS
        code = fn.code
        threshold = self.policy.threshold
        blocks = state_rec.blocks
        branches = state_rec.branches
        blocks[fn.entry_block] = blocks.get(fn.entry_block, 0) + 1
        # Promotability is read through state_rec (not a frame-local):
        # with recursion, several tier-0 frames of one function are
        # live at once, and a promotion from any of them must stop the
        # others from promoting again.
        steps = state.steps
        cycles = state.cycles
        pc = 0
        try:
            if metered:
                while True:
                    ins = code[pc]
                    steps += 1
                    if steps > max_steps:
                        state.steps = steps
                        state.cycles = cycles
                        raise BudgetExceeded(
                            f"exceeded {max_steps} interpreter steps"
                        )
                    op = ins[0]
                    if op == OP_IF:
                        if regs[ins[4]]:
                            edge = ins[5]
                            state_rec.branches_taken += 1
                            slot = 0
                        else:
                            edge = ins[6]
                            slot = 1
                        counts = branches.get(pc)
                        if counts is None:
                            counts = branches[pc] = [0, 0]
                        counts[slot] += 1
                        if edge[1]:
                            for d, s in edge[1]:
                                regs[d] = regs[s]
                        npc = edge[0]
                        blocks[edge[3]] = blocks.get(edge[3], 0) + 1
                        if npc <= pc:
                            state_rec.backedges += 1
                            if (
                                state_rec.promotable
                                and state_rec.calls + state_rec.backedges
                                >= threshold
                            ):
                                self.controller.promote(
                                    fn, state_rec, "backedge"
                                )
                        pc = npc
                    elif op == OP_GOTO:
                        edge = ins[4]
                        if edge[1]:
                            for d, s in edge[1]:
                                regs[d] = regs[s]
                        npc = edge[0]
                        blocks[edge[3]] = blocks.get(edge[3], 0) + 1
                        if npc <= pc:
                            state_rec.backedges += 1
                            if (
                                state_rec.promotable
                                and state_rec.calls + state_rec.backedges
                                >= threshold
                            ):
                                self.controller.promote(
                                    fn, state_rec, "backedge"
                                )
                        pc = npc
                    elif op != OP_CALL:
                        pc = handlers[op](self, ins, regs, pc)
                        if pc < 0:
                            state.steps = steps
                            state.cycles = cycles + ins[1]
                            return self._retval
                    else:
                        state.steps = steps
                        state.cycles = cycles
                        regs[ins[3]] = self._call(
                            ins[4], [regs[r] for r in ins[5]]
                        )
                        steps = state.steps
                        cycles = state.cycles
                        pc += 1
                    cycles += ins[1]
            else:
                while True:
                    ins = code[pc]
                    steps += 1
                    if steps > max_steps:
                        state.steps = steps
                        state.cycles = cycles
                        raise BudgetExceeded(
                            f"exceeded {max_steps} interpreter steps"
                        )
                    op = ins[0]
                    if op == OP_IF:
                        if regs[ins[4]]:
                            edge = ins[5]
                            state_rec.branches_taken += 1
                            slot = 0
                        else:
                            edge = ins[6]
                            slot = 1
                        counts = branches.get(pc)
                        if counts is None:
                            counts = branches[pc] = [0, 0]
                        counts[slot] += 1
                        if edge[1]:
                            for d, s in edge[1]:
                                regs[d] = regs[s]
                        npc = edge[0]
                        blocks[edge[3]] = blocks.get(edge[3], 0) + 1
                        if npc <= pc:
                            state_rec.backedges += 1
                            if (
                                state_rec.promotable
                                and state_rec.calls + state_rec.backedges
                                >= threshold
                            ):
                                self.controller.promote(
                                    fn, state_rec, "backedge"
                                )
                        pc = npc
                    elif op == OP_GOTO:
                        edge = ins[4]
                        if edge[1]:
                            for d, s in edge[1]:
                                regs[d] = regs[s]
                        npc = edge[0]
                        blocks[edge[3]] = blocks.get(edge[3], 0) + 1
                        if npc <= pc:
                            state_rec.backedges += 1
                            if (
                                state_rec.promotable
                                and state_rec.calls + state_rec.backedges
                                >= threshold
                            ):
                                self.controller.promote(
                                    fn, state_rec, "backedge"
                                )
                        pc = npc
                    elif op != OP_CALL:
                        pc = handlers[op](self, ins, regs, pc)
                        if pc < 0:
                            state.steps = steps
                            state.cycles = cycles
                            return self._retval
                    else:
                        state.steps = steps
                        state.cycles = cycles
                        regs[ins[3]] = self._call(
                            ins[4], [regs[r] for r in ins[5]]
                        )
                        steps = state.steps
                        cycles = state.cycles
                        pc += 1
        except EvaluationTrap:
            # A trap from a nested call already flushed fresher values.
            if steps > state.steps:
                state.steps = steps
                state.cycles = cycles
            raise


__all__ = [
    "DEFAULT_TIER2_THRESHOLD",
    "DEFAULT_TIER_THRESHOLD",
    "TIER_PLAN_SCHEMA",
    "FunctionTierState",
    "TieredVirtualMachine",
    "TieringController",
    "TieringPolicy",
]
