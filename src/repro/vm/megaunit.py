"""The megaunit engine: the whole call graph in one exec unit.

The fourth execution engine (``--engine=megaunit``).  The closure
engine compiles each function to per-block closures but still pays the
machine's full call protocol at every ``OP_CALL``: exit the
trampoline, re-enter ``vm._call`` / ``_run_frame``, allocate a
register file, build a fresh trampoline.  This backend removes all of
it by compiling the run's **entry and its whole call graph** (every
function reachable through ``OP_CALL``, :func:`unit_functions`) into a
single generated Python module:

* every bytecode function becomes one Python function
  ``_mu<N>(vm, m, r0.., d)`` — its registers are **Python locals**
  seeded from the constant template, not a list;
* intra-function control flow is a threaded dispatch loop
  (``_L = <pc>`` + ``while True`` + an ``if/elif/else`` ladder over
  block-start labels, computed-goto style) — no per-block closure
  trampoline; a block with exactly one predecessor, reached only by a
  forward jump, is **inlined at that edge** instead of paying a
  dispatch round trip, and functions whose dispatch can never recur
  compile to straight-line code with no loop at all;
* ``OP_CALL`` lowers to a **direct Python call** of the callee's
  generated function — no ``_run_frame``, no register-file
  allocation through the machine, no trampoline re-entry.

Exactness mirrors :mod:`repro.vm.closure` (same segment accounting,
same trap flushes, same :func:`~repro.vm.closure._finish_budget`
prefix-replay for budget stops) with one twist: the step/cycle meter
``m`` is a single shared two-slot list threaded through every frame
of a run, so call sites do not flush ``vm.state`` at all — only trap
sites, budget stops and the run's entry/exit touch it.  Inside a
frame the meters live in the **locals** ``s``/``c`` (no list
subscripts on the hot path) and are written back to ``m`` exactly
where another frame or the machine observes them:

* a call site writes ``m[0] = s + 1`` / ``m[1] = c`` (the step
  charged, the machine's ordering), dispatches, then reloads
  ``s = m[0]`` / ``c = m[1] + cost``;
* returns write both slots back; trap sites flush
  ``state.steps = s + k`` / ``state.cycles = c + ck`` directly;
* a budget guard exits through ``_finish(vm, _fn<N>, s, c, pc,
  *live)``, passing the meters and only the registers its segment
  replay reads (:func:`finish_live_ins` — none at a call site); the
  replay starts from a copy of ``fn.template``, so the generated
  source never spells out the whole register file;
* the callee prologue's stack-overflow guard flushes ``state`` from
  ``m`` before trapping — bit-identical to the machine, where the
  caller flushed before ``vm._call`` and the callee traps untouched;
* the engine's ``_run_frame`` builds ``m = [state.steps,
  state.cycles]`` once per machine entry and flushes back on normal
  return; every raising path flushed exactly at its raise site.

Compilation reads ``fn.code`` / ``fn.blocks`` / ``fn.template`` — the
base stream, which fusion and quickening never mutate — so fused
artifacts (``fn.xcode`` present) are consumable as compilation source
unchanged, and step/cycle totals agree with fused execution because
fusion preserves summed costs and step weights by construction.

Graceful degradation: nested MiniLang calls are now native Python
calls, so a worst-case-deep run could hit CPython's recursion limit
mid-frame — unrecoverable, since globals and heap effects are already
applied.  ``_run_frame`` therefore checks *up front* that the worst
case (``max_call_depth`` minus the current depth, plus
``_STACK_HEADROOM`` slack) fits under ``sys.getrecursionlimit()`` and
otherwise falls back to the inherited closure engine for the whole
activation, emitting a ``vm.fallback`` tracer event (once per machine
and reason) and counting ``repro_vm_fallback_total``.  Programs whose
functions lack block spans (legacy cache artifacts) fall back the
same way.  Observed runs delegate to the base machine loops exactly as
the closure engine does.

Profiled runs (a ``profile=`` collector) execute the **counted**
variant of the module instead of the hooked machine loop: the same
text plus one ``_counts[k] += 1`` per frame entry (after the depth
guard) and per CFG edge site (before its phi moves) — exactly where
the machine loop calls ``record_block`` and, on an ``If``'s edges,
``record_branch``.  :meth:`MegaunitModule.fold_counts` turns the
counts into collector entries whenever a run leaves the module
(return, trap or budget stop); a budget guard's replay never reaches
its segment's terminator, so no edge past a stop is counted.  This is
what lets :func:`repro.interp.profile.profile_program` profile at
near-megaunit speed.  A profiled frame that cannot run natively falls
back to the hooked machine loop.

The plain module's source is persisted in the artifact cache's aux
store (:mod:`repro.vm.codegen_cache`) so warm runs skip codegen; the
counted one never is (its counter sites name IR blocks).  Both are
statically verified by the extended ``bc-codegen-lint``
(:func:`repro.analysis.bcverify.lint_megaunit_source`).
"""

from __future__ import annotations

import sys
from typing import Any, Optional, Sequence

from ..interp.interpreter import ExecutionResult, ProfileCollector
from ..obs.metrics import current_registry
from ..obs.tracer import current_tracer
from .bytecode import (
    OP_CALL,
    OP_GOTO,
    OP_IF,
    OP_RETURN,
    BytecodeFunction,
    BytecodeProgram,
)
from .closure import (
    ClosureVirtualMachine,
    _finish_budget,
    _FunctionCompiler,
)
from .machine import HeapArray, HeapObject, VirtualMachine, _is_ref
from .opspec import OPCODE_SPECS
from ..ir.ops import EvaluationTrap

#: Python stack frames kept in reserve when deciding whether a run can
#: execute natively: interpreter entry frames, the trap/return path,
#: and anything the harness has on the stack above us.
_STACK_HEADROOM = 64

#: every fixed global name the generated module may reference
#: (per-function cells ``_mu<N>`` / ``_fn<N>`` / ``_tmpl<N>`` are
#: added per program and matched by pattern in the lint)
MEGAUNIT_NAMESPACE = frozenset(
    ("EvaluationTrap", "HeapObject", "HeapArray", "_is_ref", "_finish")
)

#: the counter list of a counted module (see :class:`MegaunitModule`);
#: only a counted module may reference it
COUNTS_NAME = "_counts"

#: the only builtins generated code is allowed to reach (same set as
#: the closure engine — the instruction bodies are shared)
MEGAUNIT_BUILTINS = frozenset(("abs", "len", "dict"))


#: opcodes that end a budget-guarded segment: a call starts its own
#: guard, a terminator is the segment's last instruction
_SEGMENT_ENDS = frozenset((OP_CALL, OP_GOTO, OP_IF, OP_RETURN))


def finish_live_ins(fn: BytecodeFunction, pc: int) -> tuple[int, ...]:
    """The registers a budget guard at ``pc`` hands to ``_finish``.

    The guard fires only when the segment starting at ``pc`` cannot
    complete, so the replay executes at most every instruction of the
    segment but its last: the terminator never runs, and a call-site
    guard replays nothing.  Those instructions read these registers
    before writing them (first-read order).  Constants are left out:
    the replay starts from a copy of ``fn.template``, which holds them.
    Codegen, the replay and the codegen lint all call this one helper.
    """
    code = fn.code
    end = pc
    while code[end][0] not in _SEGMENT_ENDS:
        end += 1
    if code[end][0] == OP_CALL:
        # The segment stops short of the call: its last instruction is
        # the one before (nothing at all for the call's own guard).
        end = max(pc, end - 1)
    lo, hi = fn.const_base, fn.const_base + fn.const_count
    live: list[int] = []
    written: set[int] = set()
    for ins in code[pc:end]:
        for slot, kind in enumerate(OPCODE_SPECS[ins[0]].sig, 4):
            reg = ins[slot]
            if (
                kind == "r"
                and reg not in written
                and not lo <= reg < hi
                and reg not in live
            ):
                live.append(reg)
        written.add(ins[3])
    return tuple(live)


def _finish_live(vm, fn, steps, cycles, pc, *live) -> None:
    """Cold path of a megaunit budget guard: rebuild the register file
    the segment replay reads (the template plus ``live``, in
    :func:`finish_live_ins` order) and replay; always raises."""
    regs = fn.template[:]
    for reg, value in zip(finish_live_ins(fn, pc), live):
        regs[reg] = value
    _finish_budget(vm, fn, regs, (steps, cycles), pc)


class MegaunitUnsupported(Exception):
    """This program cannot be megaunit-compiled (e.g. a function with
    no block spans); the engine falls back to the closure engine."""


def stack_headroom_ok(call_depth: int, max_call_depth: int) -> bool:
    """Can the *worst case* remaining MiniLang depth run as native
    Python calls?  Conservative by design: uses ``max_call_depth``, not
    the depth the program will actually reach, because a megaunit frame
    that hits CPython's recursion limit mid-run cannot be replayed
    (heap and global effects are already applied)."""
    remaining = max_call_depth - call_depth + 1
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth + remaining + _STACK_HEADROOM < sys.getrecursionlimit()


# ----------------------------------------------------------------------
# Source generation
# ----------------------------------------------------------------------
class _MegaFunctionCompiler(_FunctionCompiler):
    """Generates one ``_mu<N>`` function of the whole-program module.

    Inherits every instruction body, the segment accounting and the
    trap-flush discipline from the closure compiler; overrides how
    registers are named (locals), how edges transfer control (label
    assignment + ``continue``) and how calls dispatch (direct)."""

    #: inline chains longer than this fall back to label dispatch so
    #: generated nesting stays far from CPython's indentation limit
    _MAX_INLINE_CHAIN = 24

    def __init__(
        self,
        fn: BytecodeFunction,
        metered: bool,
        max_steps: int,
        max_call_depth: int,
        index: int,
        entries: dict[int, str],
        sites: Optional[list] = None,
    ) -> None:
        super().__init__(fn, metered, max_steps, max_call_depth)
        self.index = index
        self.entries = entries
        #: the counted module's counter sites, shared by every function
        #: of the unit (``None``: an uncounted module)
        self.sites = sites
        self._inline: set[int] = set()
        self._spans: dict[int, int] = {}

    # -- the overridden naming hooks ------------------------------------
    def reg(self, reg: int) -> str:
        return f"r{reg}"

    def fn_ref(self) -> str:
        return f"_fn{self.index}"

    # -- meter locals -----------------------------------------------------
    # Steps and cycles live in the locals ``s``/``c`` (no ``m[0]`` /
    # ``m[1]`` subscripts on the hot path) and are written back to the
    # shared list exactly where another frame or the machine observes
    # them: call sites, returns and trap raises.  ``_finish`` takes
    # them as arguments.
    def meter_guard(self, indent: int, w: int, pc: int) -> None:
        self.emit(indent, f"if s + {w} > {self.max_steps}:")
        self.gen_finish(indent + 1, pc)

    def gen_finish(self, indent: int, pc: int) -> None:
        """The budget exit of the guard at ``pc``: the meters plus the
        registers :func:`finish_live_ins` names."""
        live = "".join(
            f", {self.reg(k)}" for k in finish_live_ins(self.fn, pc)
        )
        self.emit(indent, f"_finish(vm, {self.fn_ref()}, s, c, {pc}{live})")

    def meter_charge(self, indent: int, w: int, acc) -> None:
        self.emit(indent, f"s += {w}")
        if self.metered and acc:
            self.emit(indent, f"c += {acc!r}")

    def flush(self, indent: int, k: int, ck) -> None:
        self.emit(indent, f"state.steps = s + {k}")
        if self.metered:
            if ck:
                self.emit(indent, f"state.cycles = c + {ck!r}")
            else:
                self.emit(indent, "state.cycles = c")

    # -- profile counters -------------------------------------------------
    # A counted module bumps one counter per frame entry and per CFG
    # edge taken — exactly where the machine loop calls ``record_block``
    # (and, on an ``If``'s edges, ``record_branch``).  Each counter site
    # remembers the block it enters and the branch direction it stands
    # for; :meth:`MegaunitModule.fold_counts` turns the counts back into
    # collector entries.
    def count(self, indent: int, block, branch=None, slot: int = 0) -> None:
        if self.sites is not None:
            self.emit(indent, f"{COUNTS_NAME}[{len(self.sites)}] += 1")
            self.sites.append((block, branch, slot))

    # -- control transfer -----------------------------------------------
    def block_edges(self, start: int, count: int) -> tuple:
        """The terminator's edge descriptors for the block at ``start``."""
        term = self.fn.code[start + count - 1]
        if term[0] == OP_GOTO:
            return (term[4],)
        if term[0] == OP_IF:
            return (term[5], term[6])
        return ()

    def plan_inlining(self) -> tuple[set, list]:
        """Blocks to inline at their unique predecessor edge.

        A non-entry block with exactly one incoming edge, reached only
        by a forward jump, is generated in place of that edge's
        ``_L = <pc>`` / ``continue`` round trip and omitted from the
        dispatch ladder.  Forward-only keeps the recursion finite
        (inline targets have strictly increasing pcs); chains are
        capped so nesting stays shallow.  Returns the inline set and
        the entry block's predecessor list (used to decide whether the
        dispatch loop is needed at all)."""
        preds: dict[int, list[int]] = {
            start: [] for start, _count, _name in self.fn.blocks
        }
        for start, count, _name in self.fn.blocks:
            for edge in self.block_edges(start, count):
                if edge[0] in preds:
                    preds[edge[0]].append(start)
        inline = {
            target
            for target, sources in preds.items()
            if target != 0 and len(sources) == 1 and sources[0] < target
        }
        chain: dict[int, int] = {}
        for start, _count, _name in self.fn.blocks:  # ascending pc
            if start not in inline:
                continue
            chain[start] = chain.get(preds[start][0], 0) + 1
            if chain[start] > self._MAX_INLINE_CHAIN:
                inline.discard(start)
                chain[start] = 0
        return inline, preds.get(0, [])

    def gen_edge(
        self, indent: int, edge: tuple, branch=None, slot: int = 0
    ) -> None:
        self.count(indent, edge[3], branch, slot)
        for d, src in edge[1]:
            self.emit(indent, f"{self.reg(d)} = {self.reg(src)}")
        target = edge[0]
        if target in self._inline:
            self.gen_body(indent, target, self._spans[target])
        else:
            self.emit(indent, f"_L = {target}")
            self.emit(indent, "continue")

    def gen_terminator(self, indent: int, ins: tuple) -> None:
        if ins[0] == OP_RETURN:
            value = self.operand(ins[4]) if ins[4] >= 0 else "None"
            self.emit(indent, "m[0] = s")
            self.emit(indent, "m[1] = c")
            self.emit(indent, f"return {value}")
        elif ins[0] == OP_IF:
            # The closure compiler's lowering, plus the branch each
            # edge's counter stands for (slot 0 taken, 1 not taken).
            self.emit(indent, f"if {self.operand(ins[4])}:")
            self.gen_edge(indent + 1, ins[5], ins[2], 0)
            self.gen_edge(indent, ins[6], ins[2], 1)
        else:
            super().gen_terminator(indent, ins)

    # -- direct call lowering -------------------------------------------
    def gen_call(self, indent: int, ins: tuple, pc: int) -> None:
        """One call site: budget guard, write the meters back (the step
        charged, so the callee observes the machine's ordering),
        dispatch the callee's generated function directly, reload and
        charge the call cost."""
        target = self.entries.get(id(ins[4]))
        if target is None:  # pragma: no cover - translate interns callees
            raise MegaunitUnsupported(
                f"{self.fn.name}: call target {ins[4]!r} is not part of "
                "the compiled program"
            )
        emit = self.emit
        emit(indent, f"if s + 1 > {self.max_steps}:")
        self.gen_finish(indent + 1, pc)
        emit(indent, "m[0] = s + 1")
        emit(indent, "m[1] = c")
        args = "".join(f", {self.reg(a)}" for a in ins[5])
        emit(indent, f"{self.reg(ins[3])} = {target}(vm, m{args}, d + 1)")
        emit(indent, "s = m[0]")
        if self.metered and ins[1]:
            emit(indent, f"c = m[1] + {ins[1]!r}")
        else:
            emit(indent, "c = m[1]")

    # -- function scaffolding -------------------------------------------
    def gen_seed(self) -> None:
        """Seed every non-parameter register from the constant template.

        Every slot is bound eagerly, so a register read before any
        write sees its template value, as in the machine's
        template-copied register file.  Literal-representable values
        (the ``operand`` rule: ``None``/``int``/``bool``) are grouped
        by repr into chained assignments; anything else loads from the
        function's template cell."""
        fn = self.fn
        groups: dict[str, list[int]] = {}
        for k in range(fn.nparams, fn.nregs):
            value = fn.template[k]
            if value is None or type(value) in (int, bool):
                groups.setdefault(repr(value), []).append(k)
            else:
                self.emit(1, f"{self.reg(k)} = _tmpl{self.index}[{k}]")
        for literal, regs in groups.items():
            for chunk in range(0, len(regs), 12):
                targets = " = ".join(
                    self.reg(k) for k in regs[chunk:chunk + 12]
                )
                self.emit(1, f"{targets} = {literal}")

    def gen_body(self, indent: int, start: int, count: int) -> None:
        """One block's body: maximal call-free segments + call sites
        (the closure compiler's ``gen_block`` without the ``def``)."""
        code = self.fn.code
        pc = start
        end = start + count
        while pc < end:
            if code[pc][0] == OP_CALL:
                self.gen_call(indent, code[pc], pc)
                pc += 1
                continue
            seg_end = pc
            while seg_end < end and code[seg_end][0] != OP_CALL:
                seg_end += 1
            self.gen_segment(indent, pc, seg_end)
            pc = seg_end

    def gen_function(self) -> None:
        fn = self.fn
        emit = self.emit
        blocks = fn.blocks
        if not blocks or blocks[0][0] != 0:
            raise MegaunitUnsupported(f"{fn.name}: no usable block spans")
        for start, count, _name in blocks:
            if fn.code[start + count - 1][0] not in (OP_GOTO, OP_IF, OP_RETURN):
                raise MegaunitUnsupported(
                    f"{fn.name}: block at pc {start} has no terminator"
                )
        self._inline, entry_preds = self.plan_inlining()
        self._spans = {start: count for start, count, _name in blocks}
        params = "".join(f", r{k}" for k in range(fn.nparams))
        emit(0, f"def _mu{self.index}(vm, m{params}, d):")
        emit(1, "state = vm.state")
        emit(1, f"if d > {self.max_call_depth}:")
        emit(2, "state.steps = m[0]")
        emit(2, "state.cycles = m[1]")
        emit(2, "raise EvaluationTrap('stack overflow')")
        self.count(1, fn.entry_block)
        emit(1, "s = m[0]")
        emit(1, "c = m[1]")
        self.gen_seed()
        ladder = [
            (start, count)
            for start, count, _name in blocks
            if start not in self._inline
        ]
        if len(ladder) == 1 and not entry_preds:
            # Control can never reach a label twice: every other block
            # is inlined at its unique predecessor edge and nothing
            # jumps back to the entry, so no `continue` is ever emitted
            # — skip the dispatch loop entirely.
            self.gen_body(1, ladder[0][0], ladder[0][1])
            return
        emit(1, "_L = 0")
        emit(1, "while True:")
        for idx, (start, count) in enumerate(ladder):
            if idx == 0:
                emit(2, f"if _L == {start}:")
            elif idx == len(ladder) - 1:
                emit(2, "else:")
            else:
                emit(2, f"elif _L == {start}:")
            self.gen_body(3, start, count)

    def source(self) -> str:
        self.gen_function()
        return "\n".join(self.lines) + "\n"


def unit_functions(
    bytecode: BytecodeProgram, roots: Optional[Sequence[str]] = None
) -> list[BytecodeFunction]:
    """The functions of the unit compiled for ``roots`` (function names),
    in program order: every function reachable from them through
    ``OP_CALL``.  ``None`` means the whole program."""
    functions = list(bytecode.functions.values())
    if roots is None:
        return functions
    reached: set[int] = set()
    pending = [bytecode.functions[name] for name in roots]
    while pending:
        fn = pending.pop()
        if id(fn) not in reached:
            reached.add(id(fn))
            pending.extend(ins[4] for ins in fn.code if ins[0] == OP_CALL)
    return [fn for fn in functions if id(fn) in reached]


def _unit_source(
    order: list[BytecodeFunction],
    metered: bool,
    max_steps: int,
    max_call_depth: int,
    sites: Optional[list] = None,
) -> str:
    """The unit's module source; a ``sites`` list makes it a counted
    module and receives one ``(block, branch, slot)`` per counter."""
    entries = {id(fn): f"_mu{i}" for i, fn in enumerate(order)}
    return "\n".join(
        _MegaFunctionCompiler(
            fn, metered, max_steps, max_call_depth, i, entries, sites
        ).source()
        for i, fn in enumerate(order)
    )


def generate_module_source(
    bytecode: BytecodeProgram,
    metered: bool = True,
    max_steps: int = 50_000_000,
    max_call_depth: int = 200,
    roots: Optional[Sequence[str]] = None,
    counted: bool = False,
) -> str:
    """The Python source ``compile_module`` would exec for ``roots``
    (see :func:`unit_functions`; ``None`` = the whole program), without
    executing it — the static codegen lint works on this text.  Raises
    :class:`MegaunitUnsupported` when the unit cannot be
    megaunit-compiled."""
    return _unit_source(
        unit_functions(bytecode, roots), metered, max_steps, max_call_depth,
        [] if counted else None,
    )


class MegaunitModule:
    """One compiled whole-program unit: the source, the per-function
    entry points, and the function-name order the indices follow.

    A counted module also carries ``counts``, the list its generated
    code increments (one slot per frame entry or CFG edge site), and
    ``sites``, what each slot stands for: ``(block, branch, slot)``
    with ``branch`` the ``If`` node of an edge out of a branch (and
    ``slot`` 0 taken, 1 not taken) or ``None``."""

    __slots__ = ("source", "entries", "order", "counts", "sites")

    def __init__(
        self,
        source: str,
        entries: dict[str, Any],
        order: list[str],
        counts: Optional[list] = None,
        sites: tuple = (),
    ) -> None:
        self.source = source
        self.entries = entries
        self.order = order
        self.counts = counts
        self.sites = sites

    def fold_counts(self, collector: ProfileCollector) -> None:
        """Add the counts gathered since the last fold to
        ``collector`` — the entries the machine loop's ``record_block``
        / ``record_branch`` calls would have made — and zero them."""
        counts = self.counts
        blocks = collector.block_counts
        branches = collector.branch_counts
        for i, (block, branch, slot) in enumerate(self.sites):
            n = counts[i]
            if n:
                counts[i] = 0
                blocks[block] = blocks.get(block, 0) + n
                if branch is not None:
                    branches.setdefault(branch, [0, 0])[slot] += n


def _exec_module(
    bytecode: BytecodeProgram,
    order: list[BytecodeFunction],
    source: str,
    sites: Optional[list] = None,
) -> MegaunitModule:
    namespace: dict[str, Any] = {
        "EvaluationTrap": EvaluationTrap,
        "HeapObject": HeapObject,
        "HeapArray": HeapArray,
        "_is_ref": _is_ref,
        "_finish": _finish_live,
    }
    counts = None
    if sites is not None:
        counts = namespace[COUNTS_NAME] = [0] * len(sites)
    for i, fn in enumerate(order):
        namespace[f"_fn{i}"] = fn
        namespace[f"_tmpl{i}"] = fn.template
    exec(  # noqa: S102 - the source is generated from trusted IR
        compile(source, "<megaunit>", "exec"),
        namespace,
    )
    entries = {fn.name: namespace[f"_mu{i}"] for i, fn in enumerate(order)}
    return MegaunitModule(
        source, entries, [fn.name for fn in order], counts,
        tuple(sites or ()),
    )


def compile_module(
    bytecode: BytecodeProgram,
    metered: bool,
    max_steps: int,
    max_call_depth: int,
    codegen_cache: Optional[Any] = None,
    roots: Optional[Sequence[str]] = None,
    counted: bool = False,
) -> Optional[MegaunitModule]:
    """Compile (or exec from cache) the unit of every function reachable
    from ``roots`` (``None`` = the whole program), or ``None`` when it
    cannot be megaunit-compiled.  The codegen cache key hashes the
    unit's functions, so each set of roots has its own entry.

    ``counted`` compiles the profiling variant (see
    :class:`MegaunitModule`).  It is built once per profiling run and
    never enters the codegen cache: its counter sites hold the IR's
    blocks and branches, which a cached text could not name."""
    order = unit_functions(bytecode, roots)
    sites = None
    if counted:
        sites = []
        codegen_cache = None
    if codegen_cache is not None:
        from .codegen_cache import codegen_key, load_source, store_source

        key = codegen_key(
            "megaunit", order, metered, max_steps, max_call_depth
        )
        payload = load_source(codegen_cache, key, "megaunit")
        if (
            payload is not None
            and payload.get("functions") == [fn.name for fn in order]
        ):
            return _exec_module(bytecode, order, payload["source"])
    try:
        source = _unit_source(
            order, metered, max_steps, max_call_depth, sites
        )
    except MegaunitUnsupported:
        return None
    module = _exec_module(bytecode, order, source, sites)
    if codegen_cache is not None:
        store_source(
            codegen_cache, key,
            {
                "engine": "megaunit",
                "functions": module.order,
                "source": source,
            },
        )
    return module


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class MegaunitVirtualMachine(ClosureVirtualMachine):
    """A :class:`VirtualMachine` whose runs execute one exec unit: the
    run's entry function and everything it can call.  Drop-in: same
    constructor, ``run``/``reset``/``state`` API and observable
    semantics as every other engine.  The unit compiles lazily on the
    first frame; the machine keeps one, keyed by
    ``(max_steps, metered, entry, counted)``, and recompiles when the
    key changes.  A machine with a ``profile=`` collector runs the
    counted module and folds its counts into the collector whenever a
    run leaves it (return, trap or budget stop).  Insufficient
    recursion headroom or missing block spans fall back to the
    inherited closure engine — the hooked machine loop when profiling
    (a ``vm.fallback`` event records why)."""

    def __init__(
        self,
        bytecode: BytecodeProgram,
        codegen_cache: Optional[Any] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(bytecode, codegen_cache=codegen_cache, **kwargs)
        self._mu_module: Optional[MegaunitModule] = None
        self._mu_key: Optional[tuple] = None
        #: the entry of the current run (``None`` outside ``run``: the
        #: whole program is the unit)
        self._mu_entry: Optional[str] = None
        #: the fallback reasons noted on this machine (a run's first
        #: frame declined the unit; see :meth:`_note_fallback`)
        self.fallbacks: set = set()

    def run(self, function: str, args: list[Any]) -> ExecutionResult:
        self._mu_entry = function
        return super().run(function, args)

    def _module(self) -> Optional[MegaunitModule]:
        counted = self.profile is not None
        key = (self.max_steps, self.metered, self._mu_entry, counted)
        if key != self._mu_key:
            self._mu_key = key
            self._mu_module = compile_module(
                self.bytecode, self.metered, self.max_steps,
                self.max_call_depth, codegen_cache=self.codegen_cache,
                roots=None if self._mu_entry is None else (self._mu_entry,),
                counted=counted,
            )
        return self._mu_module

    def _stack_headroom_ok(self) -> bool:
        return stack_headroom_ok(self._call_depth, self.max_call_depth)

    def _note_fallback(self, reason: str) -> None:
        if self._call_depth > 1 or reason in self.fallbacks:
            return
        self.fallbacks.add(reason)
        # A profiled frame the closure engine declines runs on the
        # hooked machine loop.
        current_tracer().event(
            "vm.fallback", engine="megaunit",
            fallback="closure" if self.profile is None else "vm",
            reason=reason,
        )
        registry = current_registry()
        if registry.enabled:
            registry.inc(
                "repro_vm_fallback_total", engine="megaunit", reason=reason
            )

    def _run_frame(self, fn: BytecodeFunction, args: list) -> Any:
        if self.observer is not None:
            # Observed runs: identical hook semantics to the base machine.
            return VirtualMachine._run_frame(self, fn, args)
        module = self._module()
        if module is None:
            self._note_fallback("no-block-spans")
            return ClosureVirtualMachine._run_frame(self, fn, args)
        entry = module.entries.get(fn.name)
        if entry is None:  # pragma: no cover - run() resolves names first
            self._note_fallback("unknown-function")
            return ClosureVirtualMachine._run_frame(self, fn, args)
        if not self._stack_headroom_ok():
            self._note_fallback("recursion-headroom")
            return ClosureVirtualMachine._run_frame(self, fn, args)
        state = self.state
        m = [state.steps, state.cycles]
        # Raising paths (traps, budget stops, the callee depth guard)
        # flush state at their raise site; only the normal return path
        # flushes here.  A counted module folds its counts however the
        # run leaves it.
        try:
            value = entry(self, m, *args, self._call_depth)
        finally:
            if module.counts is not None:
                module.fold_counts(self.profile)
        state.steps = m[0]
        state.cycles = m[1]
        return value


__all__ = [
    "COUNTS_NAME",
    "MEGAUNIT_BUILTINS",
    "MEGAUNIT_NAMESPACE",
    "MegaunitModule",
    "MegaunitUnsupported",
    "MegaunitVirtualMachine",
    "compile_module",
    "finish_live_ins",
    "generate_module_source",
    "stack_headroom_ok",
    "unit_functions",
]
