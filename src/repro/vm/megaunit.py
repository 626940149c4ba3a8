"""The megaunit engine: the whole call graph in one exec unit.

The fast execution engine (``--engine=megaunit``).  Where the ``vm``
loop pays one handler round-trip per instruction and the full call
protocol at every ``OP_CALL`` (re-enter ``vm._call`` / ``_run_frame``,
allocate a register file), this backend **compiles the run's entry and
its whole call graph** (every function reachable through ``OP_CALL``,
:func:`unit_functions`) into a single generated Python module and lets
CPython's own bytecode do the dispatch:

* every bytecode function becomes one Python function
  ``_mu<N>(vm, m, r0.., d)`` — its registers are **Python locals**,
  not a list, and nothing seeds them: constants (int, bool or null)
  are literals, and ``bc-defuse`` proves every other register written
  before it is read;
* instructions are inlined as straight-line statements, **one
  expression per instruction** where it can be, since a measured run
  pays ``compile()`` for every node: interned constants inline as
  Python literals, operand registers are read in place, and
  field/array/global traffic is plain subscripts;
* add/sub/mul/shl assign ``v if MIN <= (v := X) <= MAX else _w(v)``,
  where ``_w`` is the reference's own :func:`~repro.ir.ops.wrap64`,
  called only out of range (neg checks only ``MAX``).  Every operand
  is a signed 64-bit int, a range closed under ``&``, ``|``, ``^``,
  ``>>`` and ``%``, so those wrap nothing; ushr wraps only where its
  shift count can be 0, and div only where ``MIN // -1`` can happen;
* ``==``/``!=`` compile to a bare Python ``==``/``!=``, references
  included: runtime values are only ints, bools, ``None`` and the heap
  classes, which define neither ``__eq__`` nor ``__ne__``, so Python
  falls back to identity whenever an object or array is an operand;
* intra-function control flow is a threaded dispatch loop
  (``_L = <pc>`` + ``while True`` + an ``if/elif/else`` ladder over
  block-start labels, computed-goto style); a block with exactly one
  predecessor, reached only by a forward jump, is **inlined at that
  edge** instead of paying a dispatch round trip, and functions whose
  dispatch can never recur compile to straight-line code with no loop
  at all.  The ladder tests loop headers first, innermost first
  (:meth:`_FunctionCompiler.loop_headers`), then the other labels in
  pc order: a back edge dispatches once per iteration, a forward merge
  once per pass;
* ``OP_CALL`` lowers to a **direct Python call** of the callee's
  generated function — no ``_run_frame``, no register-file
  allocation through the machine.

Steps and metered cycles share **one packed meter**, the integer ``e
= (steps << K) + cycles``, and are accounted **per segment** (a
maximal call-free instruction run): one ``e += (W << K) + C`` per
segment instead of per instruction, with the literal baked at compile
time.  ``K`` (:func:`meter_width`, stored on the module) is wide
enough that no cycle total a budget-bounded run can reach carries into
the step field.  Exactness is preserved at every observable point:

* a segment-entry budget guard compares against one baked literal,
  ``e > ((max_steps - W) << K) | (2**K - 1)``, which holds exactly
  when ``steps + W > max_steps``, and exits through ``_finish(vm, m,
  _fn<N>, e, pc, *live)``, a cold path that rebuilds the register file
  from ``fn.template`` plus only the registers its segment replay
  reads (:func:`finish_live_ins` — none at a call site) and replays
  the segment per instruction through the ``vm`` loop's handler table
  (:func:`_finish_budget`), so it stops with bit-identical
  :class:`BudgetExceeded` timing;
* trap sites flush ``m[0] = e + ((k << K) + ck)`` with the partial
  step count and partial cycle sum baked in, so values, steps, cycles
  and trap messages match the reference exactly (costs are integers,
  and a float sum of integers is exact below ``2**53``);
* the meter slot ``m`` is a single shared one-slot list threaded
  through every frame of a run; inside a frame the meter lives in the
  **local** ``e`` and is written back exactly where another frame or
  the machine observes it: a call site writes ``m[0] = e + (1 << K)``
  (the step charged, the machine's ordering), dispatches, then reloads
  ``e = m[0] + cost``; returns write ``m[0] = e``;
* so every exit leaves the packed meter in ``m[0]``; the callee
  prologue's stack-overflow guard traps before loading it, leaving
  what the caller flushed — bit-identical to the machine, where the
  caller flushed before ``vm._call`` and the callee traps untouched;
* the engine's ``_run_frame`` is the one place that packs ``state``
  into ``m[0]`` (once per machine entry) and unpacks it, in a
  ``finally``, however the run leaves; cycles come back as the float
  they are on every other engine.  Carried-in meters the field cannot
  hold (cycles past ``2**(K-1)``, negative or fractional, negative
  steps) run on the ``vm`` loop instead.

``max_steps`` is baked into the generated source, so the module is
recompiled if it changes between runs on the same machine instance.

Graceful degradation: nested MiniLang calls are native Python calls,
so a worst-case-deep run could hit CPython's recursion limit
mid-frame — unrecoverable, since globals and heap effects are already
applied.  ``_run_frame`` therefore checks *up front* that the worst
case (:data:`~repro.ir.ops.MAX_CALL_DEPTH` minus the current depth, plus
``_STACK_HEADROOM`` slack) fits under ``sys.getrecursionlimit()`` and
otherwise runs the activation on the inherited ``vm`` loop, emitting a
``vm.fallback`` tracer event (once per machine and reason) and
counting ``repro_vm_fallback_total``.  A unit whose baked costs are not
all non-negative integers (a custom cost model) runs there too.

The module comes in two variants, one per kind of run.  A measured run
(no collector) executes the **plain** module, which meters cycles.  A
profiling run (a ``profile=`` collector) executes the **counted**
module instead of the hooked machine loop: the same codegen with ``K =
0`` and no cycle term, so it meters steps but not cycles, exactly like
the machine's profiling loop, and adds one ``_counts[k] += 1`` per
frame entry (after the depth guard) and per CFG edge site (before its
phi moves) — exactly where the machine loop calls ``record_block``
and, on an ``If``'s edges, ``record_branch``.
:meth:`MegaunitModule.fold_counts` turns the counts into collector
entries whenever a run leaves the module (return, trap or budget
stop); a budget guard's replay never reaches its segment's
terminator, so no edge past a stop is counted.  This is
what lets :func:`repro.interp.profile.profile_program` profile at
near-megaunit speed.

The plain module's source is persisted in the artifact cache's aux
store (:mod:`repro.vm.codegen_cache`) so warm runs skip codegen; the
counted one never is (its counter sites name IR blocks).  Both are
statically verified by ``bc-codegen-lint``
(:func:`repro.analysis.bcverify.lint_megaunit_source`).
"""

from __future__ import annotations

import sys
from typing import Any, Optional, Sequence

from ..interp.interpreter import (
    BudgetExceeded,
    ExecutionResult,
    ProfileCollector,
)
from ..ir.ops import (
    MAX_ARRAY_LENGTH,
    MAX_CALL_DEPTH,
    MAX_STEPS,
    EvaluationTrap,
    wrap64,
)
from ..obs.tracer import current_tracer
from .bytecode import (
    OP_ADD,
    OP_AND,
    OP_ARRAY_LENGTH,
    OP_ARRAY_LOAD,
    OP_ARRAY_STORE,
    OP_CALL,
    OP_DIV,
    OP_EQ,
    OP_GE,
    OP_GOTO,
    OP_GT,
    OP_IF,
    OP_LE,
    OP_LOAD_FIELD,
    OP_LOAD_GLOBAL,
    OP_LT,
    OP_MOD,
    OP_MUL,
    OP_NE,
    OP_NEG,
    OP_NEW,
    OP_NEW_ARRAY,
    OP_NOT,
    OP_OR,
    OP_RETURN,
    OP_SHL,
    OP_SHR,
    OP_STORE_FIELD,
    OP_STORE_GLOBAL,
    OP_SUB,
    OP_USHR,
    OP_XOR,
    BytecodeFunction,
    BytecodeProgram,
)
from .machine import _HANDLERS, HeapArray, HeapObject, VirtualMachine
from .opspec import OPCODE_SPECS

_MASK = "18446744073709551615"
_INT_MIN = "-9223372036854775808"
_INT_MAX = "9223372036854775807"

#: Python stack frames kept in reserve when deciding whether a run can
#: execute natively: interpreter entry frames, the trap/return path,
#: and anything the harness has on the stack above us.
_STACK_HEADROOM = 64

#: every fixed global name the generated module may reference
#: (per-function cells ``_mu<N>`` / ``_fn<N>`` are added per program
#: and matched by pattern in the lint)
MEGAUNIT_NAMESPACE = frozenset(
    ("EvaluationTrap", "HeapObject", "HeapArray", "_finish", "_w")
)

#: the counter list of a counted module (see :class:`MegaunitModule`);
#: only a counted module may reference it
COUNTS_NAME = "_counts"

#: the only builtins generated code is allowed to reach
MEGAUNIT_BUILTINS = frozenset(("abs", "len", "dict"))


#: opcodes that end a budget-guarded segment: a call starts its own
#: guard, a terminator is the segment's last instruction
_SEGMENT_ENDS = frozenset((OP_CALL, OP_GOTO, OP_IF, OP_RETURN))

#: comparison opcodes and the Python operator each compiles to
_COMPARISONS = {
    OP_EQ: "==", OP_NE: "!=", OP_LT: "<", OP_LE: "<=", OP_GT: ">", OP_GE: ">=",
}


def segment_steps(fn: BytecodeFunction, pc: int) -> int:
    """``W``, the steps the budget guard at ``pc`` checks: the segment
    starting there runs through its terminator or stops short of the
    next call, and a call site's own guard covers the call's one step."""
    code = fn.code
    end = pc
    while code[end][0] not in _SEGMENT_ENDS:
        end += 1
    if code[end][0] == OP_CALL:
        return max(end - pc, 1)
    return end - pc + 1


def finish_live_ins(fn: BytecodeFunction, pc: int) -> tuple[int, ...]:
    """The registers a budget guard at ``pc`` hands to ``_finish``.

    The guard fires only when the segment starting at ``pc`` cannot
    complete, so the replay executes at most every instruction of the
    segment but its last (:func:`segment_steps` minus one): the
    terminator never runs, and a call-site guard replays nothing.
    Those instructions read these registers before writing them
    (first-read order).  Constants are left out: the replay starts from
    a copy of ``fn.template``, which holds them.  Codegen, the replay
    and the codegen lint all call this one helper.
    """
    lo, hi = fn.const_base, fn.const_base + fn.const_count
    live: list[int] = []
    written: set[int] = set()
    for ins in fn.code[pc:pc + segment_steps(fn, pc) - 1]:
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


def meter_width(
    order: Sequence[BytecodeFunction], max_steps: int, counted: bool = False
) -> Optional[int]:
    """``K``, the cycle-field width of a unit's packed meter ``(steps <<
    K) + cycles``: 0 in the counted module, which meters steps only.

    No run can step past ``max_steps`` and charge its cycles, so one
    budget-bounded run reaches at most ``max_steps`` times the unit's
    largest baked cost; ``K`` holds twice that, room for the run's own
    cycles plus as many carried into the machine, so the cycle field
    never carries into the step field (``_run_frame`` declines larger
    carried-in totals).  ``None`` when a baked cost is not a
    non-negative integer, which the packed meter cannot hold."""
    if counted:
        return 0
    top = 0
    for fn in order:
        for ins in fn.code:
            cost = ins[1]
            if not (cost >= 0 and float(cost).is_integer()):
                return None
            top = max(top, int(cost))
    return (max(max_steps, 0) * top).bit_length() + 1


def _finish_budget(vm, m, fn, e, pc, *live) -> None:
    """Cold path of a budget guard: this segment's steps cannot all fit.

    Rebuilds the register file the segment replay reads (the template
    plus ``live``, in :func:`finish_live_ins` order) and replays from
    the segment's first pc through the ``vm`` loop's handler table with
    its exact accounting, on the packed meter ``e``.  The guard only
    fires when exhaustion is guaranteed within the segment, so this
    always raises — :class:`BudgetExceeded` at the precise instruction
    the ``vm`` loop would stop at, or an :class:`EvaluationTrap` if an
    earlier instruction traps first — and leaves the meter in ``m[0]``.
    """
    regs = fn.template[:]
    for reg, value in zip(finish_live_ins(fn, pc), live):
        regs[reg] = value
    width = vm._mu_module.width
    step = 1 << width
    max_steps = vm.max_steps
    limit = (max_steps << width) | (step - 1)  # e > limit: steps > max
    metered = vm.metered
    code = fn.code
    while True:
        ins = code[pc]
        e += step
        if e > limit:
            m[0] = e
            raise BudgetExceeded(f"exceeded {max_steps} interpreter steps")
        try:
            pc = _HANDLERS[ins[0]](vm, ins, regs, pc)
        except EvaluationTrap:
            m[0] = e
            raise
        if metered:
            e += int(ins[1])


def stack_headroom_ok(call_depth: int) -> bool:
    """Can the *worst case* remaining MiniLang depth run as native
    Python calls?  Conservative by design: uses ``MAX_CALL_DEPTH``, not
    the depth the program will actually reach, because a megaunit frame
    that hits CPython's recursion limit mid-run cannot be replayed
    (heap and global effects are already applied)."""
    remaining = MAX_CALL_DEPTH - call_depth + 1
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth + remaining + _STACK_HEADROOM < sys.getrecursionlimit()


# ----------------------------------------------------------------------
# Source generation
# ----------------------------------------------------------------------
class _FunctionCompiler:
    """Generates one ``_mu<N>`` function of the whole-program module."""

    #: inline chains longer than this fall back to label dispatch so
    #: generated nesting stays far from CPython's indentation limit
    _MAX_INLINE_CHAIN = 24

    def __init__(
        self,
        fn: BytecodeFunction,
        max_steps: int,
        index: int,
        entries: dict[int, str],
        sites: Optional[list] = None,
        width: Optional[int] = 0,
    ) -> None:
        self.fn = fn
        self.max_steps = max_steps
        self.index = index
        self.entries = entries
        #: the counted module's counter sites, shared by every function
        #: of the unit (``None``: the plain module)
        self.sites = sites
        #: the unit's :func:`meter_width`; 0 (no cycle field) in the
        #: counted module, which meters steps only
        if width is None:
            raise ValueError(
                "the packed meter needs non-negative integer cycle costs"
            )
        self.width = width
        self.lines: list[str] = []
        self.lo = fn.const_base
        self.hi = fn.const_base + fn.const_count
        self._inline: set[int] = set()
        self._spans: dict[int, int] = {}

    # -- helpers ---------------------------------------------------------
    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def reg(self, reg: int) -> str:
        """How generated code names register ``reg``: a Python local."""
        return f"r{reg}"

    def operand(self, reg: int) -> str:
        """A register read — interned constants (int, bool or null)
        inline as literals."""
        if self.lo <= reg < self.hi:
            return repr(self.fn.template[reg])
        return self.reg(reg)

    def shift(self, reg: int) -> str:
        """A shift count: a literal folds to its low six bits."""
        count = self.operand(reg)
        if count.lstrip("-").isdigit():
            return str(int(count) & 63)
        return f"({count} & 63)"

    def packed(self, steps: int, cycles) -> int:
        """The meter literal charging ``steps`` steps and ``cycles``
        cycles (the cycles vanish in the counted module: ``K = 0``)."""
        return (steps << self.width) + (int(cycles) if self.width else 0)

    def trap(self, indent: int, k: int, ck, test: str, message: str) -> None:
        """A trap site: when ``test`` holds, flush the partial meter and
        raise ``message`` (the Python text of the message).

        ``k`` instructions of the current segment (including the
        trapping one) count as steps; ``ck`` is the partial cycle sum
        of the instructions *before* it.
        """
        self.emit(indent, f"if {test}:")
        self.emit(indent + 1, f"m[0] = e + {self.packed(k, ck)}")
        self.emit(indent + 1, f"raise EvaluationTrap({message})")

    def wrapped(
        self, indent: int, dest: int, expr: str, low: bool = True
    ) -> None:
        """``dest = expr`` wrapped to 64 bits: ``_w`` (the reference's
        :func:`~repro.ir.ops.wrap64`) runs only on an out-of-range
        value.  ``low=False`` for a value that cannot fall below the
        range (a negation, an unsigned shift)."""
        floor = f"{_INT_MIN} <= " if low else ""
        self.emit(
            indent,
            f"{self.reg(dest)} = v if {floor}(v := {expr}) <= {_INT_MAX}"
            " else _w(v)",
        )

    # -- per-instruction codegen ----------------------------------------
    def gen_ins(self, indent: int, ins: tuple, k: int, ck) -> None:
        """One non-call, non-terminator instruction.

        ``k``/``ck`` position it inside its segment for trap flushes.
        Every operand is a signed 64-bit int, and that range is closed
        under ``&``, ``|``, ``^``, ``>>`` and ``%``, so only the other
        arithmetic can leave it and wrap.
        """
        op, dest = ins[0], ins[3]
        emit = self.emit

        def trap(test: str, message: str) -> None:
            self.trap(indent, k, ck, test, message)

        if op in (OP_ADD, OP_SUB, OP_MUL):
            sym = {OP_ADD: "+", OP_SUB: "-", OP_MUL: "*"}[op]
            self.wrapped(
                indent, dest,
                f"{self.operand(ins[4])} {sym} {self.operand(ins[5])}",
            )
        elif op in (OP_AND, OP_OR, OP_XOR):
            sym = {OP_AND: "&", OP_OR: "|", OP_XOR: "^"}[op]
            emit(
                indent,
                f"{self.reg(dest)} = {self.operand(ins[4])} {sym}"
                f" {self.operand(ins[5])}",
            )
        elif op == OP_SHL:
            self.wrapped(
                indent, dest,
                f"{self.operand(ins[4])} << {self.shift(ins[5])}",
            )
        elif op == OP_SHR:
            emit(
                indent,
                f"{self.reg(dest)} = {self.operand(ins[4])}"
                f" >> {self.shift(ins[5])}",
            )
        elif op == OP_USHR:
            # Below 2**63, so in range, unless the count is 0.
            count = self.shift(ins[5])
            expr = f"({self.operand(ins[4])} & {_MASK}) >> {count}"
            if count.isdigit() and count != "0":
                emit(indent, f"{self.reg(dest)} = {expr}")
            else:
                self.wrapped(indent, dest, expr, low=False)
        elif op in (OP_DIV, OP_MOD):
            a, b = self.operand(ins[4]), self.operand(ins[5])
            word = "division" if op == OP_DIV else "modulo"
            trap(f"{b} == 0", f"'{word} by zero'")
            if op == OP_MOD:
                emit(indent, f"v = abs({a}) % abs({b})")
                emit(indent, f"{self.reg(dest)} = -v if {a} < 0 else v")
            else:
                emit(indent, f"v = abs({a}) // abs({b})")
                quotient = f"-v if ({a} >= 0) != ({b} >= 0) else v"
                # Only MIN // -1 leaves the range: wrap where a register
                # or literal could be MIN and the divisor -1.
                if a in (self.reg(ins[4]), _INT_MIN) and b in (
                    self.reg(ins[5]), "-1"
                ):
                    quotient += f" if v <= {_INT_MAX} else _w(v)"
                emit(indent, f"{self.reg(dest)} = {quotient}")
        elif op in _COMPARISONS:
            # A bare ==/!= is identity on references: the heap classes
            # define no __eq__/__ne__ (see repro.ir.ops.eval_cmp).
            sym = _COMPARISONS[op]
            emit(
                indent,
                f"{self.reg(dest)} = {self.operand(ins[4])} {sym}"
                f" {self.operand(ins[5])}",
            )
        elif op == OP_NOT:
            emit(indent, f"{self.reg(dest)} = not {self.operand(ins[4])}")
        elif op == OP_NEG:
            self.wrapped(indent, dest, f"-{self.operand(ins[4])}", low=False)
        elif op == OP_NEW:
            emit(
                indent,
                f"{self.reg(dest)} = HeapObject({ins[4]!r}, dict({ins[5]!r}))",
            )
        elif op in (OP_LOAD_FIELD, OP_STORE_FIELD):
            obj = self.operand(ins[4])
            word = "reading" if op == OP_LOAD_FIELD else "writing"
            trap(f"{obj} is None", f"'null dereference {word} .{ins[5]}'")
            if op == OP_LOAD_FIELD:
                emit(indent, f"{self.reg(dest)} = {obj}.fields[{ins[5]!r}]")
            else:
                emit(
                    indent,
                    f"{obj}.fields[{ins[5]!r}] = {self.operand(ins[6])}",
                )
                emit(indent, f"{self.reg(dest)} = None")
        elif op == OP_LOAD_GLOBAL:
            emit(indent, f"{self.reg(dest)} = state.globals[{ins[4]!r}]")
        elif op == OP_STORE_GLOBAL:
            emit(
                indent,
                f"state.globals[{ins[4]!r}] = {self.operand(ins[5])}",
            )
            emit(indent, f"{self.reg(dest)} = None")
        elif op == OP_NEW_ARRAY:
            n = self.operand(ins[4])
            trap(f"{n} < 0", f'f"negative array length {{{n}}}"')
            # ir.ops.check_array_length, inline.
            trap(
                f"{n} > {MAX_ARRAY_LENGTH}",
                f'f"array length {{{n}}} exceeds the maximum'
                f' {MAX_ARRAY_LENGTH}"',
            )
            emit(indent, f"{self.reg(dest)} = HeapArray([{ins[5]!r}] * {n})")
        elif op in (OP_ARRAY_LOAD, OP_ARRAY_STORE):
            array, i = self.operand(ins[4]), self.operand(ins[5])
            trap(f"{array} is None", "'null array access'")
            emit(indent, f"vs = {array}.values")
            trap(
                f"not 0 <= {i} < len(vs)",
                f'f"array index {{{i}}} out of bounds"',
            )
            if op == OP_ARRAY_LOAD:
                emit(indent, f"{self.reg(dest)} = vs[{i}]")
            else:
                emit(indent, f"vs[{i}] = {self.operand(ins[6])}")
                emit(indent, f"{self.reg(dest)} = None")
        elif op == OP_ARRAY_LENGTH:
            array = self.operand(ins[4])
            trap(f"{array} is None", "'null dereference in len()'")
            emit(indent, f"{self.reg(dest)} = len({array}.values)")
        else:  # pragma: no cover - translate emits no other opcodes
            raise AssertionError(f"cannot compile opcode {op}")

    # -- the packed meter -------------------------------------------------
    # Steps and cycles live in one local, ``e = (steps << K) + cycles``
    # (no ``m[0]`` subscript on the hot path), written back to the
    # shared slot ``m[0]`` exactly where another frame or the machine
    # observes it: call sites, returns and trap raises.  ``_finish``
    # takes it as an argument.
    def meter_guard(self, indent: int, w: int, pc: int) -> None:
        """Segment-entry budget guard routing to the ``_finish`` replay:
        ``e`` exceeds the literal exactly when ``steps + w`` exceeds
        ``max_steps``, whatever the cycle field holds."""
        limit = ((self.max_steps - w) << self.width) | ((1 << self.width) - 1)
        self.emit(indent, f"if e > {limit}:")
        self.gen_finish(indent + 1, pc)

    def gen_finish(self, indent: int, pc: int) -> None:
        """The budget exit of the guard at ``pc``: the meter plus the
        registers :func:`finish_live_ins` names."""
        live = "".join(
            f", {self.reg(k)}" for k in finish_live_ins(self.fn, pc)
        )
        self.emit(indent, f"_finish(vm, m, _fn{self.index}, e, {pc}{live})")

    def meter_charge(self, indent: int, w: int, acc) -> None:
        """Segment-exit meter charge: ``w`` steps, ``acc`` cycles."""
        self.emit(indent, f"e += {self.packed(w, acc)}")

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

    def loop_headers(self) -> list[int]:
        """The targets of backward edges, innermost loop first.

        A back edge dispatches once per iteration, a forward merge once
        per pass, so the ladder tests these labels first.  A header's
        loop spans the pcs from it to the end of the farthest block
        that jumps back to it; its depth is the number of such spans
        enclosing its own (ties in pc order)."""
        ends: dict[int, int] = {}
        for start, count, _name in self.fn.blocks:
            for edge in self.block_edges(start, count):
                if edge[0] <= start:
                    ends[edge[0]] = max(ends.get(edge[0], 0), start + count)

        def depth(header: int) -> int:
            return sum(
                1 for outer, end in ends.items()
                if outer <= header and ends[header] <= end
            )

        return sorted(ends, key=lambda header: (-depth(header), header))

    def gen_edge(
        self, indent: int, edge: tuple, branch=None, slot: int = 0
    ) -> None:
        self.count(indent, edge[2], branch, slot)
        for d, src in edge[1]:
            self.emit(indent, f"{self.reg(d)} = {self.operand(src)}")
        target = edge[0]
        if target in self._inline:
            self.gen_body(indent, target, self._spans[target])
        else:
            self.emit(indent, f"_L = {target}")
            self.emit(indent, "continue")

    def gen_terminator(self, indent: int, ins: tuple) -> None:
        op = ins[0]
        if op == OP_RETURN:
            value = self.operand(ins[4]) if ins[4] >= 0 else "None"
            self.emit(indent, "m[0] = e")
            self.emit(indent, f"return {value}")
        elif op == OP_GOTO:
            self.gen_edge(indent, ins[4])
        elif op == OP_IF:
            # Each edge's counter stands for one branch direction
            # (slot 0 taken, 1 not taken).
            self.emit(indent, f"if {self.operand(ins[4])}:")
            self.gen_edge(indent + 1, ins[5], ins[2], 0)
            self.gen_edge(indent, ins[6], ins[2], 1)
        else:  # pragma: no cover
            raise AssertionError(f"unknown terminator opcode {op}")

    def gen_segment(self, indent: int, start: int, end: int) -> None:
        """A maximal call-free run; the last pc may be the terminator."""
        code = self.fn.code
        w = end - start
        self.meter_guard(indent, w, start)
        has_term = code[end - 1][0] in (OP_GOTO, OP_IF, OP_RETURN)
        body_end = end - 1 if has_term else end
        acc = 0  # partial cycle sum
        k = 0
        for pc in range(start, body_end):
            self.gen_ins(indent, code[pc], k + 1, acc)
            acc = acc + code[pc][1]
            k += 1
        if has_term:
            acc = acc + code[end - 1][1]
        self.meter_charge(indent, w, acc)
        if has_term:
            self.gen_terminator(indent, code[end - 1])

    # -- direct call lowering -------------------------------------------
    def gen_call(self, indent: int, ins: tuple, pc: int) -> None:
        """One call site: budget guard, write the meter back (the step
        charged, so the callee observes the machine's ordering),
        dispatch the callee's generated function directly, reload and
        charge the call cost."""
        target = self.entries.get(id(ins[4]))
        if target is None:  # pragma: no cover - translate interns callees
            raise AssertionError(
                f"{self.fn.name}: call target {ins[4]!r} is not part of "
                "the compiled program"
            )
        emit = self.emit
        self.meter_guard(indent, 1, pc)
        emit(indent, f"m[0] = e + {self.packed(1, 0)}")
        args = "".join(f", {self.operand(a)}" for a in ins[5])
        emit(indent, f"{self.reg(ins[3])} = {target}(vm, m{args}, d + 1)")
        cost = self.packed(0, ins[1])
        emit(indent, f"e = m[0] + {cost}" if cost else "e = m[0]")

    # -- function scaffolding -------------------------------------------
    def gen_body(self, indent: int, start: int, count: int) -> None:
        """One block's body: maximal call-free segments + call sites."""
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
        # translate emits spans from pc 0, each ending in a terminator
        if not blocks or blocks[0][0] != 0:  # pragma: no cover
            raise AssertionError(f"{fn.name}: no usable block spans")
        for start, count, _name in blocks:
            last = fn.code[start + count - 1][0]
            if last not in (OP_GOTO, OP_IF, OP_RETURN):  # pragma: no cover
                raise AssertionError(
                    f"{fn.name}: block at pc {start} has no terminator"
                )
        self._inline, entry_preds = self.plan_inlining()
        self._spans = {start: count for start, count, _name in blocks}
        params = "".join(f", r{k}" for k in range(fn.nparams))
        emit(0, f"def _mu{self.index}(vm, m{params}, d):")
        # The depth trap leaves m[0] as the caller flushed it.
        emit(1, f"if d > {MAX_CALL_DEPTH}:")
        emit(2, "raise EvaluationTrap('stack overflow')")
        self.count(1, fn.entry_block)
        emit(1, "e = m[0]")
        if any(ins[0] in (OP_LOAD_GLOBAL, OP_STORE_GLOBAL) for ins in fn.code):
            emit(1, "state = vm.state")
        headers = self.loop_headers()
        ladder = headers + [
            start
            for start, _count, _name in blocks
            if start not in self._inline and start not in headers
        ]
        if len(ladder) == 1 and not entry_preds:
            # Control can never reach a label twice: every other block
            # is inlined at its unique predecessor edge and nothing
            # jumps back to the entry, so no `continue` is ever emitted
            # — skip the dispatch loop entirely.
            self.gen_body(1, ladder[0], self._spans[ladder[0]])
        else:
            emit(1, "_L = 0")
            emit(1, "while True:")
            for idx, start in enumerate(ladder):
                if idx == 0:
                    emit(2, f"if _L == {start}:")
                elif idx == len(ladder) - 1:
                    emit(2, "else:")
                else:
                    emit(2, f"elif _L == {start}:")
                self.gen_body(3, start, self._spans[start])

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
    max_steps: int,
    width: Optional[int],
    sites: Optional[list] = None,
) -> str:
    """The unit's module source with cycle field ``width``; a ``sites``
    list makes it a counted module and receives one ``(block, branch,
    slot)`` per counter."""
    entries = {id(fn): f"_mu{i}" for i, fn in enumerate(order)}
    return "\n".join(
        _FunctionCompiler(fn, max_steps, i, entries, sites, width).source()
        for i, fn in enumerate(order)
    )


def generate_module_source(
    bytecode: BytecodeProgram,
    max_steps: int = MAX_STEPS,
    roots: Optional[Sequence[str]] = None,
    counted: bool = False,
) -> str:
    """The Python source ``compile_module`` would exec for ``roots``
    (see :func:`unit_functions`; ``None`` = the whole program), without
    executing it — the static codegen lint works on this text."""
    order = unit_functions(bytecode, roots)
    return _unit_source(
        order, max_steps, meter_width(order, max_steps, counted),
        [] if counted else None,
    )


def function_source(bytecode: BytecodeProgram, name: str) -> str:
    """The ``_mu<N>`` function :func:`generate_module_source` emits for
    ``name`` (plain, whole program, default limits), alone — the
    per-function codegen lint works on this."""
    order = list(bytecode.functions.values())
    entries = {id(fn): f"_mu{i}" for i, fn in enumerate(order)}
    fn = bytecode.functions[name]
    return _FunctionCompiler(
        fn, MAX_STEPS, order.index(fn), entries,
        width=meter_width(order, MAX_STEPS),
    ).source()


class MegaunitModule:
    """One compiled whole-program unit: the source, the per-function
    entry points, the function-name order the indices follow, and
    ``width``, the ``K`` of its packed meter (:func:`meter_width`).

    A counted module also carries ``counts``, the list its generated
    code increments (one slot per frame entry or CFG edge site), and
    ``sites``, what each slot stands for: ``(block, branch, slot)``
    with ``branch`` the ``If`` node of an edge out of a branch (and
    ``slot`` 0 taken, 1 not taken) or ``None``."""

    __slots__ = ("source", "entries", "order", "width", "counts", "sites")

    def __init__(
        self,
        source: str,
        entries: dict[str, Any],
        order: list[str],
        width: int,
        counts: Optional[list] = None,
        sites: tuple = (),
    ) -> None:
        self.source = source
        self.entries = entries
        self.order = order
        self.width = width
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
    order: list[BytecodeFunction],
    source: str,
    width: int,
    sites: Optional[list] = None,
) -> MegaunitModule:
    namespace: dict[str, Any] = {
        "EvaluationTrap": EvaluationTrap,
        "HeapObject": HeapObject,
        "HeapArray": HeapArray,
        "_finish": _finish_budget,
        "_w": wrap64,
    }
    counts = None
    if sites is not None:
        counts = namespace[COUNTS_NAME] = [0] * len(sites)
    for i, fn in enumerate(order):
        namespace[f"_fn{i}"] = fn
    exec(  # noqa: S102 - the source is generated from trusted IR
        compile(source, "<megaunit>", "exec"),
        namespace,
    )
    entries = {fn.name: namespace[f"_mu{i}"] for i, fn in enumerate(order)}
    return MegaunitModule(
        source, entries, [fn.name for fn in order], width, counts,
        tuple(sites or ()),
    )


def compile_module(
    bytecode: BytecodeProgram,
    max_steps: int,
    codegen_cache: Optional[Any] = None,
    roots: Optional[Sequence[str]] = None,
    counted: bool = False,
) -> Optional[MegaunitModule]:
    """Compile (or exec from cache) the unit of every function reachable
    from ``roots`` (``None`` = the whole program); ``None`` when its
    baked costs cannot be packed (see :func:`meter_width`).  The
    codegen cache key hashes the unit's functions, so each set of roots
    has its own entry.

    ``counted`` compiles the profiling variant (see
    :class:`MegaunitModule`).  It is built once per profiling run and
    never enters the codegen cache: its counter sites hold the IR's
    blocks and branches, which a cached text could not name."""
    order = unit_functions(bytecode, roots)
    width = meter_width(order, max_steps, counted)
    if width is None:
        return None
    sites = None
    if counted:
        sites = []
        codegen_cache = None
    if codegen_cache is not None:
        from .codegen_cache import codegen_key, load_source, store_source

        key = codegen_key(order, max_steps)
        payload = load_source(codegen_cache, key)
        if (
            payload is not None
            and payload.get("functions") == [fn.name for fn in order]
        ):
            return _exec_module(order, payload["source"], width)
    source = _unit_source(order, max_steps, width, sites)
    module = _exec_module(order, source, width, sites)
    if codegen_cache is not None:
        store_source(
            codegen_cache, key,
            {"functions": module.order, "source": source},
        )
    return module


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class MegaunitVirtualMachine(VirtualMachine):
    """A :class:`VirtualMachine` whose runs execute one exec unit: the
    run's entry function and everything it can call.  Drop-in: same
    constructor, ``run``/``reset``/``state`` API and observable
    semantics as every other engine.  The unit compiles lazily on the
    first frame; the machine keeps one, keyed by
    ``(max_steps, entry, counted)``, and recompiles when the key
    changes.  A machine with a ``profile=`` collector runs the counted
    module and folds its counts into the collector whenever a run
    leaves it (return, trap or budget stop); without one it runs the
    plain, metered module.  Insufficient recursion headroom, carried-in
    meters the packed meter cannot hold, or baked costs it cannot
    hold fall back to the inherited ``vm`` loop (a ``vm.fallback``
    event records why).

    ``codegen_cache`` (an :class:`~repro.pipeline.cache.ArtifactCache`
    or anything with its aux-store API) persists the generated text:
    warm runs re-``exec`` the cached source instead of regenerating it
    (see :mod:`repro.vm.codegen_cache` for the key discipline)."""

    def __init__(
        self,
        bytecode: BytecodeProgram,
        codegen_cache: Optional[Any] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(bytecode, **kwargs)
        self.codegen_cache = codegen_cache
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
        key = (self.max_steps, self._mu_entry, counted)
        if key != self._mu_key:
            self._mu_key = key
            self._mu_module = compile_module(
                self.bytecode, self.max_steps,
                codegen_cache=self.codegen_cache,
                roots=None if self._mu_entry is None else (self._mu_entry,),
                counted=counted,
            )
        return self._mu_module

    def _stack_headroom_ok(self) -> bool:
        return stack_headroom_ok(self._call_depth)

    def _note_fallback(self, reason: str) -> None:
        if self._call_depth > 1 or reason in self.fallbacks:
            return
        self.fallbacks.add(reason)
        current_tracer().event(
            "vm.fallback", engine="megaunit", fallback="vm", reason=reason
        )

    def _run_frame(self, fn: BytecodeFunction, args: list) -> Any:
        module = self._module()
        if module is None:
            self._note_fallback("non-integer-costs")
            return super()._run_frame(fn, args)
        # The unit holds every function reachable from the run's entry.
        entry = module.entries[fn.name]
        if not self._stack_headroom_ok():
            self._note_fallback("recursion-headroom")
            return super()._run_frame(fn, args)
        state = self.state
        width = module.width
        packed = state.steps
        if width:
            # The cycle field holds a run's own cycles plus as many
            # carried in (see meter_width); a float total of integers
            # below 2**53 is exact, so the cycles come back bit for bit.
            cycles = state.cycles
            if not (
                packed >= 0
                and type(cycles) is float
                and cycles.is_integer()
                and 0 <= cycles < 1 << (width - 1)
            ):
                self._note_fallback("meter-width")
                return super()._run_frame(fn, args)
            packed = (packed << width) + int(cycles)
        m = [packed]
        # Every exit leaves the packed meter in m[0]: returns, trap
        # sites, the callee depth guard and the budget replay.  A
        # counted module folds its counts however the run leaves it.
        try:
            return entry(self, m, *args, self._call_depth)
        finally:
            state.steps = m[0] >> width
            if width:
                state.cycles = float(m[0] & ((1 << width) - 1))
            if module.counts is not None:
                module.fold_counts(self.profile)


__all__ = [
    "COUNTS_NAME",
    "MEGAUNIT_BUILTINS",
    "MEGAUNIT_NAMESPACE",
    "MegaunitModule",
    "MegaunitVirtualMachine",
    "compile_module",
    "finish_live_ins",
    "function_source",
    "generate_module_source",
    "stack_headroom_ok",
    "unit_functions",
]
