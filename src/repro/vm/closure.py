"""The closure engine: basic blocks compiled to Python closures.

The third execution engine (``--engine=closure``).  Where the bytecode
machine pays one handler round-trip per instruction, this backend
**compiles each translated function to Python source** — one closure
per basic block — and lets CPython's own bytecode do the dispatch:

* every basic block becomes ``_blk_<pc>(vm, r, m, state)`` returning
  the next block's closure (or ``None`` for a return), driven by a
  trampoline ``while b is not None: b = b(vm, r, m, state)``;
* instructions are inlined as straight-line statements — arithmetic
  with the wrap64 literals baked in, interned constants inlined as
  Python literals, field/array/global traffic as plain subscripts;
* steps and metered cycles are accounted **per segment** (a maximal
  call-free instruction run): one ``m[0] += W`` / ``m[1] += C`` pair
  per segment instead of per instruction, with ``W``/``C`` baked at
  compile time.

Exactness is preserved at every observable point:

* a segment-entry budget guard ``m[0] + W > max_steps`` routes to
  :func:`_finish_budget`, a cold path that replays the segment
  per-instruction through the base handler table and therefore stops
  with bit-identical :class:`BudgetExceeded` timing;
* trap sites flush ``state.steps = m[0] + k`` / ``state.cycles =
  m[1] + c`` with the partial step count and the left-to-right partial
  cycle sum baked in, so values, steps, cycles and trap messages match
  the reference exactly (partial sums are exact for integer-valued
  cost models — the default — since float addition is only
  associative on integers);
* call sites flush the meters to the shared state, run ``vm._call``
  (callees compile lazily on first entry), reload, and charge the call
  cost after, exactly like the machine's frame loops.

Hooked runs (a profile collector or an observer) fall back to the
flat-tuple machine loops, which keeps hook semantics untouched by
construction; so do functions without block-span metadata (legacy
cache artifacts).  ``max_steps`` and ``metered`` are baked into the
generated source, so drivers are recompiled if either changes between
runs on the same machine instance.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from ..interp.interpreter import BudgetExceeded
from ..ir.ops import EvaluationTrap
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
from .machine import (
    _HANDLERS,
    HeapArray,
    HeapObject,
    VirtualMachine,
    _is_ref,
)

_MASK = "18446744073709551615"
_SIGN = "9223372036854775808"
_TWO64 = "18446744073709551616"
_INT_MIN = "-9223372036854775808"
_INT_MAX = "9223372036854775807"

#: sentinel stored in the driver cache for functions that cannot be
#: closure-compiled (no block spans — e.g. a legacy cache artifact)
_FALLBACK = object()

#: every global name the generated source may reference: the fixed
#: support namespace a compiler seeds (block closures ``_blk_<pc>`` and
#: callee cells ``_f<N>`` are added per function and matched by
#: pattern in the lint)
CLOSURE_NAMESPACE = frozenset(
    ("EvaluationTrap", "HeapObject", "HeapArray",
     "_is_ref", "_finish", "_fn", "_tmpl", "_ret")
)

#: the only builtins generated code is allowed to reach
CLOSURE_BUILTINS = frozenset(("abs", "len", "dict"))

#: base opcodes gen_ins/gen_call/gen_terminator can compile — the
#: opcode-space exhaustiveness test asserts this covers all 32
CLOSURE_COVERED = frozenset(
    (
        OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_MOD,
        OP_AND, OP_OR, OP_XOR, OP_SHL, OP_SHR, OP_USHR,
        OP_EQ, OP_NE, OP_LT, OP_LE, OP_GT, OP_GE,
        OP_NOT, OP_NEG, OP_NEW,
        OP_LOAD_FIELD, OP_STORE_FIELD, OP_LOAD_GLOBAL, OP_STORE_GLOBAL,
        OP_NEW_ARRAY, OP_ARRAY_LOAD, OP_ARRAY_STORE, OP_ARRAY_LENGTH,
        OP_CALL, OP_GOTO, OP_IF, OP_RETURN,
    )
)


def _finish_budget(vm, fn, regs, m, pc) -> None:
    """Cold path: this segment's steps cannot all fit the budget.

    Replays from the segment's first pc through the *base* handler
    table with the machine loop's exact accounting; the guard only
    fires when exhaustion is guaranteed within the segment, so this
    always raises — :class:`BudgetExceeded` at the precise instruction
    the flat-tuple loop would stop at (or an :class:`EvaluationTrap`
    if an earlier instruction traps first, flushed identically).
    """
    state = vm.state
    code = fn.code
    max_steps = vm.max_steps
    metered = vm.metered
    steps, cycles = m
    while True:
        ins = code[pc]
        steps += 1
        if steps > max_steps:
            state.steps = steps
            state.cycles = cycles
            raise BudgetExceeded(f"exceeded {max_steps} interpreter steps")
        try:
            pc = _HANDLERS[ins[0]](vm, ins, regs, pc)
        except EvaluationTrap:
            state.steps = steps
            state.cycles = cycles
            raise
        if metered:
            cycles += ins[1]


# ----------------------------------------------------------------------
# Source generation
# ----------------------------------------------------------------------
class _FunctionCompiler:
    """Generates and executes the Python source for one function."""

    def __init__(
        self,
        fn: BytecodeFunction,
        metered: bool,
        max_steps: int,
        max_call_depth: int,
    ) -> None:
        self.fn = fn
        self.metered = metered
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        self.lines: list[str] = []
        self.lo = fn.const_base
        self.hi = fn.const_base + fn.const_count
        self.namespace: dict[str, Any] = {
            "EvaluationTrap": EvaluationTrap,
            "HeapObject": HeapObject,
            "HeapArray": HeapArray,
            "_is_ref": _is_ref,
            "_finish": _finish_budget,
            "_fn": fn,
            "_tmpl": fn.template,
            "_ret": [None],
        }
        self._callees: dict[int, str] = {}

    # -- helpers ---------------------------------------------------------
    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def reg(self, reg: int) -> str:
        """How generated code names register ``reg`` (read or write).

        The closure engine keeps registers in the ``r`` list; the
        megaunit compiler overrides this to use Python locals.
        """
        return f"r[{reg}]"

    def fn_ref(self) -> str:
        """The generated-source global naming this function's
        :class:`BytecodeFunction` (the ``_finish`` cold path needs it)."""
        return "_fn"

    def operand(self, reg: int) -> str:
        """A register read — interned constants inline as literals."""
        if self.lo <= reg < self.hi:
            value = self.fn.template[reg]
            if value is None or type(value) in (int, bool):
                return repr(value)
        return self.reg(reg)

    def callee(self, target: BytecodeFunction) -> str:
        name = self._callees.get(id(target))
        if name is None:
            name = f"_f{len(self._callees)}"
            self._callees[id(target)] = name
            self.namespace[name] = target
        return name

    def flush(self, indent: int, k: int, ck) -> None:
        """Partial meter flush preceding a trap raise.

        ``k`` instructions of the current segment (including the
        trapping one) count as steps; ``ck`` is the left-to-right
        partial cycle sum of the instructions *before* it.
        """
        self.emit(indent, f"state.steps = m[0] + {k}")
        if self.metered:
            if ck:
                self.emit(indent, f"state.cycles = m[1] + {ck!r}")
            else:
                self.emit(indent, "state.cycles = m[1]")

    def wrap64(self, indent: int, dest: int, expr: str) -> None:
        self.emit(indent, f"v = ({expr}) & {_MASK}")
        self.emit(
            indent, f"{self.reg(dest)} = v - {_TWO64} if v & {_SIGN} else v"
        )

    def guarded64(self, indent: int, dest: int, expr: str) -> None:
        # add/sub/mul: skip the mask while the result is in range
        # (identical values — masking an in-range int is the identity).
        self.emit(indent, f"v = {expr}")
        self.emit(indent, f"if {_INT_MIN} <= v <= {_INT_MAX}:")
        self.emit(indent + 1, f"{self.reg(dest)} = v")
        self.emit(indent, "else:")
        self.emit(indent + 1, f"v &= {_MASK}")
        self.emit(
            indent + 1,
            f"{self.reg(dest)} = v - {_TWO64} if v & {_SIGN} else v",
        )

    # -- per-instruction codegen ----------------------------------------
    def gen_ins(self, indent: int, ins: tuple, k: int, ck) -> None:
        """One non-call, non-terminator instruction.

        ``k``/``ck`` position it inside its segment for trap flushes.
        """
        op, dest = ins[0], ins[3]
        emit, flush = self.emit, self.flush
        if op in (OP_ADD, OP_SUB, OP_MUL):
            sym = {OP_ADD: "+", OP_SUB: "-", OP_MUL: "*"}[op]
            self.guarded64(
                indent, dest,
                f"{self.operand(ins[4])} {sym} {self.operand(ins[5])}",
            )
        elif op in (OP_AND, OP_OR, OP_XOR):
            sym = {OP_AND: "&", OP_OR: "|", OP_XOR: "^"}[op]
            self.wrap64(
                indent, dest,
                f"{self.operand(ins[4])} {sym} {self.operand(ins[5])}",
            )
        elif op == OP_SHL:
            self.wrap64(
                indent, dest,
                f"{self.operand(ins[4])} << ({self.operand(ins[5])} & 63)",
            )
        elif op == OP_SHR:
            self.wrap64(
                indent, dest,
                f"{self.operand(ins[4])} >> ({self.operand(ins[5])} & 63)",
            )
        elif op == OP_USHR:
            self.wrap64(
                indent, dest,
                f"({self.operand(ins[4])} & {_MASK})"
                f" >> ({self.operand(ins[5])} & 63)",
            )
        elif op in (OP_DIV, OP_MOD):
            emit(indent, f"b = {self.operand(ins[5])}")
            emit(indent, "if b == 0:")
            flush(indent + 1, k, ck)
            word = "division" if op == OP_DIV else "modulo"
            emit(indent + 1, f"raise EvaluationTrap('{word} by zero')")
            emit(indent, f"a = {self.operand(ins[4])}")
            if op == OP_DIV:
                emit(indent, "v = abs(a) // abs(b)")
                emit(indent, "if (a >= 0) != (b >= 0):")
                emit(indent + 1, "v = -v")
            else:
                emit(indent, "v = abs(a) % abs(b)")
                emit(indent, "if a < 0:")
                emit(indent + 1, "v = -v")
            emit(indent, f"v &= {_MASK}")
            emit(indent, f"{self.reg(dest)} = v - {_TWO64} if v & {_SIGN} else v")
        elif op in (OP_EQ, OP_NE):
            emit(indent, f"a = {self.operand(ins[4])}")
            emit(indent, f"b = {self.operand(ins[5])}")
            test = "a is b if _is_ref(a) or _is_ref(b) else a == b"
            if op == OP_NE:
                test = f"not ({test})"
            emit(indent, f"{self.reg(dest)} = {test}")
        elif op in (OP_LT, OP_LE, OP_GT, OP_GE):
            sym = {OP_LT: "<", OP_LE: "<=", OP_GT: ">", OP_GE: ">="}[op]
            emit(
                indent,
                f"{self.reg(dest)} = {self.operand(ins[4])} {sym}"
                f" {self.operand(ins[5])}",
            )
        elif op == OP_NOT:
            emit(indent, f"{self.reg(dest)} = not {self.operand(ins[4])}")
        elif op == OP_NEG:
            self.guarded64(indent, dest, f"-{self.operand(ins[4])}")
        elif op == OP_NEW:
            emit(
                indent,
                f"{self.reg(dest)} = HeapObject({ins[4]!r}, dict({ins[5]!r}))",
            )
        elif op == OP_LOAD_FIELD:
            emit(indent, f"o = {self.operand(ins[4])}")
            emit(indent, "if o is None:")
            flush(indent + 1, k, ck)
            emit(
                indent + 1,
                f"raise EvaluationTrap('null dereference reading"
                f" .{ins[5]}')",
            )
            emit(indent, f"{self.reg(dest)} = o.fields[{ins[5]!r}]")
        elif op == OP_STORE_FIELD:
            emit(indent, f"o = {self.operand(ins[4])}")
            emit(indent, "if o is None:")
            flush(indent + 1, k, ck)
            emit(
                indent + 1,
                f"raise EvaluationTrap('null dereference writing"
                f" .{ins[5]}')",
            )
            emit(indent, f"o.fields[{ins[5]!r}] = {self.operand(ins[6])}")
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
            emit(indent, f"n = {self.operand(ins[4])}")
            emit(indent, "if n < 0:")
            flush(indent + 1, k, ck)
            emit(
                indent + 1,
                'raise EvaluationTrap(f"negative array length {n}")',
            )
            emit(indent, f"{self.reg(dest)} = HeapArray([{ins[5]!r}] * n)")
        elif op in (OP_ARRAY_LOAD, OP_ARRAY_STORE):
            emit(indent, f"a = {self.operand(ins[4])}")
            emit(indent, "if a is None:")
            flush(indent + 1, k, ck)
            emit(indent + 1, "raise EvaluationTrap('null array access')")
            emit(indent, f"i = {self.operand(ins[5])}")
            emit(indent, "vs = a.values")
            emit(indent, "if not 0 <= i < len(vs):")
            flush(indent + 1, k, ck)
            emit(
                indent + 1,
                'raise EvaluationTrap(f"array index {i} out of bounds")',
            )
            if op == OP_ARRAY_LOAD:
                emit(indent, f"{self.reg(dest)} = vs[i]")
            else:
                emit(indent, f"vs[i] = {self.operand(ins[6])}")
                emit(indent, f"{self.reg(dest)} = None")
        elif op == OP_ARRAY_LENGTH:
            emit(indent, f"a = {self.operand(ins[4])}")
            emit(indent, "if a is None:")
            flush(indent + 1, k, ck)
            emit(
                indent + 1,
                "raise EvaluationTrap('null dereference in len()')",
            )
            emit(indent, f"{self.reg(dest)} = len(a.values)")
        else:  # pragma: no cover - translate emits no other opcodes
            raise AssertionError(f"cannot closure-compile opcode {op}")

    def gen_edge(self, indent: int, edge: tuple) -> None:
        for d, s in edge[1]:
            self.emit(indent, f"{self.reg(d)} = {self.reg(s)}")
        self.emit(indent, f"return _blk_{edge[0]}")

    def gen_terminator(self, indent: int, ins: tuple) -> None:
        op = ins[0]
        if op == OP_RETURN:
            value = self.operand(ins[4]) if ins[4] >= 0 else "None"
            self.emit(indent, f"_ret[0] = {value}")
            self.emit(indent, "return None")
        elif op == OP_GOTO:
            self.gen_edge(indent, ins[4])
        elif op == OP_IF:
            self.emit(indent, f"if {self.operand(ins[4])}:")
            self.gen_edge(indent + 1, ins[5])
            self.gen_edge(indent, ins[6])
        else:  # pragma: no cover
            raise AssertionError(f"unknown terminator opcode {op}")

    # -- per-block codegen ----------------------------------------------
    def gen_block(self, start: int, count: int) -> None:
        code = self.fn.code
        self.emit(0, f"def _blk_{start}(vm, r, m, state):")
        pc = start
        end = start + count
        while pc < end:
            if code[pc][0] == OP_CALL:
                self.gen_call(1, code[pc], pc)
                pc += 1
                continue
            seg_end = pc
            while seg_end < end and code[seg_end][0] != OP_CALL:
                seg_end += 1
            self.gen_segment(1, pc, seg_end)
            pc = seg_end
        self.emit(0, "")

    def meter_guard(self, indent: int, w: int, pc: int) -> None:
        """Segment-entry budget guard routing to the ``_finish`` replay.

        The megaunit compiler overrides this (and :meth:`meter_charge`)
        to keep the meters in Python locals.
        """
        self.emit(indent, f"if m[0] + {w} > {self.max_steps}:")
        self.emit(indent + 1, f"_finish(vm, {self.fn_ref()}, r, m, {pc})")

    def meter_charge(self, indent: int, w: int, acc) -> None:
        """Segment-exit meter charge: ``w`` steps, ``acc`` cycles."""
        self.emit(indent, f"m[0] += {w}")
        if self.metered and acc:
            self.emit(indent, f"m[1] += {acc!r}")

    def gen_segment(self, indent: int, start: int, end: int) -> None:
        """A maximal call-free run; the last pc may be the terminator."""
        code = self.fn.code
        w = end - start
        self.meter_guard(indent, w, start)
        has_term = code[end - 1][0] in (OP_GOTO, OP_IF, OP_RETURN)
        body_end = end - 1 if has_term else end
        acc = 0  # left-to-right partial cycle sum, exact for int costs
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

    def gen_call(self, indent: int, ins: tuple, pc: int) -> None:
        """One call site: flush, dispatch, reload, charge the cost."""
        self.emit(indent, f"if m[0] + 1 > {self.max_steps}:")
        self.emit(indent + 1, f"_finish(vm, {self.fn_ref()}, r, m, {pc})")
        self.emit(indent, "m[0] += 1")
        self.emit(indent, "state.steps = m[0]")
        self.emit(indent, "state.cycles = m[1]")
        args = ", ".join(self.reg(a) for a in ins[5])
        self.emit(
            indent,
            f"{self.reg(ins[3])} = vm._call({self.callee(ins[4])}, [{args}])",
        )
        self.emit(indent, "m[0] = state.steps")
        self.emit(indent, "m[1] = state.cycles")
        if self.metered and ins[1]:
            self.emit(indent, f"m[1] += {ins[1]!r}")

    def gen_drive(self) -> None:
        emit = self.emit
        emit(0, "def _drive(vm, args):")
        emit(1, f"if vm._call_depth > {self.max_call_depth}:")
        emit(2, "raise EvaluationTrap('stack overflow')")
        emit(1, "r = _tmpl[:]")
        emit(1, "if args:")
        emit(2, "r[:len(args)] = args")
        emit(1, "state = vm.state")
        emit(1, "m = [state.steps, state.cycles]")
        emit(1, "b = _blk_0")
        emit(1, "while b is not None:")
        emit(2, "b = b(vm, r, m, state)")
        emit(1, "state.steps = m[0]")
        emit(1, "state.cycles = m[1]")
        emit(1, "return _ret[0]")

    def source(self) -> str:
        """Generate the function's full Python source without executing
        it — the codegen lint verifies this text statically."""
        for start, count, _name in self.fn.blocks:
            self.gen_block(start, count)
        self.gen_drive()
        return "\n".join(self.lines) + "\n"

    def compile(self) -> Callable:
        source = self.source()
        exec(  # noqa: S102 - the source is generated from trusted IR
            compile(source, f"<closure:{self.fn.name}>", "exec"),
            self.namespace,
        )
        drive = self.namespace["_drive"]
        drive._source = source  # debugging / tests
        return drive


def compile_function(
    fn: BytecodeFunction,
    metered: bool,
    max_steps: int,
    max_call_depth: int,
) -> Optional[Callable]:
    """Closure-compile one function, or None when it cannot be.

    Functions without block spans (legacy schema-v2 cache artifacts)
    are not compilable and run through the machine loops instead.
    """
    if not fn.blocks:
        return None
    return _FunctionCompiler(fn, metered, max_steps, max_call_depth).compile()


def exec_function_source(
    fn: BytecodeFunction,
    bytecode: BytecodeProgram,
    source: str,
    callees: Sequence[str],
) -> Callable:
    """Execute cached generated source for ``fn`` without regenerating.

    ``callees`` is the callee-name order the compiler assigned its
    ``_f<N>`` cells in — the namespace is rebuilt against the *current*
    program's function table, so a cached driver can never capture
    functions of another program.  Raises :class:`KeyError` when a
    callee is missing (the caller regenerates from scratch then).
    """
    namespace: dict[str, Any] = {
        "EvaluationTrap": EvaluationTrap,
        "HeapObject": HeapObject,
        "HeapArray": HeapArray,
        "_is_ref": _is_ref,
        "_finish": _finish_budget,
        "_fn": fn,
        "_tmpl": fn.template,
        "_ret": [None],
    }
    for i, name in enumerate(callees):
        namespace[f"_f{i}"] = bytecode.functions[name]
    exec(  # noqa: S102 - cached text was generated from trusted IR
        compile(source, f"<closure:{fn.name}>", "exec"),
        namespace,
    )
    drive = namespace["_drive"]
    drive._source = source
    return drive


def generate_source(
    fn: BytecodeFunction,
    metered: bool = True,
    max_steps: int = 50_000_000,
    max_call_depth: int = 200,
) -> str:
    """The Python source ``compile_function`` would exec, *without*
    executing it — the static codegen lint works on this text."""
    return _FunctionCompiler(fn, metered, max_steps, max_call_depth).source()


def function_source(fn: BytecodeFunction, metered: bool = True) -> str:
    """The generated Python source for ``fn`` (docs and debugging)."""
    return generate_source(fn, metered)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ClosureVirtualMachine(VirtualMachine):
    """A :class:`VirtualMachine` whose frames run compiled closures.

    Drop-in: same constructor, ``run``/``reset``/``state`` API and
    observable semantics.  Drivers compile lazily on a function's
    first frame (so construction stays cheap and recursion works) and
    are cached per ``(max_steps, metered)`` — changing either on a
    live machine transparently recompiles.  Hooked runs (profile
    collector or observer) fall back to the machine's flat-tuple
    loops, as do functions without block metadata.

    ``codegen_cache`` (an :class:`~repro.pipeline.cache.ArtifactCache`
    or anything with its aux-store API) persists the generated text:
    warm runs re-``exec`` the cached source instead of regenerating it
    (see :mod:`repro.vm.codegen_cache` for the key discipline).
    """

    def __init__(
        self,
        bytecode: BytecodeProgram,
        codegen_cache: Optional[Any] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(bytecode, **kwargs)
        self.codegen_cache = codegen_cache
        self._drivers: dict[str, Any] = {}
        self._compiled_for = (self.max_steps, self.metered)

    def _compile_driver(self, fn: BytecodeFunction) -> Optional[Callable]:
        """Compile one driver, through the codegen cache when present."""
        if not fn.blocks:
            return None
        cache = self.codegen_cache
        if cache is None:
            return compile_function(
                fn, self.metered, self.max_steps, self.max_call_depth
            )
        from .codegen_cache import codegen_key, load_source, store_source

        key = codegen_key(
            "closure", (fn,), self.metered, self.max_steps,
            self.max_call_depth,
        )
        payload = load_source(cache, key, "closure")
        if payload is not None and payload.get("function") == fn.name:
            try:
                return exec_function_source(
                    fn, self.bytecode, payload["source"], payload["callees"]
                )
            except KeyError:
                pass  # callee vanished from the table: regenerate
        compiler = _FunctionCompiler(
            fn, self.metered, self.max_steps, self.max_call_depth
        )
        drive = compiler.compile()
        callees = [
            compiler.namespace[f"_f{i}"].name
            for i in range(len(compiler._callees))
        ]
        store_source(
            cache, key,
            {
                "engine": "closure",
                "function": fn.name,
                "callees": callees,
                "source": drive._source,
            },
        )
        return drive

    def _run_frame(self, fn: BytecodeFunction, args: list[Any]) -> Any:
        if self.profile is not None or self.observer is not None:
            return super()._run_frame(fn, args)
        key = (self.max_steps, self.metered)
        if key != self._compiled_for:
            self._drivers.clear()
            self._compiled_for = key
        drive = self._drivers.get(fn.name)
        if drive is None:
            drive = self._compile_driver(fn) or _FALLBACK
            self._drivers[fn.name] = drive
        if drive is _FALLBACK:
            return super()._run_frame(fn, args)
        return drive(self, args)


__all__ = [
    "CLOSURE_BUILTINS",
    "CLOSURE_COVERED",
    "CLOSURE_NAMESPACE",
    "ClosureVirtualMachine",
    "compile_function",
    "exec_function_source",
    "function_source",
    "generate_source",
]
