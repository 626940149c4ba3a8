"""Static lint over the exec-generated engine source.

The closure engine (:mod:`repro.vm.closure`) compiles each function to
Python source and ``exec``\\s it; the megaunit engine
(:mod:`repro.vm.megaunit`) does the same for the whole program at
once.  That source is generated from data that may have travelled
through a cache file, so the verifier lints the *text* (without
executing it) for the properties the codegen promises:

* it parses, and consists only of module-level function definitions
  (the ``_blk_<pc>`` block closures plus the ``_drive`` trampoline);
* no **banned names** anywhere (``eval``, ``exec``, ``open``, ... —
  generated code has no business reaching them) and no name reads
  outside the closed set the compiler seeds: the fixed support
  namespace, the two whitelisted builtins, per-function ``_blk_*`` /
  ``_f<N>`` cells, parameters, and locals assigned in the function;
* **balanced accounting**: per block closure, the ``m[0] += K`` step
  increments sum to exactly the block's instruction count, and the
  ``m[1] += C`` cycle increments sum to the block's total baked cost;
* every ``raise EvaluationTrap(...)`` inside a block closure is
  preceded (in the same statement suite) by a ``state.steps = ...``
  meter flush, so traps can never escape with stale accounting.

:func:`lint_megaunit_source` adds the whole-program variants: per
generated function, the step/cycle charges — which live in the meter
locals ``s``/``c`` there: ``s += W`` / ``c += C`` per segment plus
the ``m[0] = s + 1`` / ``c = m[1] + K`` call-site writebacks — must
sum to the bytecode function's instruction count and total baked
cost, and every *direct call* is audited against the program's
function table (the ``_mu<N>`` index must exist and the argument
count must match the callee's arity plus the ``vm``/``m``/``d``
protocol slots).  Every budget exit must have the sparse form
``_finish(vm, _fn<N>, s, c, pc, r<a>, r<b>, ...)``: its own function
cell, the meter locals, a literal pc inside the function, and exactly
the registers :func:`~repro.vm.megaunit.finish_live_ins` names for
that pc, in that order — a missing register would make the replay
read a template slot instead of the live value.  A counted module (the
profiling variant) may also read its counter list ``_counts``, and
only as ``_counts[<k>] += 1``: one literal slot per frame entry and
CFG edge of the unit, each bumped at exactly one site.

:func:`lint_closure_source` and :func:`lint_megaunit_source` return
plain message strings; the ``bc-codegen-lint`` checker turns them into
report violations.
"""

from __future__ import annotations

import ast
import math
import re

from ...vm.closure import CLOSURE_BUILTINS, CLOSURE_NAMESPACE, generate_source
from ...vm.bytecode import OP_GOTO, OP_IF
from ...vm.megaunit import (
    COUNTS_NAME,
    MEGAUNIT_BUILTINS,
    MEGAUNIT_NAMESPACE,
    MegaunitUnsupported,
    finish_live_ins,
    generate_module_source,
)

#: names generated code must never mention, in any position
BANNED_NAMES = frozenset(
    (
        "eval", "exec", "compile", "__import__", "open",
        "globals", "locals", "vars", "getattr", "setattr", "delattr",
        "input", "breakpoint", "__builtins__",
    )
)

_GENERATED_NAME = re.compile(r"\A(_blk_\d+|_f\d+)\Z")
_BLOCK_DEF = re.compile(r"\A_blk_(\d+)\Z")

#: megaunit generated cells: entry functions, function refs, templates
_MEGA_NAME = re.compile(r"\A(_mu\d+|_fn\d+|_tmpl\d+)\Z")
_MEGA_DEF = re.compile(r"\A_mu(\d+)\Z")


def _literal(node) -> object:
    """The numeric value of an AST literal, or None if it isn't one."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
    ):
        return -node.operand.value
    return None


def _meter_increments(func: ast.FunctionDef, slot: int) -> list:
    """Values of every ``m[<slot>] += <literal>`` in the function."""
    found = []
    for node in ast.walk(func):
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Add)
            and isinstance(node.target, ast.Subscript)
            and isinstance(node.target.value, ast.Name)
            and node.target.value.id == "m"
            and isinstance(node.target.slice, ast.Constant)
            and node.target.slice.value == slot
        ):
            found.append(_literal(node.value))
    return found


def _is_trap_raise(stmt) -> bool:
    return (
        isinstance(stmt, ast.Raise)
        and isinstance(stmt.exc, ast.Call)
        and isinstance(stmt.exc.func, ast.Name)
        and stmt.exc.func.id == "EvaluationTrap"
    )


def _is_steps_flush(stmt) -> bool:
    return (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Attribute)
        and stmt.targets[0].attr == "steps"
        and isinstance(stmt.targets[0].value, ast.Name)
        and stmt.targets[0].value.id == "state"
    )


def _statement_suites(func: ast.FunctionDef):
    """Every statement list in the function, nested suites included."""
    yield func.body
    for node in ast.walk(func):
        for attr in ("body", "orelse", "finalbody"):
            suite = getattr(node, attr, None)
            if node is not func and isinstance(suite, list) and suite:
                yield suite


def _lint_names(func: ast.FunctionDef, messages: list) -> None:
    params = {arg.arg for arg in func.args.args}
    assigned = {
        node.id
        for node in ast.walk(func)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, (ast.Store, ast.Del))
    }
    for node in ast.walk(func):
        if not isinstance(node, ast.Name):
            continue
        name = node.id
        if name in BANNED_NAMES:
            messages.append(
                f"{func.name}: banned name {name!r} in generated source"
            )
        elif isinstance(node.ctx, ast.Load) and not (
            name in params
            or name in assigned
            or name in CLOSURE_NAMESPACE
            or name in CLOSURE_BUILTINS
            or _GENERATED_NAME.match(name)
        ):
            messages.append(
                f"{func.name}: generated source reads unexpected "
                f"global {name!r}"
            )


def _lint_accounting(
    func: ast.FunctionDef,
    start: int,
    spans: dict,
    code: tuple,
    metered: bool,
    messages: list,
) -> None:
    count = spans.get(start)
    if count is None:
        messages.append(
            f"{func.name}: no block span starts at pc {start}"
        )
        return
    steps = _meter_increments(func, 0)
    if None in steps:
        messages.append(f"{func.name}: non-literal step increment")
        return
    if sum(steps) != count:
        messages.append(
            f"{func.name}: step increments sum to {sum(steps)} but the "
            f"block has {count} instruction(s)"
        )
    if metered:
        cycles = _meter_increments(func, 1)
        if None in cycles:
            messages.append(f"{func.name}: non-literal cycle increment")
            return
        expected = 0
        for pc in range(start, start + count):
            expected = expected + code[pc][1]
        total = sum(cycles)
        if total != expected and not math.isclose(
            total, expected, rel_tol=1e-12, abs_tol=1e-12
        ):
            messages.append(
                f"{func.name}: cycle increments sum to {total!r} but the "
                f"block's baked costs sum to {expected!r}"
            )


def _lint_trap_flushes(func: ast.FunctionDef, messages: list) -> None:
    for suite in _statement_suites(func):
        for position, stmt in enumerate(suite):
            if _is_trap_raise(stmt) and not any(
                _is_steps_flush(prior) for prior in suite[:position]
            ):
                messages.append(
                    f"{func.name}: EvaluationTrap raised without a "
                    f"preceding state.steps flush (line {stmt.lineno})"
                )


def lint_closure_source(fn, metered: bool = True) -> list[str]:
    """Lint the closure source for ``fn``; returns message strings."""
    messages: list[str] = []
    try:
        source = generate_source(fn, metered=metered)
    except Exception as exc:
        return [f"closure codegen failed: {type(exc).__name__}: {exc}"]
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [f"generated source does not parse: {exc}"]

    spans = {start: count for start, count, _name in fn.blocks}
    seen_blocks = set()
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            messages.append(
                f"unexpected module-level statement in generated source "
                f"(line {node.lineno})"
            )
            continue
        _lint_names(node, messages)
        match = _BLOCK_DEF.match(node.name)
        if match:
            start = int(match.group(1))
            seen_blocks.add(start)
            _lint_accounting(
                node, start, spans, fn.code, metered, messages
            )
            _lint_trap_flushes(node, messages)
        elif node.name != "_drive":
            messages.append(
                f"unexpected generated function {node.name!r}"
            )
    missing = sorted(set(spans) - seen_blocks)
    if missing:
        messages.append(
            f"no closure generated for block(s) at pc {missing}"
        )
    return messages


# ----------------------------------------------------------------------
# Whole-program (megaunit) lint
# ----------------------------------------------------------------------
def _lint_mega_names(
    func: ast.FunctionDef, messages: list, counted: bool = False
) -> None:
    params = {arg.arg for arg in func.args.args}
    assigned = {
        node.id
        for node in ast.walk(func)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, (ast.Store, ast.Del))
    }
    for node in ast.walk(func):
        if not isinstance(node, ast.Name):
            continue
        name = node.id
        if name in BANNED_NAMES:
            messages.append(
                f"{func.name}: banned name {name!r} in generated source"
            )
        elif isinstance(node.ctx, ast.Load) and not (
            name in params
            or name in assigned
            or name in MEGAUNIT_NAMESPACE
            or name in MEGAUNIT_BUILTINS
            or _MEGA_NAME.match(name)
            or (counted and name == COUNTS_NAME)
        ):
            messages.append(
                f"{func.name}: generated source reads unexpected "
                f"global {name!r}"
            )


def _lint_mega_calls(
    func: ast.FunctionDef, order: list, messages: list
) -> None:
    """Audit every call in a generated function.

    Direct calls must target a ``_mu<N>`` that exists in the program's
    function table with the right argument count (``vm``/``m``
    prefix + the callee's parameters + the depth slot); anything else
    must be one of the whitelisted support callables."""
    allowed = MEGAUNIT_NAMESPACE | MEGAUNIT_BUILTINS
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if not isinstance(target, ast.Name):
            messages.append(
                f"{func.name}: non-name call target "
                f"(line {node.lineno})"
            )
            continue
        match = _MEGA_DEF.match(target.id)
        if match:
            index = int(match.group(1))
            if index >= len(order):
                messages.append(
                    f"{func.name}: direct call to _mu{index} but the "
                    f"program has {len(order)} function(s)"
                )
            elif len(node.args) != order[index].nparams + 3:
                messages.append(
                    f"{func.name}: direct call to _mu{index} "
                    f"({order[index].name!r}) passes "
                    f"{len(node.args) - 3} arg(s) for "
                    f"{order[index].nparams} parameter(s)"
                )
        elif target.id not in allowed:
            messages.append(
                f"{func.name}: call to unexpected name {target.id!r}"
            )


def _is_name(node, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _lint_mega_finishes(
    func: ast.FunctionDef, index: int, fn, messages: list
) -> None:
    """Every ``_finish`` budget exit passes its own function cell, the
    meter locals, a literal in-range pc and exactly the live-in
    registers of that pc, in :func:`finish_live_ins` order."""
    for node in ast.walk(func):
        if not (isinstance(node, ast.Call) and _is_name(node.func, "_finish")):
            continue
        args = node.args
        if node.keywords or len(args) < 5 or not all(
            _is_name(arg, name)
            for arg, name in zip(args, ("vm", f"_fn{index}", "s", "c"))
        ):
            messages.append(
                f"{func.name}: _finish call (line {node.lineno}) does not "
                f"pass (vm, _fn{index}, s, c, pc, ...)"
            )
            continue
        pc = _literal(args[4])
        if not isinstance(pc, int) or not 0 <= pc < len(fn.code):
            messages.append(
                f"{func.name}: _finish call (line {node.lineno}) has no "
                f"literal pc inside {fn.name!r}"
            )
            continue
        expected = [f"r{reg}" for reg in finish_live_ins(fn, pc)]
        passed = [
            arg.id if isinstance(arg, ast.Name) else ast.dump(arg)
            for arg in args[5:]
        ]
        if passed != expected:
            messages.append(
                f"{func.name}: _finish at pc {pc} passes "
                f"[{', '.join(passed)}] but its replay reads "
                f"[{', '.join(expected)}]"
            )


def _lint_mega_counters(
    func: ast.FunctionDef, slots: list, messages: list
) -> None:
    """Every use of the counter list is a ``+= 1`` on a literal slot;
    appends the slots to ``slots`` (the module-wide check follows)."""
    bumps = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Subscript)
            and _is_name(node.target.value, COUNTS_NAME)
        ):
            bumps.add(id(node.target.value))
            slot = _literal(node.target.slice)
            if (
                not isinstance(node.op, ast.Add)
                or _literal(node.value) != 1
                or not isinstance(slot, int)
            ):
                messages.append(
                    f"{func.name}: counter update (line {node.lineno}) is "
                    f"not {COUNTS_NAME}[<slot>] += 1"
                )
            else:
                slots.append(slot)
    for node in ast.walk(func):
        if _is_name(node, COUNTS_NAME) and id(node) not in bumps:
            messages.append(
                f"{func.name}: {COUNTS_NAME} used outside a counter "
                f"update (line {node.lineno})"
            )


def _counter_sites(order: list) -> int:
    """Counter slots of a counted unit: one per function entry plus one
    per CFG edge (a goto has one, an ``If`` two)."""
    edges = sum(
        {OP_GOTO: 1, OP_IF: 2}.get(ins[0], 0)
        for fn in order
        for ins in fn.code
    )
    return len(order) + edges


def _mega_meter_totals(func: ast.FunctionDef) -> tuple:
    """Step and cycle charges of one generated megaunit function.

    The megaunit compiler keeps the meters in the locals ``s``/``c``:
    a segment charges ``s += W`` / ``c += C``, and a call site charges
    its step as the ``m[0] = s + 1`` writeback and its call cost on
    the ``c = m[1] + K`` reload.  Returns ``(steps, cycles)`` lists
    with ``None`` standing in for any non-literal charge."""
    steps: list = []
    cycles: list = []
    for node in ast.walk(func):
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Add)
            and isinstance(node.target, ast.Name)
        ):
            if node.target.id == "s":
                steps.append(_literal(node.value))
            elif node.target.id == "c":
                cycles.append(_literal(node.value))
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if not (
                isinstance(value, ast.BinOp)
                and isinstance(value.op, ast.Add)
            ):
                continue
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id == "m"
                and isinstance(target.slice, ast.Constant)
                and target.slice.value == 0
                and isinstance(value.left, ast.Name)
                and value.left.id == "s"
            ):
                steps.append(_literal(value.right))
            elif (
                isinstance(target, ast.Name)
                and target.id == "c"
                and isinstance(value.left, ast.Subscript)
                and isinstance(value.left.value, ast.Name)
                and value.left.value.id == "m"
            ):
                cycles.append(_literal(value.right))
    return steps, cycles


def _lint_mega_accounting(
    func: ast.FunctionDef, fn, metered: bool, messages: list
) -> None:
    """Whole-function meter balance: every instruction is stepped once
    (segment ``s += W`` sums plus one ``m[0] = s + 1`` per call site)
    and every baked cost is charged once (segment ``c += C`` sums plus
    the ``c = m[1] + K`` call-cost reloads)."""
    steps, cycles = _mega_meter_totals(func)
    if None in steps:
        messages.append(f"{func.name}: non-literal step increment")
        return
    if sum(steps) != len(fn.code):
        messages.append(
            f"{func.name}: step increments sum to {sum(steps)} but "
            f"{fn.name!r} has {len(fn.code)} instruction(s)"
        )
    if metered:
        if None in cycles:
            messages.append(f"{func.name}: non-literal cycle increment")
            return
        expected = 0
        for ins in fn.code:
            expected = expected + ins[1]
        total = sum(cycles)
        if total != expected and not math.isclose(
            total, expected, rel_tol=1e-12, abs_tol=1e-12
        ):
            messages.append(
                f"{func.name}: cycle increments sum to {total!r} but "
                f"{fn.name!r}'s baked costs sum to {expected!r}"
            )


def lint_megaunit_source(
    bytecode, metered: bool = True, counted: bool = False
) -> list[str]:
    """Lint the whole-program megaunit module (``counted``: its
    profiling variant); returns message strings.

    Programs the megaunit compiler does not support (no block spans)
    lint clean by definition — the engine falls back to the closure
    engine for them and never execs megaunit text."""
    messages: list[str] = []
    try:
        source = generate_module_source(
            bytecode, metered=metered, counted=counted
        )
    except MegaunitUnsupported:
        return []
    except Exception as exc:
        return [f"megaunit codegen failed: {type(exc).__name__}: {exc}"]
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [f"generated megaunit module does not parse: {exc}"]

    order = list(bytecode.functions.values())
    seen = set()
    slots: list[int] = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            messages.append(
                f"unexpected module-level statement in generated "
                f"megaunit module (line {node.lineno})"
            )
            continue
        match = _MEGA_DEF.match(node.name)
        if not match:
            messages.append(
                f"unexpected generated function {node.name!r}"
            )
            continue
        index = int(match.group(1))
        if index >= len(order):
            messages.append(
                f"generated function _mu{index} has no bytecode function"
            )
            continue
        seen.add(index)
        _lint_mega_names(node, messages, counted)
        _lint_mega_counters(node, slots, messages)
        _lint_mega_calls(node, order, messages)
        _lint_mega_finishes(node, index, order[index], messages)
        _lint_mega_accounting(node, order[index], metered, messages)
        _lint_trap_flushes(node, messages)
    missing = sorted(set(range(len(order))) - seen)
    if missing:
        messages.append(
            f"no megaunit function generated for index(es) {missing}"
        )
    if counted and sorted(slots) != list(range(_counter_sites(order))):
        messages.append(
            f"counter slots {sorted(slots)} are not one per function "
            f"entry and CFG edge (0..{_counter_sites(order) - 1})"
        )
    return messages


__all__ = ["BANNED_NAMES", "lint_closure_source", "lint_megaunit_source"]
