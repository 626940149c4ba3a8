"""Static lint over megaunit's exec-generated source.

The megaunit engine (:mod:`repro.vm.megaunit`) compiles the whole
program to one Python module and runs it with ``exec`` (and persists
the plain module's text in the codegen cache), so the verifier lints
the *text* (without executing it) for the properties the codegen
promises:

* it parses, and consists only of module-level ``_mu<N>`` function
  definitions, one per bytecode function;
* no **banned names** anywhere (``eval``, ``exec``, ``open``, ... —
  generated code has no business reaching them) and no name reads
  outside the closed set the compiler provides: the fixed support
  namespace, the whitelisted builtins, the per-function ``_mu<N>`` /
  ``_fn<N>`` cells, parameters, and locals assigned in the function;
* **balanced accounting** on the packed meter ``e = (steps << K) +
  cycles`` (``K`` from :func:`~repro.vm.megaunit.meter_width`): each
  charge literal — ``e += L`` per segment, the ``m[0] = e + L``
  call-site writebacks and the ``e = m[0] + L`` call-cost reloads —
  decodes into ``(W, C) = (L >> K, L & (2**K - 1))``; per generated
  function the ``W`` sum to the bytecode function's instruction count
  and, in the plain (metered) module, the ``C`` sum to its total baked
  cost;
* every ``raise EvaluationTrap(...)`` is preceded (in the same
  statement suite) by an ``m[0] = ...`` meter flush, so traps can
  never escape with stale accounting — except the prologue's depth
  guard, which traps before the frame loads the meter;
* every *direct call* is audited against the program's function table
  (the ``_mu<N>`` index must exist and the argument count must match
  the callee's arity plus the ``vm``/``m``/``d`` protocol slots);
* every budget exit is a guard ``if e > G: _finish(vm, m, _fn<N>, e,
  pc, r<a>, r<b>, ...)``: its own function cell, the meter, a literal
  pc inside the function, exactly the registers
  :func:`~repro.vm.megaunit.finish_live_ins` names for that pc, in that
  order — a missing register would make the replay read a template
  slot instead of the live value — and ``G = ((MAX_STEPS - W) << K) |
  (2**K - 1)`` for the ``W`` steps of the segment at that pc
  (:func:`~repro.vm.megaunit.segment_steps`), so it fires exactly when
  the segment cannot complete within the default budget the lint
  generates the text with.

A counted module (the profiling variant: ``K = 0``, no cycle term) may
also read its counter list ``_counts``, and only as ``_counts[<k>] +=
1``: one literal slot per frame entry and CFG edge of the unit, each
bumped at exactly one site.

:func:`lint_megaunit_function` lints one function's ``_mu<N>`` body
(the per-function ``bc-codegen-lint`` checker);
:func:`lint_megaunit_source` lints a whole module, plain or counted.
Both return plain message strings.
"""

from __future__ import annotations

import ast
import re
from typing import Optional

from ...ir.ops import MAX_CALL_DEPTH, MAX_STEPS
from ...vm.bytecode import OP_GOTO, OP_IF
from ...vm.megaunit import (
    COUNTS_NAME,
    MEGAUNIT_BUILTINS,
    MEGAUNIT_NAMESPACE,
    finish_live_ins,
    function_source,
    generate_module_source,
    meter_width,
    segment_steps,
)

#: names generated code must never mention, in any position
BANNED_NAMES = frozenset(
    (
        "eval", "exec", "compile", "__import__", "open",
        "globals", "locals", "vars", "getattr", "setattr", "delattr",
        "input", "breakpoint", "__builtins__",
    )
)

#: megaunit generated cells: entry functions, function refs, templates
_MEGA_NAME = re.compile(r"\A(_mu\d+|_fn\d+)\Z")
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


def _is_name(node, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _is_trap_raise(stmt) -> bool:
    return (
        isinstance(stmt, ast.Raise)
        and isinstance(stmt.exc, ast.Call)
        and isinstance(stmt.exc.func, ast.Name)
        and stmt.exc.func.id == "EvaluationTrap"
    )


def _is_meter_slot(node) -> bool:
    """``m[0]``, the one slot every frame exit leaves the meter in."""
    return (
        isinstance(node, ast.Subscript)
        and _is_name(node.value, "m")
        and _literal(node.slice) == 0
    )


def _is_meter_flush(stmt) -> bool:
    return (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and _is_meter_slot(stmt.targets[0])
    )


def _is_depth_guard(stmt) -> bool:
    """The prologue's ``if d > MAX_CALL_DEPTH: raise ...`` stack trap."""
    return (
        isinstance(stmt, ast.If)
        and isinstance(stmt.test, ast.Compare)
        and _is_name(stmt.test.left, "d")
        and len(stmt.test.ops) == 1
        and isinstance(stmt.test.ops[0], ast.Gt)
        and _literal(stmt.test.comparators[0]) == MAX_CALL_DEPTH
        and len(stmt.body) == 1
        and _is_trap_raise(stmt.body[0])
        and not stmt.orelse
    )


def _statement_suites(func: ast.FunctionDef):
    """Every statement list in the function, nested suites included."""
    yield func.body
    for node in ast.walk(func):
        for attr in ("body", "orelse", "finalbody"):
            suite = getattr(node, attr, None)
            if node is not func and isinstance(suite, list) and suite:
                yield suite


def _lint_trap_flushes(func: ast.FunctionDef, messages: list) -> None:
    """Every trap follows an ``m[0]`` flush in its suite.  The one
    exception is a depth guard opening the function: it traps before
    the frame loads the meter, so ``m[0]`` still holds what the caller
    flushed."""
    exempt = None
    if func.body and _is_depth_guard(func.body[0]):
        exempt = func.body[0].body
    for suite in _statement_suites(func):
        if suite is exempt:
            continue
        for position, stmt in enumerate(suite):
            if _is_trap_raise(stmt) and not any(
                _is_meter_flush(prior) for prior in suite[:position]
            ):
                messages.append(
                    f"{func.name}: EvaluationTrap raised without a "
                    f"preceding m[0] flush (line {stmt.lineno})"
                )


def _lint_names(
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


def _lint_calls(
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


def _is_finish(node) -> bool:
    return isinstance(node, ast.Call) and _is_name(node.func, "_finish")


def _guard_literal(test) -> object:
    """``G`` of a budget guard test ``e > G``, else None."""
    if (
        isinstance(test, ast.Compare)
        and _is_name(test.left, "e")
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Gt)
    ):
        return _literal(test.comparators[0])
    return None


def _lint_finishes(
    func: ast.FunctionDef, index: int, fn, width: int, messages: list
) -> None:
    """Every ``_finish`` budget exit passes its own function cell, the
    meter, a literal in-range pc and exactly the live-in registers of
    that pc, in :func:`finish_live_ins` order, and is the whole body of
    a guard whose literal admits exactly the steps the default budget
    leaves for its segment."""
    guards = {
        id(node.body[0].value): node.test
        for node in ast.walk(func)
        if isinstance(node, ast.If)
        and len(node.body) == 1
        and isinstance(node.body[0], ast.Expr)
        and _is_finish(node.body[0].value)
    }
    for node in ast.walk(func):
        if not _is_finish(node):
            continue
        args = node.args
        if node.keywords or len(args) < 5 or not all(
            _is_name(arg, name)
            for arg, name in zip(args, ("vm", "m", f"_fn{index}", "e"))
        ):
            messages.append(
                f"{func.name}: _finish call (line {node.lineno}) does not "
                f"pass (vm, m, _fn{index}, e, pc, ...)"
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
        steps = segment_steps(fn, pc)
        bound = ((MAX_STEPS - steps) << width) | ((1 << width) - 1)
        if _guard_literal(guards.get(id(node))) != bound:
            messages.append(
                f"{func.name}: _finish at pc {pc} is not guarded by "
                f"e > {bound} (its segment's {steps} step(s) against "
                f"{MAX_STEPS})"
            )


def _lint_counters(
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


def _meter_charges(func: ast.FunctionDef) -> list:
    """The packed charge literals of one generated megaunit function.

    A segment charges ``e += L``; a call site charges its step on the
    ``m[0] = e + L`` writeback before the call and its cost on the ``e
    = m[0] + L`` reload after it.  A trap site's ``m[0] = e + L``
    flush (the one followed by a raise) is no charge.  ``None`` stands
    in for a non-literal charge."""
    charges: list = []
    for suite in _statement_suites(func):
        for position, stmt in enumerate(suite):
            if isinstance(stmt, ast.AugAssign) and _is_name(stmt.target, "e"):
                add = isinstance(stmt.op, ast.Add)
                charges.append(_literal(stmt.value) if add else None)
            elif not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.value, ast.BinOp)
                and isinstance(stmt.value.op, ast.Add)
            ):
                continue
            elif _is_meter_slot(stmt.targets[0]) and _is_name(
                stmt.value.left, "e"
            ):
                following = suite[position + 1:position + 2]
                if not (following and _is_trap_raise(following[0])):
                    charges.append(_literal(stmt.value.right))
            elif _is_name(stmt.targets[0], "e") and _is_meter_slot(
                stmt.value.left
            ):
                charges.append(_literal(stmt.value.right))
    return charges


def _lint_accounting(
    func: ast.FunctionDef, fn, width: int, messages: list
) -> None:
    """Whole-function meter balance: decoded at cycle-field width
    ``width``, the charges step every instruction once and, in a
    metered module (``width > 0``), charge every baked cost once."""
    charges = _meter_charges(func)
    if None in charges:
        messages.append(f"{func.name}: non-literal meter charge")
        return
    steps = sum(charge >> width for charge in charges)
    if steps != len(fn.code):
        messages.append(
            f"{func.name}: step increments sum to {steps} but "
            f"{fn.name!r} has {len(fn.code)} instruction(s)"
        )
    if width:
        cycles = sum(charge & ((1 << width) - 1) for charge in charges)
        expected = sum(int(ins[1]) for ins in fn.code)
        if cycles != expected:
            messages.append(
                f"{func.name}: cycle increments sum to {cycles} but "
                f"{fn.name!r}'s baked costs sum to {expected}"
            )


def _lint_function(
    node: ast.FunctionDef,
    order: list,
    width: int,
    messages: list,
    counted: bool = False,
    slots: Optional[list] = None,
) -> Optional[int]:
    """Every per-function check on one generated ``_mu<N>`` of a unit
    whose packed meter has cycle field ``width``; returns its index,
    or None when it names no bytecode function."""
    match = _MEGA_DEF.match(node.name)
    if not match:
        messages.append(f"unexpected generated function {node.name!r}")
        return None
    index = int(match.group(1))
    if index >= len(order):
        messages.append(
            f"generated function _mu{index} has no bytecode function"
        )
        return None
    _lint_names(node, messages, counted)
    _lint_counters(node, slots if slots is not None else [], messages)
    _lint_calls(node, order, messages)
    _lint_finishes(node, index, order[index], width, messages)
    _lint_accounting(node, order[index], width, messages)
    _lint_trap_flushes(node, messages)
    return index


def _parse(source: str, messages: list) -> list:
    """The module's function definitions; anything else is reported."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        messages.append(f"generated megaunit source does not parse: {exc}")
        return []
    functions = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions.append(node)
        else:
            messages.append(
                f"unexpected module-level statement in generated "
                f"megaunit source (line {node.lineno})"
            )
    return functions


def lint_megaunit_function(bytecode, name: str) -> list[str]:
    """Lint the ``_mu<N>`` function the plain module generates for the
    bytecode function ``name``; returns message strings."""
    try:
        source = function_source(bytecode, name)
    except Exception as exc:
        return [f"megaunit codegen failed: {type(exc).__name__}: {exc}"]
    messages: list[str] = []
    order = list(bytecode.functions.values())
    width = meter_width(order, MAX_STEPS)
    for node in _parse(source, messages):
        _lint_function(node, order, width, messages)
    return messages


def lint_megaunit_source(bytecode, counted: bool = False) -> list[str]:
    """Lint the whole-program megaunit module (``counted``: its
    profiling variant); returns message strings."""
    try:
        source = generate_module_source(bytecode, counted=counted)
    except Exception as exc:
        return [f"megaunit codegen failed: {type(exc).__name__}: {exc}"]
    messages: list[str] = []
    order = list(bytecode.functions.values())
    width = meter_width(order, MAX_STEPS, counted)
    seen = set()
    slots: list[int] = []
    for node in _parse(source, messages):
        seen.add(
            _lint_function(node, order, width, messages, counted, slots)
        )
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


__all__ = ["BANNED_NAMES", "lint_megaunit_function", "lint_megaunit_source"]
