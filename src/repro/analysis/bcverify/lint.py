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
  outside the closed set the compiler seeds: the fixed support
  namespace, the whitelisted builtins, the per-function ``_mu<N>`` /
  ``_fn<N>`` / ``_tmpl<N>`` cells, parameters, and locals assigned in
  the function;
* **balanced accounting**: per generated function, the step charges —
  ``s += W`` per segment plus the ``m[0] = s + 1`` call-site
  writebacks — sum to the bytecode function's instruction count, and
  in the plain (metered) module the cycle charges — ``c += C`` per
  segment plus the ``c = m[1] + K`` call-cost reloads — sum to its
  total baked cost;
* every ``raise EvaluationTrap(...)`` is preceded (in the same
  statement suite) by a ``state.steps = ...`` meter flush, so traps
  can never escape with stale accounting;
* every *direct call* is audited against the program's function table
  (the ``_mu<N>`` index must exist and the argument count must match
  the callee's arity plus the ``vm``/``m``/``d`` protocol slots);
* every budget exit has the sparse form ``_finish(vm, _fn<N>, s, c,
  pc, r<a>, r<b>, ...)``: its own function cell, the meter locals, a
  literal pc inside the function, and exactly the registers
  :func:`~repro.vm.megaunit.finish_live_ins` names for that pc, in that
  order — a missing register would make the replay read a template
  slot instead of the live value.

A counted module (the profiling variant, which meters no cycles) may
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
import math
import re
from typing import Optional

from ...vm.bytecode import OP_GOTO, OP_IF
from ...vm.megaunit import (
    COUNTS_NAME,
    MEGAUNIT_BUILTINS,
    MEGAUNIT_NAMESPACE,
    finish_live_ins,
    function_source,
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


def _is_name(node, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _lint_finishes(
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


def _meter_totals(func: ast.FunctionDef) -> tuple:
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


def _lint_accounting(
    func: ast.FunctionDef, fn, metered: bool, messages: list
) -> None:
    """Whole-function meter balance: every instruction is stepped once
    (segment ``s += W`` sums plus one ``m[0] = s + 1`` per call site)
    and, in a ``metered`` (plain) module, every baked cost is charged
    once (segment ``c += C`` sums plus the ``c = m[1] + K`` call-cost
    reloads)."""
    steps, cycles = _meter_totals(func)
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


def _lint_function(
    node: ast.FunctionDef,
    order: list,
    messages: list,
    counted: bool = False,
    slots: Optional[list] = None,
) -> Optional[int]:
    """Every per-function check on one generated ``_mu<N>``; returns
    its index, or None when it names no bytecode function."""
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
    _lint_finishes(node, index, order[index], messages)
    _lint_accounting(node, order[index], not counted, messages)
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
    for node in _parse(source, messages):
        _lint_function(node, order, messages)
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
    seen = set()
    slots: list[int] = []
    for node in _parse(source, messages):
        seen.add(_lint_function(node, order, messages, counted, slots))
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
