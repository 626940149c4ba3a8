"""The registered bytecode checkers (scope ``"bc"``).

Three checkers over one translated function, run through the same
registry/report machinery as the IR and LIR sanitizers:

* ``bc-structure`` — frame shape, block spans (every function has
  them, tiling its stream), per-tuple layout against
  the :mod:`repro.vm.opspec` registry, operand ranges, edge
  well-formedness.  Owns every :class:`DecodeError`; the dataflow
  checkers skip a function whose structure is broken.
* ``bc-defuse`` — register def-before-use via the forward
  :class:`MustDefined` analysis, including phi-move sources on every
  edge.
* ``bc-codegen-lint`` — the static lint over the function's
  megaunit-generated source (:mod:`.lint`).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ...vm.bytecode import BytecodeFunction
from ..core import (
    SCOPE_BC,
    CheckReport,
    _ContextBase,
    _execute,
    _select,
    checker,
)
from .cfg import DecodeError, build_cfg, instruction_events, spec_of
from .dataflow import MustDefined, solve_forward
from .lint import lint_megaunit_function

#: cap per-checker violation spam for one badly corrupted function
_MAX_REPORTS = 20


class BcCheckerContext(_ContextBase):
    """One bytecode check run: the function plus its memoized CFG."""

    def __init__(self, fn: BytecodeFunction, bytecode=None) -> None:
        super().__init__(fn.name)
        self.fn = fn
        self.bytecode = bytecode
        self._cfg = None
        self._structure: Optional[bool] = None

    def cfg(self):
        if self._cfg is None:
            self._cfg = build_cfg(self.fn)
        return self._cfg

    def structure_ok(self) -> bool:
        """Precondition probe for the dataflow checkers (same pattern
        as the LIR suite): when CFG recovery itself fails,
        bc-structure owns the failure."""
        if self._structure is None:
            try:
                self.cfg()
                self._structure = True
            except DecodeError:
                self._structure = False
        return self._structure


# ----------------------------------------------------------------------
# bc-structure
# ----------------------------------------------------------------------
def _check_site(ctx, pc: int) -> None:
    fn = ctx.fn
    ins = fn.code[pc]
    try:
        spec = spec_of(ins)
    except DecodeError as exc:
        ctx.report(f"pc {pc}: {exc}")
        return
    if len(ins) != spec.code_length():
        ctx.report(
            f"pc {pc}: {spec.name} tuple has {len(ins)} slots, "
            f"expected {spec.code_length()}"
        )
        return
    cost = ins[1]
    if isinstance(cost, bool) or not isinstance(cost, (int, float)):
        ctx.report(f"pc {pc}: non-numeric cycle cost {cost!r}")
    elif cost < 0:
        ctx.report(f"pc {pc}: negative cycle cost {cost!r}")
    for kind, value in instruction_events(ins):
        if kind in ("use", "def"):
            if not isinstance(value, int) or isinstance(value, bool) or not (
                0 <= value < fn.nregs
            ):
                ctx.report(
                    f"pc {pc}: {spec.name} {kind} of out-of-range "
                    f"register {value!r} (nregs={fn.nregs})"
                )
        else:  # edge
            moves = value[1]
            for move in moves:
                if (
                    not isinstance(move, tuple)
                    or len(move) != 2
                    or not all(
                        isinstance(r, int) and 0 <= r < fn.nregs
                        for r in move
                    )
                ):
                    ctx.report(
                        f"pc {pc}: malformed edge move {move!r}"
                    )
    if spec.family == "call":
        callee, argregs = ins[4], ins[5]
        if not isinstance(callee, BytecodeFunction):
            ctx.report(f"pc {pc}: call target {callee!r} is not a function")
        else:
            if len(argregs) != callee.nparams:
                ctx.report(
                    f"pc {pc}: call passes {len(argregs)} arg(s) but "
                    f"{callee.name!r} takes {callee.nparams}"
                )
            if (
                ctx.bytecode is not None
                and ctx.bytecode.functions.get(callee.name) is not callee
            ):
                ctx.report(
                    f"pc {pc}: call target {callee.name!r} is not the "
                    f"program's function of that name"
                )


@checker(
    "bc-structure",
    scope=SCOPE_BC,
    description="stream shape: spans, opcodes, operands",
)
def check_bc_structure(ctx: BcCheckerContext) -> None:
    fn = ctx.fn
    if not isinstance(fn.nregs, int) or fn.nregs < 0:
        ctx.report(f"bad register count {fn.nregs!r}")
        return
    if not isinstance(fn.nparams, int) or not 0 <= fn.nparams <= fn.nregs:
        ctx.report(
            f"parameter count {fn.nparams!r} outside the register file "
            f"({fn.nregs})"
        )
        return
    if len(fn.template) != fn.nregs:
        ctx.report(
            f"register template has {len(fn.template)} slot(s) for "
            f"{fn.nregs} register(s)"
        )
        return
    if (
        fn.const_count < 0
        or fn.const_base < 0
        or fn.const_base + fn.const_count > fn.nregs
    ):
        ctx.report(
            f"constant range [{fn.const_base}, "
            f"{fn.const_base + fn.const_count}) outside the register file"
        )
        return
    try:
        cfg = ctx.cfg()
    except DecodeError as exc:
        ctx.report(f"code stream: {exc}")
        return
    before = len(ctx.violations)
    for block in cfg.blocks:
        for pc in block.pcs:
            _check_site(ctx, pc)
            if len(ctx.violations) - before > _MAX_REPORTS:
                ctx.report("code stream: further violations elided")
                return


# ----------------------------------------------------------------------
# bc-defuse
# ----------------------------------------------------------------------
@checker(
    "bc-defuse",
    scope=SCOPE_BC,
    description="every register read is defined on all paths",
)
def check_bc_defuse(ctx: BcCheckerContext) -> None:
    if not ctx.structure_ok():
        return
    cfg = ctx.cfg()
    result = solve_forward(cfg, MustDefined())
    code = ctx.fn.code
    for block in cfg.blocks:
        state = result.entry[block.index]
        if state is None:
            continue  # unreachable from the entry
        defined = set(state)
        for pc in block.pcs:
            for event, value in instruction_events(code[pc]):
                if event == "use":
                    if value not in defined:
                        ctx.report(
                            f"code pc {pc}: read of register r{value} "
                            f"not defined on all paths",
                            block=block.name,
                        )
                elif event == "def":
                    defined.add(value)
                else:  # edge: moves run in order, dests become defined
                    local = set(defined)
                    for dest, src in value[1]:
                        if src not in local:
                            ctx.report(
                                f"code pc {pc}: edge move r{dest}<-r{src} "
                                f"reads an undefined register",
                                block=block.name,
                            )
                        local.add(dest)


# ----------------------------------------------------------------------
# bc-codegen-lint
# ----------------------------------------------------------------------
@checker(
    "bc-codegen-lint",
    scope=SCOPE_BC,
    description="megaunit codegen source lint",
)
def check_bc_codegen_lint(ctx: BcCheckerContext) -> None:
    # Call sites resolve against the program's function table, so a
    # function checked on its own (no ``bytecode``) is not linted.
    if ctx.bytecode is None or not ctx.structure_ok():
        return
    for message in lint_megaunit_function(ctx.bytecode, ctx.fn.name):
        ctx.report(message)


def run_bc_checkers(
    fn: BytecodeFunction,
    bytecode=None,
    *,
    checkers: Optional[Iterable[str]] = None,
) -> CheckReport:
    """Run bytecode checkers (``checkers`` by name, None = all) over one
    translated function, keep-going."""
    selected = _select(checkers, SCOPE_BC)
    ctx = BcCheckerContext(fn, bytecode)
    return _execute(ctx, selected, False, CheckReport(graph=ctx.graph_name))


__all__ = ["BcCheckerContext", "run_bc_checkers"]
