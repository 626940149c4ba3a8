"""Dataflow engine: fixpoints on hand-built CFGs, mutant differential."""

from __future__ import annotations

import pytest

from repro.analysis.bcverify import (
    MustDefined,
    build_cfg,
    run_bc_checkers,
    solve_forward,
    verify_bytecode,
)
from repro.analysis.progen import mutated_program
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.front import make_engine
from repro.pipeline.config import CONFIGURATIONS
from repro.vm.bytecode import (
    OP_ADD,
    OP_GOTO,
    OP_IF,
    OP_LT,
    OP_RETURN,
    BytecodeFunction,
)
from repro.vm.translate import translate_program


def _edge(target, moves=()):
    return (target, tuple(moves), (), None)


def make_loop_fn():
    """A counted accumulation loop, built by hand.

    ::

        b0 @0:   goto b1 [r1 <- r4 (0), r2 <- r4 (0)]
        b1 @1-2: r3 = r2 < r0 ; if r3 then b2 else b3
        b2 @3-5: r1 = r1 + r2 ; r2 = r2 + r5 ; goto b1
        b3 @6:   return r1

    Frame: r0 = n (param), r1 = acc, r2 = i, r3 = cond scratch,
    constants r4 = 0, r5 = 1.
    """
    fn = BytecodeFunction("loop", 1)
    fn.nregs = 6
    fn.const_base = 4
    fn.const_count = 2
    fn.template = [None, None, None, None, 0, 1]
    fn.code = (
        (OP_GOTO, 1, None, -1, _edge(1, ((1, 4), (2, 4)))),
        (OP_LT, 1, None, 3, 2, 0),
        (OP_IF, 1, None, -1, 3, _edge(3), _edge(6)),
        (OP_ADD, 1, None, 1, 1, 2),
        (OP_ADD, 1, None, 2, 2, 5),
        (OP_GOTO, 1, None, -1, _edge(1)),
        (OP_RETURN, 1, None, -1, 1),
    )
    fn.blocks = ((0, 1, "b0"), (1, 2, "b1"), (3, 3, "b2"), (6, 1, "b3"))
    return fn


@pytest.fixture()
def loop_cfg():
    return build_cfg(make_loop_fn())


def _block(cfg, start):
    return cfg.by_start[start]


# ----------------------------------------------------------------------
# CFG recovery
# ----------------------------------------------------------------------
def test_cfg_shape(loop_cfg):
    assert [b.start for b in loop_cfg.blocks] == [0, 1, 3, 6]
    header = _block(loop_cfg, 1)
    assert sorted(header.preds) == [
        _block(loop_cfg, 0).index,
        _block(loop_cfg, 3).index,
    ]
    assert sorted(header.succs) == [
        _block(loop_cfg, 3).index,
        _block(loop_cfg, 6).index,
    ]


# ----------------------------------------------------------------------
# MustDefined (forward, intersection)
# ----------------------------------------------------------------------
def test_must_defined_fixpoint(loop_cfg):
    result = solve_forward(loop_cfg, MustDefined())
    header = _block(loop_cfg, 1)
    # params + constants + both phi moves reach the header on every path
    assert result.entry[header.index] == frozenset({0, 1, 2, 4, 5})
    # the compare defines r3 inside the header
    assert 3 in result.exit[header.index]
    exit_block = _block(loop_cfg, 6)
    assert result.entry[exit_block.index] >= frozenset({0, 1, 2, 3})


def test_must_defined_unreachable_is_none():
    fn = make_loop_fn()
    # append an unreachable trailing block
    fn.code = fn.code + ((OP_RETURN, 1, None, -1, 0),)
    fn.blocks = fn.blocks + ((7, 1, "dead"),)
    cfg = build_cfg(fn)
    result = solve_forward(cfg, MustDefined())
    assert result.entry[cfg.by_start[7].index] is None


# ----------------------------------------------------------------------
# def-before-use through the checker
# ----------------------------------------------------------------------
def test_defuse_accepts_loop_fn():
    fn = make_loop_fn()
    report = run_bc_checkers(fn, checkers=("bc-structure", "bc-defuse"))
    assert report.ok, report.format() if hasattr(report, "format") else ""


def test_defuse_rejects_uninitialized_path():
    fn = make_loop_fn()
    code = list(fn.code)
    # drop the acc move from the entry edge: r1 is now only written
    # inside the loop, so the zero-trip path returns it uninitialized
    code[0] = (OP_GOTO, 1, None, -1, _edge(1, ((2, 4),)))
    fn.code = tuple(code)
    report = run_bc_checkers(fn, checkers=("bc-structure", "bc-defuse"))
    assert any(v.checker == "bc-defuse" for v in report.errors())


# ----------------------------------------------------------------------
# Satellite: verifier-accepted mutants never crash the VM
# ----------------------------------------------------------------------
MUTANT_CORPUS = [
    """
    fn main(n: int) -> int {
      var total: int = 0;
      var i: int = 1;
      while (i < n) {
        if (total > 40) { total = total - i; }
        else { total = total + i * 2; }
        i = i + 1;
      }
      return total;
    }
    """,
    """
    fn step(x: int) -> int {
      if (x % 2 == 0) { return x / 2; }
      return 3 * x + 1;
    }
    fn main(n: int) -> int {
      var x: int = n;
      var hops: int = 0;
      while (x > 1) {
        x = step(x);
        hops = hops + 1;
        if (hops > 200) { return hops; }
      }
      return hops;
    }
    """,
]


@pytest.mark.parametrize("seed", range(12))
def test_accepted_mutants_run_clean(seed):
    """Differential check: whatever the mutator produces, the verifier
    accepts the translation, and the accepted stream executes on the VM
    without any Python-level error (traps are legitimate outcomes)."""
    mutant = mutated_program(seed, corpus=[s for s in MUTANT_CORPUS])
    try:
        program, _report = compile_and_profile(
            mutant.source, "main", [[7]], CONFIGURATIONS["dbds"]
        )
    except Exception:
        pytest.skip("mutant does not compile (mutator bug, not ours)")
    bytecode = translate_program(program)
    verdict = verify_bytecode(bytecode)
    assert verdict.ok, verdict.format()
    for engine in ("vm", "megaunit"):
        runner = make_engine(engine, program, bytecode=bytecode)
        result = runner.run("main", [7])
        assert result.trapped or result.value is not None
