"""Shared helpers for the test suite."""

from __future__ import annotations

import contextlib
import os
import pathlib
import subprocess
import sys

from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import Interpreter, observable_outcome
from repro.ir import (
    ArithOp,
    BinOp,
    CmpOp,
    Compare,
    Goto,
    Graph,
    If,
    INT,
    Phi,
    Return,
)
from repro.analysis.validate import differential
from repro.bench.workloads.suites import SuiteProfile
from repro.pipeline.compiler import ProfiledSource, compile_and_profile
from repro.pipeline.config import BACKTRACKING, BASELINE, DBDS, DUPALOT
from repro.pipeline.front import jit

ALL_CONFIGS = [BASELINE, DBDS, DUPALOT, BACKTRACKING]

#: the repository root (fresh processes run from here)
REPO = pathlib.Path(__file__).resolve().parent.parent


def build_diamond(true_prob: float = 0.5) -> dict:
    """The Figure 1 program built by hand:

    ``int foo(int x) { int p; if (x>0) p=x; else p=0; return 2+p; }``

    Returns the graph plus named parts for structural assertions.
    """
    g = Graph("foo", [("x", INT)], INT)
    x = g.parameters[0]
    bt, bf, bm = g.new_block("t"), g.new_block("f"), g.new_block("m")
    cond = g.entry.append(Compare(CmpOp.GT, x, g.const_int(0)))
    g.entry.set_terminator(If(cond, bt, bf, true_prob))
    bt.set_terminator(Goto(bm))
    bf.set_terminator(Goto(bm))
    phi = Phi(bm, INT, [x, g.const_int(0)])
    bm.add_phi(phi)
    add = bm.append(ArithOp(BinOp.ADD, g.const_int(2), phi))
    bm.set_terminator(Return(add))
    return {
        "graph": g,
        "x": x,
        "cond": cond,
        "true_block": bt,
        "false_block": bf,
        "merge": bm,
        "phi": phi,
        "add": add,
    }


def run_function(program, name: str, args: list) -> tuple:
    """Run one function and return its observable outcome."""
    interp = Interpreter(program)
    result = interp.run(name, args)
    return observable_outcome(result, interp.state)


def outcomes(program, name: str, arg_sets: list[list]) -> list[tuple]:
    results = []
    interp = Interpreter(program)
    for args in arg_sets:
        interp.reset()
        result = interp.run(name, args)
        results.append(observable_outcome(result, interp.state))
    return results


def assert_configs_equivalent(source: str, entry: str, arg_sets: list[list]) -> dict:
    """Compile under all configurations and assert identical semantics.

    Returns the per-config observable outcomes for further checks.
    """
    per_config = {}
    for config in ALL_CONFIGS:
        program, _ = compile_and_profile(
            source, entry, arg_sets, config, check_ir="each-phase"
        )
        per_config[config.name] = outcomes(program, entry, arg_sets)
    baseline = per_config["baseline"]
    for name, outs in per_config.items():
        assert outs == baseline, f"{name} diverged from baseline semantics"
    return per_config


def oracle(source: str, arg_sets: list[list], config=DBDS) -> list[str]:
    """What :func:`~repro.analysis.validate.differential` reports for
    ``source`` compiled under ``config`` and entered at ``main``."""
    profiled = ProfiledSource(source, "main", arg_sets, uses=2)
    artifact = jit(source, "main", arg_sets, config, profiled=profiled)
    return differential(artifact, profiled)


def first_benchmarks(profile: SuiteProfile, count: int) -> SuiteProfile:
    """``profile`` cut down to its first ``count`` benchmarks (for test
    speed)."""
    return SuiteProfile(
        profile.suite, profile.benchmark_names[:count], profile.kernel_mix,
        profile.kernels_min, profile.kernels_max, profile.run_iterations,
        profile.profile_iterations,
    )


def compile_one(source: str):
    """Parse MiniLang to an IR program (no optimization)."""
    return compile_source(source)


@contextlib.contextmanager
def recursion_limit(frames: int):
    """Set CPython's recursion limit ``frames`` above the caller's stack
    depth for the block (and restore it after); yields the limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield depth + frames
    finally:
        sys.setrecursionlimit(saved)


def fresh_python(*argv: str, check: bool = True) -> subprocess.CompletedProcess:
    """Run ``python ARGV...`` in a new interpreter from the repository
    root, with only ``src`` on the path; text output is captured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, *argv], cwd=REPO, env=env, capture_output=True,
        text=True, check=check,
    )
