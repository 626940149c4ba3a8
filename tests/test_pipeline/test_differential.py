"""Differential testing: every configuration must be semantically
transparent on arbitrary programs.

This is the central correctness property of the whole system: DBDS,
dupalot, backtracking and every enabling optimization may only change
*performance*, never observable behaviour (return values, traps and
global state) — checked on randomly generated programs covering the
full language.
"""


import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.progen import random_program
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import Interpreter, observable_outcome
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import BACKTRACKING, BASELINE, DBDS, DUPALOT
from tests.helpers import outcomes


def behaviours(program, arg_sets):
    return outcomes(program, "main", arg_sets)


ARGS = [[0], [1], [4], [9]]


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.integers(min_value=0, max_value=10_000))
def test_all_configs_semantically_transparent(seed):
    source = random_program(seed)
    reference_program = compile_source(source)
    reference = behaviours(reference_program, ARGS)
    for config in (BASELINE, DBDS, DUPALOT):
        program, _ = compile_and_profile(
            source, "main", ARGS[:2], config, check_ir="each-phase"
        )
        assert behaviours(program, ARGS) == reference, (
            f"{config.name} changed semantics for seed {seed}\n{source}"
        )


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.integers(min_value=0, max_value=10_000))
def test_backtracking_semantically_transparent(seed):
    source = random_program(seed)
    reference = behaviours(compile_source(source), ARGS)
    program, _ = compile_and_profile(
        source, "main", ARGS[:2], BACKTRACKING, check_ir="each-phase"
    )
    assert behaviours(program, ARGS) == reference, (
        f"backtracking changed semantics for seed {seed}\n{source}"
    )


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_programs_are_valid(seed):
    """The generator itself produces compilable, runnable programs."""
    source = random_program(seed)
    program = compile_source(source)
    from repro.ir import verify_program

    verify_program(program)
    result = Interpreter(program).run("main", [3])
    # Termination within budget; trapping is allowed.
    assert result.steps < 1_000_000


def test_known_regression_seeds():
    """Pin a few seeds end-to-end (fast deterministic smoke)."""
    for seed in (1, 7, 42, 1234):
        source = random_program(seed)
        reference = behaviours(compile_source(source), ARGS)
        program, _ = compile_and_profile(source, "main", ARGS[:2], DBDS)
        assert behaviours(program, ARGS) == reference
