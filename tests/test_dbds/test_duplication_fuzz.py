"""Property: arbitrary sequences of valid duplications preserve both the
IR invariants and the program's observable behaviour.

This attacks the transformation directly (not through the trade-off
tier): on random programs, repeatedly duplicate randomly chosen valid
predecessor-merge pairs, verifying after each step and comparing
semantics at the end.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.progen import random_program
from repro.dbds.duplicate import can_duplicate, duplicate_into
from repro.frontend.irbuilder import compile_source
from repro.ir import verify_graph
from repro.ir.loops import LoopForest
from tests.helpers import outcomes

ARGS = [[0], [2], [5]]


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
)
def test_random_duplication_sequences_are_safe(program_seed, choice_seed):
    source = random_program(program_seed)
    program = compile_source(source)
    expected = outcomes(program, "main", ARGS)
    rng = random.Random(choice_seed)

    for graph in program.functions.values():
        for _ in range(6):
            loops = LoopForest(graph)
            pairs = [
                (pred, merge)
                for merge in graph.merge_blocks()
                for pred in merge.predecessors
                if can_duplicate(graph, pred, merge, loops)
            ]
            if not pairs:
                break
            pred, merge = rng.choice(pairs)
            duplicate_into(graph, pred, merge)
            verify_graph(graph)

    assert outcomes(program, "main", ARGS) == expected, (
        f"duplication changed semantics (program {program_seed}, "
        f"choices {choice_seed})\n{source}"
    )
