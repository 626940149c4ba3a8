"""The template-extraction-style source mutator and the fuzz loop's
mutants."""

from __future__ import annotations

import pathlib
import textwrap

from repro.analysis.progen import (
    MUTATION_KINDS,
    SourceMutator,
    mutated_program,
)
from repro.analysis.validate import FUZZ_ARGS, fuzz
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import Interpreter

from tests.helpers import oracle

PROGRAM = textwrap.dedent(
    """
    // leading comment with numbers 42 and a < b comparison
    fn main(n: int) -> int {
      var total: int = 7;
      var i: int = 0;
      while (i < n) {
        if (total > 3) { total = total + 2; } else { total = total - 1; }
        i = i + 1;
      }
      return total;
    }
    """
)

APPS = sorted(pathlib.Path("examples/apps").glob("*.mini"))


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------
def test_swap_constant_changes_one_literal_outside_while_header():
    mutated = SourceMutator(seed=3).swap_constant(PROGRAM)
    assert mutated is not None and mutated != PROGRAM
    # The loop bound and comment are untouched.
    assert "while (i < n)" in mutated
    assert "comment with numbers 42" in mutated
    compile_source(mutated)


def test_flip_comparison_only_touches_if_headers():
    mutated = SourceMutator(seed=0).flip_comparison(PROGRAM)
    assert mutated is not None and mutated != PROGRAM
    assert "while (i < n)" in mutated, "while headers are off-limits"
    assert "(total > 3)" not in mutated
    compile_source(mutated)


def test_wrap_loop_body_is_semantically_neutral():
    mutated = SourceMutator(seed=0).wrap_loop_body(PROGRAM)
    assert mutated is not None
    assert "if (0 == 0)" in mutated
    original = compile_source(PROGRAM)
    wrapped = compile_source(mutated)
    for n in (0, 1, 5):
        before = Interpreter(original).run("main", [n])
        after = Interpreter(wrapped).run("main", [n])
        assert (before.value, before.trap) == (after.value, after.trap)


def test_mutate_is_deterministic_per_seed():
    a = SourceMutator(seed=11).mutate(PROGRAM, mutations=3)
    b = SourceMutator(seed=11).mutate(PROGRAM, mutations=3)
    c = SourceMutator(seed=12).mutate(PROGRAM, mutations=3)
    assert a.source == b.source and a.applied == b.applied
    assert (c.source, c.applied) != (a.source, a.applied) or c.source == a.source
    assert set(a.applied) <= set(MUTATION_KINDS)


def test_every_operator_fires_across_seeds():
    fired = set()
    for seed in range(30):
        fired.update(SourceMutator(seed).mutate(PROGRAM, mutations=2).applied)
        if fired == set(MUTATION_KINDS):
            break
    assert fired == set(MUTATION_KINDS)


def test_mutants_of_real_apps_stay_compilable():
    corpus = [path.read_text() for path in APPS]
    assert corpus
    for seed in range(10):
        mutant = mutated_program(seed, corpus)
        assert mutant.base.startswith("corpus[")
        compile_source(mutant.source)


def test_mutated_program_without_corpus_uses_generator():
    mutant = mutated_program(5)
    assert mutant.base == "generated[5]"
    compile_source(mutant.source)


# ----------------------------------------------------------------------
# The fuzz loop's mutants
# ----------------------------------------------------------------------
def test_fuzz_mutations_green_on_apps_corpus():
    corpus = [path.read_text() for path in APPS]
    names = []

    def check(source: str, name: str) -> int:
        names.append(name)
        problems = oracle(source, FUZZ_ARGS)
        assert not problems, (name, problems)
        return 0

    report = fuzz(check, seed=1, programs=4, corpus=corpus, time_budget=60.0)
    assert report.ok, report.format()
    assert report.programs == 4
    # Seeds 1 and 3 mutate the apps; the screen may turn one away.
    mutants = [name for name in names if "[corpus[" in name]
    assert mutants and len(mutants) + report.skipped == 2


def test_fuzz_mutations_time_budget_stops_early():
    corpus = [path.read_text() for path in APPS]
    report = fuzz(
        lambda source, name: 0, seed=0, programs=500, corpus=corpus,
        time_budget=0.0,
    )
    assert report.programs <= 1


def test_fuzz_mutations_counts_screened_blowups_as_skipped():
    # A mutant whose unoptimized run busts a tiny step budget is
    # skipped, not failed: differential runs need every run to finish.
    # Generated programs (even seeds) are not screened.
    names = []
    report = fuzz(
        lambda source, name: names.append(name) or 0, seed=1, programs=4,
        corpus=[PROGRAM], screen_steps=10,
    )
    assert report.ok
    assert report.skipped == 2
    assert names == ["fuzz seed 2 [generated]", "fuzz seed 4 [generated]"]
    assert "2 skipped" in report.format()
