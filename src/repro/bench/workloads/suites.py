"""The four benchmark suites of the paper's evaluation (Section 6.1).

Each paper benchmark gets a synthetic MiniLang stand-in generated from a
suite profile (kernel mix, program size, iteration counts).  Names match
Figures 5–8 one-to-one so the harness prints the same rows.

Suite characters (justifying the opportunity mixes — see DESIGN.md):

* **Java DaCapo** — mature Java applications: moderate opportunity
  density, a substantial neutral-compute fraction, which is why the
  paper measures only ~1 % mean speedup there.
* **Scala DaCapo** — "Scala workloads typically differ … in their type
  and class hierarchy behaviour": heavy on boxing (PEA) and repeated
  type/null checks (CE).
* **Micro** — "novel JVM features … like streams and lambdas": small
  kernels, almost every merge is an opportunity; the 5–40 % band.
* **Octane** — larger JS-flavoured programs, array/numeric loops plus
  dynamic-dispatch-like null-check chains.

A fifth, harness-facing suite rides along: **recursion** is not a paper
suite but the call-dominated stress mix (self-recursion and binary call
trees) that guards the whole-program megaunit engine against regressing
call-heavy programs — see docs/VM.md and the CI bench gates.
"""

from __future__ import annotations

import random
from typing import Optional

from .kernels import Kernel, build_kernel


class Workload:
    """A generated benchmark: source text plus how to run it."""

    __slots__ = (
        "name", "suite", "source", "entry", "profile_args", "measure_args",
        "kinds",
    )

    def __init__(
        self,
        name: str,
        suite: str,
        source: str,
        entry: str = "main",
        profile_args: Optional[list[list[int]]] = None,
        measure_args: Optional[list[list[int]]] = None,
        kinds: Optional[list[str]] = None,
    ) -> None:
        self.name = name
        self.suite = suite
        self.source = source
        self.entry = entry
        self.profile_args = profile_args if profile_args is not None else []
        self.measure_args = measure_args if measure_args is not None else []
        self.kinds = kinds if kinds is not None else []


class SuiteProfile:
    """Generation parameters of one suite: ``kernel_mix`` is the
    opportunity mix as (kind, relative weight) pairs; ``run_iterations``
    and ``profile_iterations`` are the main-loop iterations of the
    measured and the profiling run."""

    __slots__ = (
        "suite", "benchmark_names", "kernel_mix", "kernels_min",
        "kernels_max", "run_iterations", "profile_iterations",
    )

    def __init__(
        self,
        suite: str,
        benchmark_names: tuple[str, ...],
        kernel_mix: tuple[tuple[str, float], ...],
        kernels_min: int,
        kernels_max: int,
        run_iterations: int,
        profile_iterations: int,
    ) -> None:
        self.suite = suite
        self.benchmark_names = benchmark_names
        self.kernel_mix = kernel_mix
        self.kernels_min = kernels_min
        self.kernels_max = kernels_max
        self.run_iterations = run_iterations
        self.profile_iterations = profile_iterations


JAVA_DACAPO = SuiteProfile(
    suite="java-dacapo",
    benchmark_names=(
        "avrora", "batik", "fop", "h2", "jython",
        "luindex", "lusearch", "pmd", "sunflow", "xalan",
    ),
    kernel_mix=(
        ("neutral", 6.0),
        ("cold-path", 2.0),
        ("constant-folding", 1.0),
        ("conditional-elimination", 1.0),
        ("read-elimination", 1.0),
        ("field-chain", 1.0),
    ),
    kernels_min=8,
    kernels_max=14,
    run_iterations=60,
    profile_iterations=20,
)

SCALA_DACAPO = SuiteProfile(
    suite="scala-dacapo",
    benchmark_names=(
        "actors", "apparat", "factorie", "kiama", "scalac", "scaladoc",
        "scalap", "scalariform", "scalatest", "scalaxb", "specs", "tmt",
    ),
    kernel_mix=(
        ("neutral", 4.0),
        ("cold-path", 1.0),
        ("partial-escape-analysis", 3.0),
        ("type-check", 3.0),
        ("conditional-elimination", 1.0),
        ("field-chain", 1.0),
    ),
    kernels_min=8,
    kernels_max=14,
    run_iterations=60,
    profile_iterations=20,
)

MICRO = SuiteProfile(
    suite="micro",
    benchmark_names=(
        "akkaPP", "bufdecode", "charcount", "charhist", "chisquare",
        "groupbyrem", "kmeanCPCA", "streamPerson", "wordcount",
    ),
    kernel_mix=(
        ("neutral", 2.0),
        ("constant-folding", 1.0),
        ("conditional-elimination", 1.0),
        ("partial-escape-analysis", 2.0),
        ("strength-reduction", 1.0),
        ("read-elimination", 1.0),
        ("type-check", 1.0),
    ),
    kernels_min=3,
    kernels_max=5,
    run_iterations=120,
    profile_iterations=30,
)

OCTANE = SuiteProfile(
    suite="octane",
    benchmark_names=(
        "box2d", "code-load", "deltablue", "earley-boyer", "gameboy",
        "mandreel", "navier-stokes", "pdfjs", "raytrace", "regexp",
        "richards", "splay", "typescript", "zlib",
    ),
    kernel_mix=(
        ("neutral", 2.0),
        ("cold-path", 1.0),
        ("array-loop", 2.0),
        ("array-box", 2.0),
        ("type-check", 2.0),
        ("constant-folding", 1.0),
        ("strength-reduction", 1.0),
        ("field-chain", 1.0),
    ),
    kernels_min=10,
    kernels_max=18,
    run_iterations=40,
    profile_iterations=15,
)

RECURSION = SuiteProfile(
    suite="recursion",
    benchmark_names=(
        "ackers", "calltree", "descent", "fibtree", "unwind",
    ),
    kernel_mix=(
        ("recursion", 3.0),
        ("call-tree", 2.0),
        ("neutral", 1.0),
    ),
    kernels_min=2,
    kernels_max=4,
    run_iterations=80,
    profile_iterations=20,
)

ALL_SUITES = {
    p.suite: p
    for p in (JAVA_DACAPO, SCALA_DACAPO, MICRO, OCTANE, RECURSION)
}

#: the four suites of the paper's evaluation — what ``repro evaluate``
#: measures by default (the recursion suite is a harness stress mix,
#: not a paper figure)
PAPER_SUITES = ("java-dacapo", "scala-dacapo", "micro", "octane")


def _pick_kinds(profile: SuiteProfile, rng: random.Random) -> list[str]:
    count = rng.randint(profile.kernels_min, profile.kernels_max)
    kinds = [k for k, _ in profile.kernel_mix]
    weights = [w for _, w in profile.kernel_mix]
    return rng.choices(kinds, weights=weights, k=count)


def generate_workload(profile: SuiteProfile, benchmark: str, seed: int = 0) -> Workload:
    """Deterministically generate one benchmark program."""
    rng = random.Random(f"{profile.suite}/{benchmark}/{seed}")
    kinds = _pick_kinds(profile, rng)
    kernels: list[Kernel] = []
    for index, kind in enumerate(kinds):
        kernels.append(build_kernel(kind, f"k{index}", rng, class_id=index))

    declarations = "".join(k.declarations for k in kernels)
    functions = "".join(k.function for k in kernels)
    calls = " + ".join(k.call for k in kernels)
    source = f"""// generated benchmark {profile.suite}/{benchmark} (seed {seed})
{declarations}
{functions}
fn main(n: int) -> int {{
  var acc: int = 0;
  var i: int = 0;
  while (i < n) {{
    acc = acc + {calls};
    i = i + 1;
  }}
  return acc;
}}
"""
    return Workload(
        name=benchmark,
        suite=profile.suite,
        source=source,
        profile_args=[[profile.profile_iterations]],
        measure_args=[[profile.run_iterations]],
        kinds=[k.kind for k in kernels],
    )


def generate_suite(profile: SuiteProfile, seed: int = 0) -> list[Workload]:
    """All benchmarks of one suite."""
    return [
        generate_workload(profile, name, seed) for name in profile.benchmark_names
    ]
