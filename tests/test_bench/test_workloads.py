"""Tests for the benchmark workload generators."""

import pytest

from repro.bench.harness import SUITE_NAMES
from repro.bench.workloads.kernels import KERNEL_BUILDERS, build_kernel
from repro.bench.workloads.suites import (
    ALL_SUITES,
    JAVA_DACAPO,
    MICRO,
    OCTANE,
    SCALA_DACAPO,
    generate_suite,
    generate_workload,
)
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import Interpreter
from repro.ir import verify_program

import random


class TestKernels:
    @pytest.mark.parametrize("kind", sorted(KERNEL_BUILDERS))
    def test_each_kernel_compiles_and_runs(self, kind):
        rng = random.Random(kind)
        kernel = build_kernel(kind, "k0", rng, class_id=0)
        source = (
            kernel.declarations
            + kernel.function
            + f"fn main(i: int) -> int {{ return {kernel.call}; }}\n"
        )
        program = compile_source(source)
        verify_program(program)
        for i in (0, 1, 7, 50):
            result = Interpreter(program).run("main", [i])
            assert not result.trapped, f"{kind} trapped on {i}: {result.trap}"

    def test_kernel_determinism(self):
        a = build_kernel("constant-folding", "k", random.Random(5), 0)
        b = build_kernel("constant-folding", "k", random.Random(5), 0)
        assert a == b


class TestSuites:
    def test_the_cli_names_every_suite(self):
        # The CLI takes its --suite choices from the harness, which names
        # the suites without loading their generators.
        assert SUITE_NAMES == tuple(sorted(ALL_SUITES))

    def test_benchmark_names_match_paper(self):
        assert "jython" in JAVA_DACAPO.benchmark_names
        assert "xalan" in JAVA_DACAPO.benchmark_names
        assert len(JAVA_DACAPO.benchmark_names) == 10  # paper excludes 4
        assert "scalac" in SCALA_DACAPO.benchmark_names
        assert len(SCALA_DACAPO.benchmark_names) == 12
        assert "akkaPP" in MICRO.benchmark_names
        assert "raytrace" in OCTANE.benchmark_names
        assert len(OCTANE.benchmark_names) == 14

    def test_generation_deterministic(self):
        a = generate_workload(MICRO, "wordcount", seed=3)
        b = generate_workload(MICRO, "wordcount", seed=3)
        assert a.source == b.source

    def test_different_seeds_differ(self):
        a = generate_workload(MICRO, "wordcount", seed=0)
        b = generate_workload(MICRO, "wordcount", seed=1)
        assert a.source != b.source

    def test_different_benchmarks_differ(self):
        a = generate_workload(MICRO, "akkaPP")
        b = generate_workload(MICRO, "wordcount")
        assert a.source != b.source

    @pytest.mark.parametrize("suite", sorted(ALL_SUITES))
    def test_first_benchmark_of_each_suite_runs(self, suite):
        profile = ALL_SUITES[suite]
        workload = generate_workload(profile, profile.benchmark_names[0])
        program = compile_source(workload.source)
        verify_program(program)
        result = Interpreter(program).run(
            workload.entry, list(workload.profile_args[0])
        )
        assert not result.trapped

    def test_suite_generation_complete(self):
        workloads = generate_suite(MICRO)
        assert [w.name for w in workloads] == list(MICRO.benchmark_names)

    def test_suite_mixes_respected(self):
        # scala workloads actually draw from the boxing-heavy mix
        workloads = generate_suite(SCALA_DACAPO)
        kinds = {k for w in workloads for k in w.kinds}
        assert "partial-escape-analysis" in kinds
        assert "type-check" in kinds


class TestArrayBoxKernel:
    def test_allocations_removed_by_dbds(self):
        """The Octane-style array-box kernel exists to exercise PEA in a
        hot loop: after DBDS the per-iteration allocations must be gone
        from the optimized unit."""
        import random

        from repro.ir import New
        from repro.pipeline.compiler import compile_and_profile
        from repro.pipeline.config import BASELINE, DBDS

        kernel = build_kernel("array-box", "k0", random.Random(1), class_id=0)
        source = (
            kernel.declarations
            + kernel.function
            + "fn main(i: int) -> int { return k0(i); }\n"
        )

        def allocation_count(config):
            program, _ = compile_and_profile(source, "main", [[6]], config)
            return sum(
                1
                for ins in (
                    i
                    for b in program.function("main").blocks
                    for i in b.instructions
                )
                if isinstance(ins, New)
            )

        assert allocation_count(DBDS) < allocation_count(BASELINE)

    def test_array_box_speedup(self):
        import random

        from repro.bench.harness import measure_workload
        from repro.bench.workloads.suites import Workload
        from repro.pipeline.config import BASELINE, DBDS

        kernel = build_kernel("array-box", "k0", random.Random(5), class_id=0)
        source = (
            kernel.declarations
            + kernel.function
            + "fn main(n: int) -> int {\n"
            "  var acc: int = 0;\n"
            "  var i: int = 0;\n"
            "  while (i < n) { acc = acc + k0(i); i = i + 1; }\n"
            "  return acc;\n}\n"
        )
        workload = Workload(
            name="abox", suite="test", source=source,
            profile_args=[[10]], measure_args=[[30]],
        )
        base = measure_workload(workload, BASELINE)
        dbds = measure_workload(workload, DBDS)
        assert dbds.cycles < base.cycles
