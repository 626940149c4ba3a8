"""What a process loads: the CLI's import budget and the lazy public API.

The package ``__init__``s resolve their re-exports on first use, and the
CLI imports the modules that only some verbs or flags need where they
are used, so a ``repro run`` on the default megaunit engine never pays
for the profiling VM, the bytecode verifier, the fuzzers, the backend
or the batch driver, and a warm one (served from the artifact cache)
not for the compiler either.  No ``run`` or ``bench`` loads
``dataclasses`` or ``inspect``.  Every public name still resolves
exactly as before.
"""

from __future__ import annotations

import json
import re

import pytest

from tests.helpers import REPO, fresh_python

#: modules a megaunit ``run`` must not load (with their submodules)
OFF_BUDGET = (
    "repro.vm.profiler",
    "repro.analysis.bcverify",
    "repro.analysis.validate",
    "repro.analysis.progen",
    "repro.backend",
    "repro.pipeline.batch",
)

#: what only a compile needs: a warm run, which executes a cached
#: program, loads none of these either
COMPILE_ONLY = (
    "repro.frontend",
    "repro.opts",
    "repro.dbds.phase",
    "repro.dbds.simulation",
    "repro.analysis.core",
    "repro.analysis.checkers",
    "repro.interp.profile",
    "repro.ir.copy",
    "repro.pipeline.compiler",
    "repro.bench.trajectory",
    "repro.bench.workloads",
    "repro.obs.metrics",
    "repro.obs.profile",
)

#: the standard library that only ``@dataclass`` needed: the records on
#: the run and bench paths are slotted classes, so no verb below execs
#: generated methods or loads ``inspect`` (and with it ``ast``, ``dis``
#: and ``tokenize``)
CODEGEN_STDLIB = ("dataclasses", "inspect")

LOADED = """
import json, sys
import repro.__main__ as cli
if len(sys.argv) > 1:
    assert cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(sys.modules)))
"""


def _loaded(*argv: str) -> tuple[set, str]:
    proc = fresh_python("-c", LOADED, *argv)
    return set(json.loads(proc.stdout.splitlines()[-1])), proc.stderr


def _within(modules: set, budget: tuple[str, ...]) -> list[str]:
    """The loaded ``modules`` that ``budget`` names (with submodules)."""
    return sorted(
        name for name in modules
        if any(name == m or name.startswith(m + ".") for m in budget)
    )


def test_cli_import_stays_within_budget():
    modules, _ = _loaded()
    assert _within(modules, OFF_BUDGET + COMPILE_ONLY) == []


RUN = ["run", "examples/apps/nqueens.mini", "--args", "6", "--engine", "megaunit"]


def test_warm_megaunit_run_stays_within_budget(tmp_path):
    argv = [*RUN, "--cache-dir", str(tmp_path / "cache")]
    fresh_python("-m", "repro", *argv)  # fills the cache
    modules, stderr = _loaded(*argv)
    assert "compiled from   : cache" in stderr
    assert _within(modules, OFF_BUDGET + COMPILE_ONLY) == []
    assert _within(modules, CODEGEN_STDLIB) == []


def test_uncached_megaunit_run_never_fuses():
    # Profiling, compilation and megaunit codegen stay within budget too.
    modules, _ = _loaded(*RUN)
    assert _within(modules, OFF_BUDGET) == []
    assert "repro.pipeline.compiler" in modules
    assert _within(modules, CODEGEN_STDLIB) == []


def test_bench_loads_no_dataclass_machinery():
    modules, _ = _loaded("bench", "--suite", "micro")
    assert "repro.bench.workloads.suites" in modules
    assert _within(modules, CODEGEN_STDLIB) == []


#: perfbench/traced.py's set-up, step by step: it imports the CLI, then
#: ``install()`` wraps every layer, looking the wrapped functions up in
#: ``sys.modules``
TRACED_INSTALL = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("traced", "perfbench/traced.py")
traced = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traced)
import repro.__main__
traced.install(traced.Recorder())
print(json.dumps(sorted(sys.modules)))
"""


def test_perfbench_traced_install_finds_every_layer():
    modules = set(json.loads(fresh_python("-c", TRACED_INSTALL).stdout))
    # install() imports the compiler, which loads the whole compile stack.
    assert {
        "repro.pipeline.compiler",
        "repro.frontend.irbuilder",
        "repro.interp.profile",
        "repro.bench.harness",
        "repro.vm.megaunit",
        "repro.vm.translate",
    } <= modules


# ----------------------------------------------------------------------
# The lazy public API
# ----------------------------------------------------------------------
PACKAGES = (
    "repro", "repro.vm", "repro.analysis", "repro.pipeline", "repro.obs",
    "repro.ir",
)

#: where the exported plain data (which has no ``__module__``) lives
DATA_HOMES = {
    "BYTES_BUCKETS": "repro.obs.metrics",
    "CHECK_BOUNDARIES": "repro.analysis.blame",
    "CHECK_EACH_PHASE": "repro.analysis.blame",
    "CHECK_MODES": "repro.analysis.blame",
    "CHECK_OFF": "repro.analysis.blame",
    "CONFIGURATIONS": "repro.pipeline.config",
    "CORE_CHECKERS": "repro.analysis.checkers",
    "ENGINES": "repro.pipeline.front",
    "HISTOGRAM_BUCKETS": "repro.obs.metrics",
    "MUTATION_KINDS": "repro.analysis.progen",
    "OPCODE_SPECS": "repro.vm.opspec",
    "SECONDS_BUCKETS": "repro.obs.metrics",
}

RESOLVE = """
import importlib, json, sys
package = importlib.import_module(sys.argv[1])
homes = json.loads(sys.argv[2])
loaded_by_import = sorted(m for m in sys.modules if m.startswith("repro"))
problems = []
listed = dir(package)
for name in package.__all__:
    value = getattr(package, name)
    home = homes.get(name) or getattr(value, "__module__", None)
    if getattr(importlib.import_module(home), name, None) is not value:
        problems.append(f"{name}: not the object {home} defines")
    if name not in listed:
        problems.append(f"{name}: missing from dir()")
try:
    package.no_such_name
    problems.append("no_such_name resolved")
except AttributeError as exc:
    if "no_such_name" not in str(exc):
        problems.append(f"unhelpful AttributeError: {exc}")
print(json.dumps({"loaded": loaded_by_import, "problems": problems}))
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves_to_its_defining_object(package):
    seen = json.loads(
        fresh_python("-c", RESOLVE, package, json.dumps(DATA_HOMES)).stdout
    )
    assert seen["problems"] == []
    # Importing the package loads nothing but the package itself.
    assert set(seen["loaded"]) == {"repro", "repro._lazy", package}


def test_readme_quickstart_runs_in_a_fresh_process():
    readme = (REPO / "README.md").read_text()
    quickstart = readme[readme.index("## Quickstart"):]
    code = re.search(r"```python\n(.*?)```", quickstart, re.S).group(1)
    assert "from repro import" in code
    out = fresh_python("-c", code).stdout
    assert out.strip()
