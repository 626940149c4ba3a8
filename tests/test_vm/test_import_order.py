"""Extended opcode numbers and the checker order do not depend on what a
process imports first.

Fusion and quickening register their extended opcodes when they are
imported, and no package ``__init__`` loads them eagerly, so a process
can reach them through any of several modules.  Whatever it imports
first, the handler table, the opcode specs and the checker run order
must equal the goldens below (captured when every package still
imported everything eagerly), and bytecode pickled by one process must
run in another.
"""

from __future__ import annotations

import json

import pytest

from repro.costmodel.model import cycles_of
from repro.interp.interpreter import Interpreter
from repro.pipeline.cache import pack_artifact
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import DBDS
from repro.vm.machine import VirtualMachine
from repro.vm.translate import translate_program

from tests.helpers import REPO, fresh_python

#: ``opcode handler spec`` per line, for every entry of ``XHANDLERS``
OPCODE_GOLDEN = REPO / "tests" / "goldens" / "opcode_table.txt"

CHECKERS_GOLDEN = [
    "block-structure", "edge-consistency", "phi-inputs", "phi-ordering",
    "ssa-dominance", "use-lists", "stamp-soundness", "loop-structure",
    "block-frequency", "lir-structure", "lir-liveness", "lir-allocation",
    "bc-structure", "bc-defuse", "bc-accounting", "bc-xcode-equivalence",
    "bc-codegen-lint", "bc-retranslate",
]

#: the modules a process may import first; each one is then followed
#: by all of the others
FIRST_IMPORTS = [
    "repro",
    "repro.vm.quicken",
    "repro.vm.fusion",
    "repro.vm.tiering",
    "repro.analysis.bcverify",
    "repro.analysis.lir_checks",
    "repro.__main__",
]

TABLES = """
import importlib, json, sys

def table():
    from repro.vm.machine import XHANDLERS
    from repro.vm.opspec import OPCODE_SPECS
    return [f"{op} {h.__name__} {OPCODE_SPECS[op].name}"
            for op, h in enumerate(XHANDLERS)]

importlib.import_module(sys.argv[1])
first = table()
for name in sys.argv[2:]:
    importlib.import_module(name)
from repro.analysis.core import all_checkers
print(json.dumps({"first": first, "table": table(),
                  "checkers": [c.name for c in all_checkers()]}))
"""


@pytest.mark.parametrize("first", FIRST_IMPORTS)
def test_tables_match_the_goldens_whatever_is_imported_first(first):
    golden = OPCODE_GOLDEN.read_text().splitlines()
    rest = [name for name in FIRST_IMPORTS if name != first]
    seen = json.loads(fresh_python("-c", TABLES, first, *rest).stdout)
    assert seen["table"] == golden
    assert seen["first"] == golden[: len(seen["first"])]
    assert seen["checkers"] == CHECKERS_GOLDEN


#: a warm ``run`` in a fresh process that reports whether it loaded
#: the extended handlers, i.e. dispatched a fused stream
WARM_RUN = """
import sys
from repro.__main__ import main
code = main(sys.argv[1:])
print("fusion loaded:", "repro.vm.fusion" in sys.modules)
sys.exit(code)
"""


def _fields(stdout: str) -> dict[str, str]:
    pairs = (line.partition(":") for line in stdout.splitlines())
    return {key.strip(): value.strip() for key, sep, value in pairs if sep}


def test_cached_translation_keeps_its_superinstructions_across_processes(
    tmp_path,
):
    app = ["run", "examples/apps/nqueens.mini", "--args", "6"]
    cache = ["--cache-dir", str(tmp_path / "cache")]
    reference = _fields(
        fresh_python("-m", "repro", *app, "--engine", "reference").stdout
    )
    # The cold run executes on megaunit but stores the fused
    # translation, so that later --engine vm hits dispatch it.
    cold = fresh_python("-c", WARM_RUN, *app, *cache)
    assert "fusion loaded: True" in cold.stdout
    warm = fresh_python("-c", WARM_RUN, *app, *cache, "--engine", "vm")
    assert "compiled from   : cache" in warm.stderr
    assert "fusion loaded: True" in warm.stdout
    out = _fields(warm.stdout)
    for field in ("result", "simulated cycles", "code size"):
        assert out[field] == reference[field], field


QUICKENED_RUN = """
import json, sys
from repro.pipeline.cache import unpack_artifact
from repro.vm.machine import VirtualMachine
with open(sys.argv[1], "rb") as fh:
    program, bytecode = unpack_artifact(fh.read())
loaded = "repro.vm.fusion" in sys.modules
result = VirtualMachine(bytecode, metered=True).run("main", [int(sys.argv[2])])
print(json.dumps({"loaded_before_run": loaded, "value": result.value,
                  "steps": result.steps, "cycles": result.cycles,
                  "trap": result.trap}))
"""


def test_artifact_packed_after_quickening_runs_in_a_fresh_process(tmp_path):
    source = (REPO / "examples" / "apps" / "matrix.mini").read_text()
    program, _ = compile_and_profile(source, "main", [[6]], DBDS)
    bytecode = translate_program(program)
    VirtualMachine(bytecode, metered=True).run("main", [6])
    assert any(
        fn.xcode is not None and fn.quickened
        for fn in bytecode.functions.values()
    )
    path = tmp_path / "artifact.bin"
    path.write_bytes(pack_artifact(program, bytecode))
    reference = Interpreter(
        program, cycle_cost=cycles_of, terminator_cost=cycles_of
    ).run("main", [7])
    seen = json.loads(fresh_python("-c", QUICKENED_RUN, str(path), "7").stdout)
    # Unpickling does not load the handlers; the first fast frame does.
    assert seen.pop("loaded_before_run") is False
    assert seen == {
        "value": reference.value, "steps": reference.steps,
        "cycles": reference.cycles, "trap": reference.trap,
    }
