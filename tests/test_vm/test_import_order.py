"""Opcode numbers and the checker order do not depend on what a process
imports first.

No package ``__init__`` loads its submodules eagerly, so a process can
reach the handler table, the opcode specs and the checker registry
through any of several modules.  Whatever it imports first, they must
equal the goldens below, and a program pickled by one process must
translate and run in another.
"""

from __future__ import annotations

import json

import pytest

from repro.interp.interpreter import Interpreter
from repro.pipeline.cache import pack_artifact
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import DBDS
from repro.vm.machine import VirtualMachine
from repro.vm.translate import translate_program

from tests.helpers import REPO, fresh_python

#: ``opcode handler spec`` per line, for every entry of ``_HANDLERS``
OPCODE_GOLDEN = REPO / "tests" / "goldens" / "opcode_table.txt"

CHECKERS_GOLDEN = [
    "block-structure", "edge-consistency", "phi-inputs", "phi-ordering",
    "ssa-dominance", "use-lists", "stamp-soundness", "loop-structure",
    "block-frequency", "lir-structure", "lir-liveness", "lir-allocation",
    "bc-structure", "bc-defuse", "bc-codegen-lint",
]

#: the modules a process may import first; each one is then followed
#: by all of the others
FIRST_IMPORTS = [
    "repro",
    "repro.vm.megaunit",
    "repro.analysis.bcverify",
    "repro.analysis.lir_checks",
    "repro.__main__",
]

TABLES = """
import importlib, json, sys

def table():
    from repro.vm.machine import _HANDLERS
    from repro.vm.opspec import OPCODE_SPECS
    return [f"{op} {h.__name__} {OPCODE_SPECS[op].name}"
            for op, h in enumerate(_HANDLERS)]

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


def _fields(stdout: str) -> dict[str, str]:
    pairs = (line.partition(":") for line in stdout.splitlines())
    return {key.strip(): value.strip() for key, sep, value in pairs if sep}


def test_cached_translation_runs_on_vm_across_processes(tmp_path):
    app = ["run", "examples/apps/nqueens.mini", "--args", "6"]
    cache = ["--cache-dir", str(tmp_path / "cache")]
    reference = _fields(
        fresh_python("-m", "repro", *app, "--engine", "reference").stdout
    )
    # The cold run executes on megaunit and stores the program; the
    # warm --engine vm run translates the unpickled program.
    fresh_python("-m", "repro", *app, *cache)
    warm = fresh_python("-m", "repro", *app, *cache, "--engine", "vm")
    assert "compiled from   : cache" in warm.stderr
    out = _fields(warm.stdout)
    for field in ("result", "simulated cycles", "code size"):
        assert out[field] == reference[field], field


PICKLED_RUN = """
import json, sys
from repro.pipeline.cache import unpack_artifact
from repro.vm.machine import VirtualMachine
from repro.vm.translate import translate_program
with open(sys.argv[1], "rb") as fh:
    program = unpack_artifact(fh.read())
bytecode = translate_program(program)
result = VirtualMachine(bytecode).run("main", [int(sys.argv[2])])
print(json.dumps({"value": result.value, "steps": result.steps,
                  "cycles": result.cycles, "trap": result.trap}))
"""


def test_pickled_artifact_runs_in_a_fresh_process(tmp_path):
    source = (REPO / "examples" / "apps" / "matrix.mini").read_text()
    program, _ = compile_and_profile(source, "main", [[6]], DBDS)
    bytecode = translate_program(program)
    VirtualMachine(bytecode).run("main", [6])
    path = tmp_path / "artifact.bin"
    path.write_bytes(pack_artifact(program))
    reference = Interpreter(program, metered=True).run("main", [7])
    seen = json.loads(fresh_python("-c", PICKLED_RUN, str(path), "7").stdout)
    assert seen == {
        "value": reference.value, "steps": reference.steps,
        "cycles": reference.cycles, "trap": reference.trap,
    }
