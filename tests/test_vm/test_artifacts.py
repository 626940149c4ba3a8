"""Cached artifacts run on the VM: pack/unpack, then a fresh translation."""

import pytest

from repro.frontend.irbuilder import compile_source
from repro.pipeline.cache import pack_artifact, unpack_artifact
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.front import measure_performance
from repro.pipeline.config import DBDS
from repro.vm import VirtualMachine, translate_program
from repro.vm.codegen_cache import function_digest

from tests.helpers import REPO

SOURCE = """
fn main(n: int) -> int {
  var i: int = 0;
  var s: int = 0;
  while (i < n) { s = s + i * i; i = i + 1; }
  return s;
}
"""


def compiled():
    return compile_and_profile(SOURCE, "main", [[5]], DBDS)


def test_pack_unpack_roundtrip_preserves_shared_identity():
    program, _ = compiled()
    restored_program = unpack_artifact(pack_artifact(program))
    restored_bytecode = translate_program(restored_program)
    fn = restored_bytecode.function("main")
    # The translation of the restored program references its own IR:
    # the entry block IS a block of the restored program.
    assert fn.entry_block is restored_program.function("main").entry
    vm = VirtualMachine(restored_bytecode, metered=True)
    assert vm.run("main", [10]).value == 285


@pytest.mark.parametrize(
    "app, args", [("nqueens", 6), ("wordfreq", 120), ("matrix", 8)]
)
def test_round_trip_translates_to_the_same_codegen_digests(app, args):
    # Warm runs translate the unpickled program; megaunit's codegen
    # cache only hits if that translation digests like the cold one.
    source = (REPO / "examples" / "apps" / f"{app}.mini").read_text()
    program, _ = compile_and_profile(source, "main", [[args]], DBDS)
    cold = translate_program(program)
    warm = translate_program(unpack_artifact(pack_artifact(program)))
    assert list(warm.functions) == list(cold.functions)
    for name, fn in cold.functions.items():
        assert function_digest(warm.functions[name]) == function_digest(fn), name


def test_measure_performance_engines_agree():
    program, _ = compiled()
    ref_cycles, ref_results = measure_performance(program, "main", [[12]])
    vm_cycles, vm_results = measure_performance(
        program, "main", [[12]], engine="vm"
    )
    assert ref_cycles == vm_cycles
    assert ref_results[0].value == vm_results[0].value
    assert ref_results[0].steps == vm_results[0].steps


def test_unoptimized_program_artifact_roundtrip():
    program = compile_source(SOURCE)
    bytecode = translate_program(unpack_artifact(pack_artifact(program)))
    assert VirtualMachine(bytecode).run("main", [6]).value == 55
