"""Artifacts of IR too deep for a plain pickle.

The generated ``octane/regexp`` and ``scala-dacapo/scalaxb`` programs
(suite seed 0) compile to IR whose reference chains are deeper than
CPython's default recursion limit: on CPython 3.11 a plain
``pickle.dumps`` of the artifact raises ``RecursionError``.
:func:`pack_artifact` must store them anyway, without raising the
process-wide limit, and a warm run from the cache must reproduce the
cold run exactly.
"""

import sys

import pytest

from repro.__main__ import main
from repro.bench.workloads.suites import ALL_SUITES, generate_workload
from repro.pipeline.cache import pack_artifact, unpack_artifact
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import DBDS
from repro.vm import VirtualMachine, translate_program

DEEP = {"regexp": "octane", "scalaxb": "scala-dacapo"}
ARGS = ["--args", "15"]


def deep_source(name: str) -> str:
    return generate_workload(ALL_SUITES[DEEP[name]], name, 0).source


@pytest.fixture
def deep_files(tmp_path):
    paths = []
    for name in sorted(DEEP):
        path = tmp_path / f"{name}.mini"
        path.write_text(deep_source(name))
        paths.append(path)
    return paths


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_pack_artifact_needs_only_shallow_recursion():
    # A plain pickle of this artifact needs a recursion limit between
    # 1000 and 2000 on CPython 3.11; the shell-first stream must fit in
    # a hundred frames above the caller and leave the limit alone.
    program, _ = compile_and_profile(deep_source("regexp"), "main", [[15]], DBDS)
    bytecode = translate_program(program)
    limit = sys.getrecursionlimit()
    shallow = _stack_depth() + 100
    sys.setrecursionlimit(shallow)
    try:
        blob = pack_artifact(program, bytecode)
        restored, restored_bytecode = unpack_artifact(blob)
        assert sys.getrecursionlimit() == shallow
    finally:
        sys.setrecursionlimit(limit)
    assert restored.describe() == program.describe()
    # One stream: the bytecode still references the restored IR.
    fn = restored_bytecode.function("main")
    assert fn.entry_block is restored.function("main").entry
    expected = VirtualMachine(bytecode, metered=True).run("main", [15])
    actual = VirtualMachine(restored_bytecode, metered=True).run("main", [15])
    assert (actual.value, actual.steps, actual.cycles) == (
        expected.value, expected.steps, expected.cycles
    )


def _fields(out: str) -> dict:
    return dict(
        (key.strip(), value.strip())
        for key, _, value in (line.partition(":") for line in out.splitlines())
    )


@pytest.mark.parametrize("name", sorted(DEEP))
def test_run_cold_then_warm_from_cache(name, tmp_path, capsys):
    path = tmp_path / f"{name}.mini"
    path.write_text(deep_source(name))
    argv = ["run", str(path), *ARGS, "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert "compiled from   : cache" not in cold.err
    assert "compiled from   : cache" in warm.err
    for key in ("result", "simulated cycles", "code size"):
        assert _fields(warm.out)[key] == _fields(cold.out)[key]


def test_batch_over_deep_programs(deep_files, tmp_path, capsys):
    argv = [
        "batch", "-j", "1", *map(str, deep_files), *ARGS,
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(argv) == 0
    assert main(argv) == 0  # warm: both served from the cache
    assert capsys.readouterr().out.count(" cache\n") == len(DEEP)
