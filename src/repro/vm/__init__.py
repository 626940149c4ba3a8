"""Register-based bytecode VM for optimized IR programs.

The reference interpreter (:mod:`repro.interp`) walks the SSA graph
instruction object by instruction object, so benchmark wall-clock is
dominated by Python dispatch overhead rather than by the work the
program does.  This package compiles a :class:`~repro.ir.graph.Program`
into flat, pre-decoded bytecode — dense register slots instead of a
``dict[Value, Any]`` environment, constants materialized at translation
time, phis lowered to per-edge parallel-copy move sequences, branch
targets resolved to instruction indices — and executes it on one of two
engines:

* the **vm** loop (:mod:`repro.vm.machine`, ``--engine=vm``) dispatches
  the 32 base opcodes through a handler table; it carries the profile
  hooks and is megaunit's fallback, and ``repro profile`` derives its
  tables from a profiling run on it (:mod:`repro.vm.profiler`);
* the **megaunit engine** (:mod:`repro.vm.megaunit`,
  ``--engine=megaunit``, the default for measured runs) compiles the
  whole call graph into one ``exec`` unit — registers in Python
  locals, threaded intra-function dispatch, ``OP_CALL`` as a direct
  Python call.

Each engine has two modes, one per kind of run: a measured run (no
collector) meters cost-model cycles, and a profiling run (a
:class:`ProfileCollector` attached) counts blocks and branches
instead.  Semantics are bit-for-bit those of the reference
interpreter: shared heap/trap/outcome types, identical trap messages,
identical step accounting and budget behaviour, identical
:class:`ProfileCollector` hooks.  ``repro check --diff-engines`` and the
``tests/test_vm`` differential suite enforce this; see docs/VM.md.

Every name below resolves on first use, importing only the submodule
that defines it (:mod:`repro._lazy`): a process running megaunit never
loads the profiler.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".bytecode": ("BytecodeFunction", "BytecodeProgram", "disassemble"),
    ".machine": ("VirtualMachine",),
    ".opspec": ("OPCODE_SPECS", "OpSpec"),
    ".megaunit": (
        "MegaunitModule", "MegaunitVirtualMachine", "generate_module_source",
    ),
    ".profiler": (
        "ProfilingVirtualMachine", "StackCollector", "VMProfile", "profile_run",
    ),
    ".translate": ("translate_graph", "translate_program"),
})

__all__ = [
    "BytecodeFunction",
    "BytecodeProgram",
    "MegaunitModule",
    "MegaunitVirtualMachine",
    "OPCODE_SPECS",
    "OpSpec",
    "ProfilingVirtualMachine",
    "StackCollector",
    "VMProfile",
    "VirtualMachine",
    "disassemble",
    "generate_module_source",
    "profile_run",
    "translate_graph",
    "translate_program",
]
