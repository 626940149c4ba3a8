"""Register-based bytecode VM for optimized IR programs.

The reference interpreter (:mod:`repro.interp`) walks the SSA graph
instruction object by instruction object, so benchmark wall-clock is
dominated by Python dispatch overhead rather than by the work the
program does.  This package compiles a :class:`~repro.ir.graph.Program`
into flat, pre-decoded bytecode — dense register slots instead of a
``dict[Value, Any]`` environment, constants materialized at translation
time, phis lowered to per-edge parallel-copy move sequences, branch
targets resolved to instruction indices — and executes it with a
per-opcode handler table.

Four raw-speed layers sit on top of the flat-tuple machine:

* **superinstruction fusion** (:mod:`repro.vm.fusion`) rewrites hot
  adjacent opcode pairs into single combined instructions;
* **quickening** (:mod:`repro.vm.quicken`) specializes generic ops in
  place on first execution, with a deopt escape back to the generic
  form;
* the **closure engine** (:mod:`repro.vm.closure`) compiles each basic
  block to an ``exec``-generated Python closure chain and skips
  bytecode dispatch entirely;
* the **megaunit engine** (:mod:`repro.vm.megaunit`) compiles the
  whole call graph into one ``exec`` unit — registers in Python
  locals, threaded intra-function dispatch, ``OP_CALL`` as a direct
  Python call (``--engine=megaunit``).

:mod:`repro.vm.tiering` composes the layers adaptively: the tiered
engine starts every function in the unfused baseline translation with
hotness counters and promotes hot functions to the fused/quickened
fast stream at run time (``--engine=tiered``; see docs/TIERING.md).

Semantics are bit-for-bit those of the reference interpreter: shared
heap/trap/outcome types, identical trap messages, identical step
accounting and budget behaviour, identical :class:`ProfileCollector`
and observer hooks.  ``repro check --diff-engines`` and the
``tests/test_vm`` differential suite enforce this; see docs/VM.md.

Every name below resolves on first use, importing only the submodule
that defines it (:mod:`repro._lazy`): a process running megaunit never
loads fusion, quickening, tiering or the profiler.  Extended opcode
numbers stay pickle-stable regardless: :mod:`repro.vm.fusion`
registers its superinstructions (the 729 triples as nine compile
units of 81, in sorted order) into ``machine.XHANDLERS`` right after
the base table, and :mod:`repro.vm.quicken` imports fusion before it
registers its own forms — so cached artifacts that pickle fused or
quickened streams decode identically in every process, whichever
module it imported first.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".bytecode": ("BytecodeFunction", "BytecodeProgram", "disassemble"),
    ".machine": ("VirtualMachine", "fast_op_bindings", "register_xop"),
    ".opspec": ("OPCODE_SPECS", "OpSpec", "register_opspec"),
    ".fusion": ("fuse_function", "fuse_program", "mine_hot_pairs"),
    ".quicken": ("quicken_function",),
    ".closure": (
        "ClosureVirtualMachine", "compile_function", "function_source",
    ),
    ".megaunit": (
        "MegaunitModule", "MegaunitVirtualMachine", "generate_module_source",
    ),
    ".profiler": ("ProfilingVirtualMachine", "VMProfile", "profile_run"),
    ".translate": ("translate_graph", "translate_program"),
    ".tiering": (
        "DEFAULT_TIER2_THRESHOLD",
        "DEFAULT_TIER_THRESHOLD",
        "TieredVirtualMachine",
        "TieringController",
        "TieringPolicy",
    ),
})

__all__ = [
    "DEFAULT_TIER2_THRESHOLD",
    "DEFAULT_TIER_THRESHOLD",
    "BytecodeFunction",
    "BytecodeProgram",
    "ClosureVirtualMachine",
    "MegaunitModule",
    "MegaunitVirtualMachine",
    "OPCODE_SPECS",
    "OpSpec",
    "ProfilingVirtualMachine",
    "TieredVirtualMachine",
    "TieringController",
    "TieringPolicy",
    "VMProfile",
    "VirtualMachine",
    "compile_function",
    "disassemble",
    "fast_op_bindings",
    "function_source",
    "fuse_function",
    "fuse_program",
    "generate_module_source",
    "mine_hot_pairs",
    "profile_run",
    "quicken_function",
    "register_opspec",
    "register_xop",
    "translate_graph",
    "translate_program",
]
