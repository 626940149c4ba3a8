"""DBDS — Dominance-Based Duplication Simulation.

A complete, self-contained reproduction of *"Dominance-Based Duplication
Simulation (DBDS): Code Duplication to Enable Compiler Optimizations"*
(Leopoldseder et al., CGO 2018): an SSA compiler for a small imperative
language, the duplication simulation optimization with its trade-off
cost model, the baselines it is evaluated against, and the benchmark
harness regenerating the paper's evaluation figures.

Quick start::

    from repro import compile_and_profile, measure_performance, DBDS

    program, report = compile_and_profile(source, "main", [[10]], DBDS)
    cycles, _ = measure_performance(program, "main", [[10]])

See README.md for the language reference and architecture overview.
"""

from ._lazy import lazy_exports

# Every name below resolves on first use, importing only the module that
# defines it: ``import repro`` itself costs almost nothing, and a CLI
# verb loads just the layers it runs.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".analysis.core": (
        "CheckReport",
        "Severity",
        "Violation",
        "all_checkers",
        "checker",
        "run_checkers",
        "run_program_checkers",
    ),
    ".analysis.blame": ("PhaseBlameError", "PhaseGuard", "use_guard"),
    ".analysis.lir_checks": ("run_lir_checkers",),
    ".analysis.progen": ("SourceMutator",),
    ".dbds.duplicate": ("DuplicationError", "can_duplicate", "duplicate_into"),
    ".dbds.phase": ("DbdsPhase", "DbdsStats"),
    ".dbds.simulation": ("SimulationResult", "SimulationTier"),
    ".dbds.tradeoff": ("TradeOffConfig", "should_duplicate", "sort_candidates"),
    ".frontend.irbuilder": ("build_program", "compile_source"),
    ".frontend.lexer": ("CompileError",),
    ".frontend.parser": ("parse_module",),
    ".interp.interpreter": (
        "ExecutionResult",
        "HeapArray",
        "HeapObject",
        "Interpreter",
        "observable_outcome",
    ),
    ".interp.profile": ("apply_profile", "profile_program"),
    ".ir": ("Graph", "Program", "verify_graph", "verify_program"),
    ".obs": (
        "CompileProfile",
        "Tracer",
        "current_tracer",
        "read_jsonl",
        "use_tracer",
        "write_jsonl",
    ),
    ".pipeline.batch": (
        "BatchOptions", "BatchReport", "FileResult", "compile_batch",
    ),
    ".pipeline.cache": (
        "ArtifactCache",
        "CacheEntry",
        "artifact_manifest",
        "cache_key",
        "config_fingerprint",
        "make_entry",
    ),
    ".pipeline.compiler": ("Compiler", "compile_and_profile"),
    ".pipeline.front": (
        "CompilationReport",
        "UnitMetrics",
        "measure_performance",
    ),
    ".pipeline.config": (
        "BACKTRACKING",
        "BASELINE",
        "CONFIGURATIONS",
        "DBDS",
        "DUPALOT",
        "CompilerConfig",
    ),
})

__version__ = "1.0.0"

__all__ = [
    "all_checkers", "apply_profile", "ArtifactCache", "BACKTRACKING",
    "BASELINE", "BatchOptions", "BatchReport", "build_program",
    "cache_key", "can_duplicate", "checker", "CheckReport",
    "CacheEntry", "CompilationReport",
    "compile_and_profile", "compile_batch", "CompileError",
    "compile_source", "CompileProfile", "Compiler", "CompilerConfig",
    "CONFIGURATIONS", "config_fingerprint", "current_tracer", "DBDS",
    "DbdsPhase", "DbdsStats", "DUPALOT",
    "duplicate_into", "DuplicationError", "ExecutionResult",
    "FileResult", "Graph", "HeapArray", "HeapObject", "Interpreter",
    "make_entry",
    "artifact_manifest", "measure_performance", "observable_outcome",
    "parse_module", "PhaseBlameError", "PhaseGuard", "profile_program",
    "Program", "read_jsonl", "run_checkers", "run_lir_checkers",
    "run_program_checkers", "Severity", "should_duplicate",
    "SimulationResult", "SimulationTier", "sort_candidates",
    "SourceMutator", "TradeOffConfig", "Tracer", "UnitMetrics",
    "use_guard", "use_tracer", "verify_graph", "verify_program",
    "Violation", "write_jsonl",
]
