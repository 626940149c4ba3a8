"""``repro.pipeline`` — compilation driver, configurations, batching
and the persistent artifact cache.

* :mod:`repro.pipeline.front` — :func:`jit`, the cache-first compile
  every verb goes through, its :class:`Artifact` and the engines that
  run one; a warm run needs nothing else from here but the cache and
  the configurations;
* :mod:`repro.pipeline.compiler` — the phase pipeline for one unit,
  which :func:`jit` imports on a cache miss;
* :mod:`repro.pipeline.config` — the paper's named configurations;
* :mod:`repro.pipeline.batch` — parallel many-file compilation;
* :mod:`repro.pipeline.cache` — on-disk artifact cache keyed by
  *(source hash, config fingerprint, repro version)*.

See docs/PIPELINE.md for the batching/caching architecture.
"""

from .._lazy import lazy_exports

# Names resolve on first use: a ``run`` never loads the batch driver
# and its process pool.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".batch": ("BatchOptions", "BatchReport", "FileResult", "compile_batch"),
    ".cache": (
        "ArtifactCache",
        "CacheEntry",
        "artifact_manifest",
        "cache_key",
        "config_fingerprint",
        "make_entry",
        "normalize_ir",
    ),
    ".compiler": ("Compiler", "ProfiledSource", "compile_and_profile"),
    ".front": (
        "Artifact",
        "CompilationReport",
        "ENGINES",
        "UnitMetrics",
        "jit",
        "measure_performance",
    ),
    ".config": (
        "BACKTRACKING",
        "BASELINE",
        "CONFIGURATIONS",
        "DBDS",
        "DUPALOT",
        "CompilerConfig",
    ),
})

__all__ = [
    "Artifact",
    "ArtifactCache",
    "BACKTRACKING",
    "BASELINE",
    "BatchOptions",
    "BatchReport",
    "CacheEntry",
    "CompilationReport",
    "Compiler",
    "CompilerConfig",
    "CONFIGURATIONS",
    "DBDS",
    "DUPALOT",
    "ENGINES",
    "FileResult",
    "ProfiledSource",
    "UnitMetrics",
    "artifact_manifest",
    "cache_key",
    "compile_and_profile",
    "compile_batch",
    "config_fingerprint",
    "jit",
    "make_entry",
    "measure_performance",
    "normalize_ir",
]
