"""Parallel execution subsystem: process fan-out plus persistent caching.

Three pieces, layered:

* :mod:`repro.parallel.cache` — content-keyed, two-tier (memory + disk)
  result cache, so identical simulation requests are computed once and
  reused across experiments, benchmarks, and CLI runs;
* :mod:`repro.parallel.executor` — order-preserving process-pool
  executor with a deterministic serial fallback (``jobs=1``);
* :mod:`repro.parallel.tasks` — the architecture-level design-space
  sweep built on both, with hardware-constraint pruning.

``repro.dse.explorer``, ``repro.eval.sweep``, and the CLI all route
their fan-out through this package.

Names resolve on first access (see :mod:`repro._lazy`), so callers
that only need the cache or the executor never load the sweep tasks.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".cache": ("CACHE_SCHEMA_VERSION", "ResultCache", "canonical", "make_key"),
    ".executor": ("ParallelExecutor", "resolve_jobs"),
    ".tasks": (
        "DesignPointResult",
        "design_point_sweep",
        "is_feasible",
        "simulate_design_point",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
