"""Process-pool executor for sweeps, DSE candidates, and experiments.

The executor is the single fan-out point of the reproduction: callers
hand it a picklable task function and a list of argument tuples, and it
either evaluates them serially (``jobs=1`` — the deterministic default,
used by the test suite for bit-for-bit comparisons) or across worker
processes.  Results always come back in submission order, so serial and
parallel execution are interchangeable.

:meth:`ParallelExecutor.map_cached` layers the persistent
:class:`~repro.parallel.cache.ResultCache` underneath the fan-out:
previously computed points are served from the cache, duplicate points
within one batch are computed once, and only genuine misses reach the
worker pool.  The process-pool machinery itself is imported only when a
pool is first opened, so serial callers never load it.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..errors import ConfigError
from .cache import ResultCache, make_key

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["ParallelExecutor", "resolve_jobs"]


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a job-count request.

    ``None`` or ``0`` selects one worker per available CPU; negative
    values are rejected.
    """
    if jobs is None or jobs == 0:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux fallback
            return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0 or None (got {jobs})")
    return jobs


class ParallelExecutor:
    """Fans task batches out across worker processes.

    Args:
        jobs: Worker count; ``1`` runs in-process (serial, deterministic),
            ``None``/``0`` uses every available CPU.
        cache: Result cache consulted by :meth:`map_cached`.
        start_method: ``multiprocessing`` start method; defaults to
            ``"fork"`` on Linux (cheap) and the platform default
            elsewhere (macOS forks are unsafe under system frameworks).
    """

    def __init__(
        self,
        jobs: int | None = 1,
        cache: ResultCache | None = None,
        start_method: str | None = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        if start_method is None and sys.platform == "linux":
            # Cheap and safe on Linux; macOS deliberately defaults to
            # spawn (fork is unsafe under its system frameworks), so
            # everywhere else we keep the platform default.
            start_method = "fork"
        self.start_method = start_method
        self._pool: ProcessPoolExecutor | None = None

    def _open_pool(self, workers: int) -> ProcessPoolExecutor:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        return ProcessPoolExecutor(
            max_workers=workers, mp_context=get_context(self.start_method)
        )

    @contextmanager
    def session(self):
        """Keep one worker pool open across multiple :meth:`map` calls.

        By default every :meth:`map` call builds and tears down its own
        pool; phased orchestration (e.g. the multi-fleet donor phase, a
        barrier, then the receiver phase) pays that startup twice for
        the same workers.  Inside a session, consecutive batches reuse
        the pool::

            with executor.session():
                first = executor.map(fn, donors)
                ...exchange at the barrier...
                second = executor.map(fn, receivers)

        Serial executors (``jobs=1``) pass through unchanged; nesting
        reuses the outer session's pool.
        """
        if self.jobs <= 1 or self._pool is not None:
            yield self
            return
        pool = self._open_pool(self.jobs)
        self._pool = pool
        try:
            yield self
        finally:
            self._pool = None
            pool.shutdown()

    def map(
        self,
        fn: Callable[..., Any],
        argtuples: Sequence[tuple],
    ) -> list[Any]:
        """Evaluate ``fn(*args)`` for every tuple, in submission order.

        With more than one job, ``fn`` and every argument tuple must be
        picklable (define workers at module level).  Worker exceptions
        propagate to the caller.
        """
        argtuples = list(argtuples)
        if self.jobs <= 1 or len(argtuples) <= 1:
            return [fn(*args) for args in argtuples]
        if self._pool is not None:
            futures = [
                self._pool.submit(fn, *args) for args in argtuples
            ]
            return [future.result() for future in futures]
        with self._open_pool(min(self.jobs, len(argtuples))) as pool:
            futures = [pool.submit(fn, *args) for args in argtuples]
            return [future.result() for future in futures]

    def map_cached(
        self,
        kind: str,
        fn: Callable[..., Any],
        argtuples: Sequence[tuple],
    ) -> list[Any]:
        """Like :meth:`map`, but routed through the result cache.

        Each argument tuple is keyed via
        :func:`~repro.parallel.cache.make_key`; cached points skip the
        pool entirely and duplicate points within the batch are computed
        once.  Without a cache this degrades to :meth:`map`.
        """
        argtuples = list(argtuples)
        if self.cache is None:
            return self.map(fn, argtuples)
        keys = [make_key(kind, args=args) for args in argtuples]
        pending: dict[str, tuple] = {}
        for key, args in zip(keys, argtuples):
            if self.cache.contains(key) or key in pending:
                self.cache.hits += 1
            else:
                self.cache.misses += 1
                pending[key] = args
        if pending:
            computed = self.map(fn, list(pending.values()))
            for key, value in zip(pending.keys(), computed):
                self.cache.put(key, value)
        return [self.cache.peek(key) for key in keys]
