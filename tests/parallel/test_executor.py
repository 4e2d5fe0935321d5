"""Executor fan-out: serial/parallel equivalence and cache routing."""

import pytest

from repro.dse import explore
from repro.errors import ConfigError
from repro.eval.sweep import evaluate_sweep_point, width_resolution_sweep
from repro.parallel import ParallelExecutor, ResultCache, resolve_jobs

WIDTHS = (0.25, 0.5, 1.0)
RESOLUTIONS = (32, 64, 96)


class TestResolveJobs:
    def test_explicit_count_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_auto_selects_at_least_one(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            resolve_jobs(-2)


class TestMap:
    def test_serial_preserves_order(self):
        executor = ParallelExecutor(jobs=1)
        results = executor.map(
            evaluate_sweep_point, [(w, 32) for w in WIDTHS]
        )
        assert [p.width for p in results] == list(WIDTHS)

    def test_parallel_preserves_order(self):
        executor = ParallelExecutor(jobs=2)
        results = executor.map(
            evaluate_sweep_point, [(w, 32) for w in WIDTHS]
        )
        assert [p.width for p in results] == list(WIDTHS)

    def test_worker_exception_propagates(self):
        executor = ParallelExecutor(jobs=2)
        with pytest.raises(ConfigError):
            # tile dimensions must be positive -> evaluate raises in worker
            executor.map(_raise_config_error, [(1,), (2,)])


def _raise_config_error(value):
    raise ConfigError(f"boom {value}")


class TestSerialParallelEquivalence:
    def test_sweep_results_bit_for_bit(self):
        serial = width_resolution_sweep(WIDTHS, RESOLUTIONS, jobs=1)
        parallel = width_resolution_sweep(WIDTHS, RESOLUTIONS, jobs=3)
        assert serial == parallel

    def test_dse_results_bit_for_bit(self):
        serial = explore(jobs=1)
        parallel = explore(jobs=2)
        assert serial.points == parallel.points


class TestMapCached:
    def test_duplicate_points_computed_once(self):
        cache = ResultCache()
        executor = ParallelExecutor(jobs=1, cache=cache)
        grid = [(0.5, 32), (0.5, 32), (0.5, 32)]
        results = executor.map_cached(
            "sweep_test", evaluate_sweep_point, grid
        )
        assert results[0] == results[1] == results[2]
        assert cache.misses == 1
        assert cache.hits == 2

    def test_second_batch_served_from_cache(self, tmp_path):
        grid = [(w, 32) for w in WIDTHS]
        first = ParallelExecutor(
            jobs=1, cache=ResultCache(tmp_path)
        ).map_cached("sweep_test", evaluate_sweep_point, grid)
        warm_cache = ResultCache(tmp_path)
        second = ParallelExecutor(jobs=1, cache=warm_cache).map_cached(
            "sweep_test", evaluate_sweep_point, grid
        )
        assert first == second
        assert warm_cache.misses == 0
        assert warm_cache.hits == len(grid)

    def test_without_cache_degrades_to_map(self):
        executor = ParallelExecutor(jobs=1, cache=None)
        results = executor.map_cached(
            "sweep_test", evaluate_sweep_point, [(1.0, 32)]
        )
        assert results[0].width == 1.0

