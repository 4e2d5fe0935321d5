"""Streaming quantile sketches for constant-memory latency statistics.

Exact percentile reporting retains every latency — O(n) floats, which
is what caps the PR-4 engine at ~10^5 requests per report.  This module
provides a merging t-digest (:class:`TDigest`) and the small aggregate
bundle the reports need (:class:`StreamingLatencyStats`): mean, max,
and p50/p95/p99 from O(delta) centroids regardless of stream length,
fed chunk-at-a-time by the engine's streaming fast path.

Invariants:

* **Bounded state.**  A digest never holds more than ``~2 * delta``
  centroids plus one fill buffer (``_BUFFER`` values); total memory is
  independent of how many values were added.
* **Exactness at the edges.**  ``min`` and ``max`` are tracked exactly,
  and a digest that has seen fewer than ``_BUFFER`` values answers
  quantiles *exactly* (the buffer is still intact, so it sorts and
  interpolates like ``np.percentile(..., method="linear")``: see
  :func:`percentile`).  Sketch mode therefore only approximates
  genuinely large runs.
* **Documented accuracy.**  For the latency distributions the serving
  simulations produce (unimodal, finite support), p50/p95/p99 land
  within **1% relative error** of the exact quantile at the default
  ``delta``; ``tests/serve/test_sketch.py`` property-tests this bound
  across Poisson / MMPP-bursty / diurnal traffic and synthetic
  heavy-tailed samples.

The scale function is the t-digest ``k1`` arcsine rule, which spends
centroid resolution at both tails — that is where p95/p99 live, and
where a naive equal-weight histogram sketch (or P²'s five markers)
loses precision.  Centroid merging is fully vectorized: the fresh
values are sorted and merged with the sorted centroids, bucketed by
``floor(k1(q))`` of their cumulative mid-weight quantile and aggregated
with ``np.add.reduceat``, so feeding the digest costs O(chunk log
chunk) with no per-value Python work.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["TDigest", "StreamingLatencyStats", "percentile"]


def percentile(values: np.ndarray, pct: float) -> float:
    """``float(np.percentile(values, pct))`` bit for bit for a
    non-empty, NaN-free 1-D array, without its ``np.unique`` (which
    imports ``numpy.ma``: 10+ ms of a run's start-up)."""
    n = len(values)
    virtual = (n - 1) * (pct / 100)
    if virtual >= n - 1:
        return float(np.max(values))
    lo = math.floor(virtual)
    a, b = np.partition(values, (lo, lo + 1))[lo:lo + 2].tolist()
    t = virtual - lo
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


#: Default compression: ~delta centroids; 1% relative error at p99 on
#: the distributions tested, ~16 KiB of state.
_DELTA = 500

#: Unmerged values buffered before a (vectorized) compression pass.
_BUFFER = 4096


class TDigest:
    """A merging t-digest over a stream of float64 values.

    Feed with :meth:`add` (array chunks), read with :meth:`quantile`.
    State is two centroid arrays (means, weights) bounded by the
    compression parameter ``delta``, one fill buffer, and exact
    min/max/count — flat in stream length.
    """

    __slots__ = (
        "delta",
        "count",
        "min",
        "max",
        "_means",
        "_weights",
        "_buffer",
    )

    def __init__(self, delta: int = _DELTA) -> None:
        if delta < 10:
            raise ValueError(f"delta must be >= 10 ({delta})")
        self.delta = delta
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")
        self._means = np.empty(0, dtype=np.float64)
        self._weights = np.empty(0, dtype=np.float64)
        self._buffer: list[np.ndarray] = []

    def add(self, values: np.ndarray) -> None:
        """Absorb a chunk of values (any shape; flattened)."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        self.count += values.size
        lo = float(values.min())
        hi = float(values.max())
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi
        self._buffer.append(values)
        if sum(chunk.size for chunk in self._buffer) >= _BUFFER:
            self._compress()

    def _compress(self) -> None:
        """Merge buffered values into the centroid set (vectorized).

        Only the fresh values are sorted; the (stably sorted) centroids
        are then merged in, each before the fresh values equal to it.
        That is the order a stable sort of ``[centroids, fresh]`` gives:
        every fresh value weighs 1, so ties among them are
        interchangeable (``-0.0`` and ``0.0`` aside, which latencies
        never mix), and the merged means and weights are the same
        bytes (``tests/serve/test_sketch.py`` checks this against the
        stable-``argsort`` reference in ``tests/tdigest_reference.py``).
        Centroid means can round out of order (a constant stream's
        bucket means differ in the last bit), hence their own sort.
        """
        if not self._buffer:
            return
        buffer = self._buffer
        self._buffer = []
        fresh = np.sort(
            np.concatenate(buffer) if len(buffer) > 1 else buffer[0]
        )
        nc = self._means.size
        if nc:
            order = np.argsort(self._means, kind="stable")
            centroids = self._means[order]
            at = np.searchsorted(fresh, centroids, side="left")
            at += np.arange(nc)
            means = np.empty(nc + fresh.size, dtype=np.float64)
            weights = np.ones(nc + fresh.size, dtype=np.float64)
            is_fresh = np.ones(nc + fresh.size, dtype=bool)
            means[at] = centroids
            weights[at] = self._weights[order]
            is_fresh[at] = False
            means[is_fresh] = fresh
        else:
            means = fresh
            weights = np.ones(fresh.size, dtype=np.float64)
        total = weights.sum()
        # Mid-weight cumulative quantile of each point, mapped through
        # the k1 arcsine scale; equal floor(k1) => same centroid.
        cum = np.cumsum(weights)
        q = (cum - 0.5 * weights) / total
        k = (self.delta / (2.0 * np.pi)) * np.arcsin(
            np.clip(2.0 * q - 1.0, -1.0, 1.0)
        )
        buckets = np.floor(k).astype(np.int64)
        heads = np.empty(means.size, dtype=bool)
        heads[0] = True
        np.not_equal(buckets[1:], buckets[:-1], out=heads[1:])
        starts = np.flatnonzero(heads)
        wsum = np.add.reduceat(weights, starts)
        msum = np.add.reduceat(means * weights, starts)
        self._means = msum / wsum
        self._weights = wsum

    def quantile(self, q: float) -> float:
        """The value at cumulative fraction ``q`` in ``[0, 1]``.

        Interpolates linearly between centroid means (anchored at the
        exact min/max); exact while the stream still fits the buffer.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1] ({q})")
        if self.count == 0:
            raise ValueError("quantile of an empty digest")
        if self._buffer:
            if self._weights.size == 0:
                # Small stream: the buffer holds everything — answer
                # exactly (numpy's default linear interpolation).
                values = np.concatenate(self._buffer)
                if values.size < _BUFFER:
                    return percentile(values, q * 100.0)
            self._compress()
        means = self._means
        weights = self._weights
        if means.size == 1:
            return float(means[0])
        total = weights.sum()
        target = q * total
        mid = np.cumsum(weights) - 0.5 * weights
        j = int(np.searchsorted(mid, target))
        if j == 0:
            span = mid[0]
            if span <= 0.0:
                return self.min
            frac = target / span
            return float(self.min + frac * (means[0] - self.min))
        if j == means.size:
            span = total - mid[-1]
            if span <= 0.0:
                return self.max
            frac = (target - mid[-1]) / span
            return float(means[-1] + frac * (self.max - means[-1]))
        span = mid[j] - mid[j - 1]
        frac = (target - mid[j - 1]) / span if span > 0.0 else 0.0
        return float(means[j - 1] + frac * (means[j] - means[j - 1]))


class StreamingLatencyStats:
    """The latency aggregates a :class:`ServingReport` needs, streamed.

    Bundles a :class:`TDigest` with exact running mean/max/count, so a
    report can fill ``latency_mean_s`` / ``latency_max_s`` exactly and
    the percentile fields from the sketch.
    """

    __slots__ = ("digest", "count", "total")

    def __init__(self, delta: int = _DELTA) -> None:
        self.digest = TDigest(delta)
        self.count = 0
        self.total = 0.0

    def add(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        self.count += values.size
        self.total += float(values.sum())
        self.digest.add(values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def max(self) -> float:
        return self.digest.max if self.count else 0.0

    def quantile(self, q: float) -> float:
        return self.digest.quantile(q)
