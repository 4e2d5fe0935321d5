"""The stable-``argsort`` t-digest compression: the sketch's test oracle.

:meth:`repro.serve.sketch.TDigest._compress` sorts only the fresh
values and merges the centroids in; the compression it was derived
from concatenates centroids and fresh values and sorts them all with a
stable ``argsort``.  That version lives here, outside the package, as
the reference the merge is checked against byte for byte.
"""

import numpy as np

from repro.serve.sketch import TDigest


class ReferenceTDigest(TDigest):
    """A :class:`TDigest` whose compression is the stable-``argsort``
    original; everything else is inherited."""

    __slots__ = ()

    def _compress(self) -> None:
        """Merge buffered values into the centroid set (vectorized)."""
        if not self._buffer and self._weights.size:
            return
        parts_m = [self._means] + self._buffer
        parts_w = [self._weights] + [
            np.ones(chunk.size, dtype=np.float64)
            for chunk in self._buffer
        ]
        self._buffer = []
        means = np.concatenate(parts_m)
        weights = np.concatenate(parts_w)
        if means.size == 0:
            return
        order = np.argsort(means, kind="stable")
        means = means[order]
        weights = weights[order]
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
