"""Streaming sketch accuracy and the exact-mode regression guarantee.

Three tiers, matching the bound documented in ``repro.serve.sketch``:

1. :class:`~repro.serve.sketch.TDigest` against ``np.percentile`` on
   raw synthetic streams (heavy-tailed, bimodal, uniform) — p50/p95/p99
   within 1% relative error once the stream outgrows the exact buffer.
2. ``simulate(stats="sketch")`` against ``simulate(stats="exact")`` on
   the *same physics* (non-streaming sketch path): percentile report
   fields within the documented bound, mean/max exact.
3. The streaming round-robin path across Poisson / bursty / diurnal
   traffic: a different (chunked) RNG stream, so the comparison is
   distributional — sketched percentiles of the run's own latencies
   stay within the bound of that run's exact percentiles.

Tier-0 regression: ``stats="exact"`` must remain bit-for-bit the PR-4
behaviour — full latency retention and ``np.percentile`` — which the
parity goldens in ``test_engine_parity.py`` already pin; here we assert
the sketch never silently replaces it.

The digest's sort-and-merge compression is pinned byte for byte against
the stable-``argsort`` original kept in ``tests/tdigest_reference.py``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import ServingScenario, simulate
from repro.serve.sketch import (
    _BUFFER,
    StreamingLatencyStats,
    TDigest,
    percentile,
)
from tdigest_reference import ReferenceTDigest

#: Documented accuracy bound (relative error) for p50/p95/p99.
REL_ERR = 0.01


def _rel_err(approx, exact):
    if exact == 0.0:
        return abs(approx)
    return abs(approx - exact) / abs(exact)


class TestTDigest:
    @pytest.mark.parametrize(
        "name,sampler",
        [
            ("lognormal", lambda rng, n: rng.lognormal(0.0, 1.0, n)),
            ("exponential", lambda rng, n: rng.exponential(5.0, n)),
            ("uniform", lambda rng, n: rng.uniform(2.0, 9.0, n)),
        ],
    )
    def test_quantiles_within_documented_bound(self, name, sampler):
        rng = np.random.default_rng(7)
        values = sampler(rng, 200_000)
        digest = TDigest()
        for chunk in np.array_split(values, 37):  # uneven feed sizes
            digest.add(chunk)
        for pct in (50.0, 95.0, 99.0):
            exact = float(np.percentile(values, pct))
            approx = digest.quantile(pct / 100.0)
            assert _rel_err(approx, exact) <= REL_ERR, (
                f"{name} p{pct:g}: sketch {approx} vs exact {exact}"
            )

    def test_bimodal_tails_within_bound(self):
        """A bimodal mixture: the tail quantiles (where the digest
        spends its resolution) hold the bound even though the median
        sits in the density gap between modes, where *any* interpolating
        summary is ill-conditioned — that case is outside the documented
        (unimodal) bound, so only p95/p99 are pinned here."""
        rng = np.random.default_rng(13)
        values = np.concatenate(
            [
                rng.normal(10.0, 1.0, 100_000),
                rng.normal(50.0, 5.0, 100_000),
            ]
        )
        digest = TDigest()
        for chunk in np.array_split(values, 23):
            digest.add(chunk)
        for pct in (95.0, 99.0):
            exact = float(np.percentile(values, pct))
            approx = digest.quantile(pct / 100.0)
            assert _rel_err(approx, exact) <= REL_ERR, (pct, approx, exact)

    def test_exact_below_buffer(self):
        """Streams smaller than the fill buffer answer *exactly*."""
        rng = np.random.default_rng(3)
        values = rng.lognormal(0.0, 2.0, _BUFFER - 1)
        digest = TDigest()
        digest.add(values[:1000])
        digest.add(values[1000:])
        for pct in (0.0, 12.5, 50.0, 95.0, 99.0, 100.0):
            assert digest.quantile(pct / 100.0) == float(
                np.percentile(values, pct)
            )

    def test_min_max_count_exact(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0.0, 1.0, 50_000)
        digest = TDigest()
        digest.add(values)
        assert digest.count == values.size
        assert digest.min == float(values.min())
        assert digest.max == float(values.max())
        assert digest.quantile(0.0) == float(values.min())
        assert digest.quantile(1.0) == float(values.max())

    def test_bounded_state(self):
        """Centroid count stays flat as the stream grows 100x."""
        rng = np.random.default_rng(11)
        digest = TDigest()
        sizes = []
        for _ in range(100):
            digest.add(rng.exponential(1.0, 10_000))
            sizes.append(digest._means.size + sum(
                c.size for c in digest._buffer
            ))
        assert max(sizes[10:]) <= _BUFFER + 2 * digest.delta

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            TDigest(delta=3)
        digest = TDigest()
        with pytest.raises(ValueError):
            digest.quantile(0.5)  # empty
        digest.add(np.ones(4))
        with pytest.raises(ValueError):
            digest.quantile(1.5)


def _same_state(digest, reference):
    assert digest.count == reference.count
    assert digest.min == reference.min and digest.max == reference.max
    assert digest._means.tobytes() == reference._means.tobytes()
    assert digest._weights.tobytes() == reference._weights.tobytes()


#: Constants whose centroid means round out of order (a bucket's
#: ``sum(c * w) / sum(w)`` differs from ``c`` in the last bit).
_CONSTANTS = (0.1, 1 / 3, 0.7, 1e-3, 2.5e-4)


class TestCompressMatchesReference:
    """Sort-and-merge compression leaves the same centroid bytes as
    the stable ``argsort`` of ``[centroids, fresh]``, after every add
    and every ``quantile()``."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_same_centroids_after_every_operation(self, data):
        digest = TDigest()
        reference = ReferenceTDigest()
        constant = data.draw(st.sampled_from(_CONSTANTS), label="constant")
        for _ in range(data.draw(st.integers(1, 8), label="operations")):
            if digest.count and data.draw(st.booleans(), label="query"):
                q = data.draw(st.floats(0.0, 1.0), label="q")
                assert digest.quantile(q) == reference.quantile(q)
                _same_state(digest, reference)
                continue
            # Sizes below, at and just past the fill buffer's edge, or
            # free (up to three buffers' worth in one add).
            buffered = sum(chunk.size for chunk in digest._buffer)
            edge = data.draw(st.sampled_from([-1, 0, 1, None]), label="edge")
            if edge is None:
                size = data.draw(st.integers(1, 3 * _BUFFER), label="size")
            else:
                size = max(1, _BUFFER - buffered + edge)
            kind = data.draw(
                st.sampled_from(["duplicates", "centroids", "constant",
                                 "spread"]),
                label="kind",
            )
            rng = np.random.default_rng(
                data.draw(st.integers(0, 2**32 - 1), label="seed")
            )
            if kind == "duplicates":
                pool = rng.lognormal(-6.0, 0.7, int(rng.integers(1, 9)))
                values = rng.choice(pool, size)
            elif kind == "centroids" and digest._means.size:
                # Fresh values equal to current centroid means.
                pool = np.concatenate(
                    (digest._means, rng.lognormal(-6.0, 0.7, 4))
                )
                values = rng.choice(pool, size)
            elif kind == "constant":
                values = np.full(size, constant)
            else:
                values = rng.lognormal(-6.0, 0.7, size)
            digest.add(values)
            reference.add(values)
            _same_state(digest, reference)

    @pytest.mark.parametrize("constant", _CONSTANTS)
    def test_constant_stream(self, constant):
        digest = TDigest()
        reference = ReferenceTDigest()
        for size in (_BUFFER - 1, 1, _BUFFER, 3 * _BUFFER + 7, 5):
            digest.add(np.full(size, constant))
            reference.add(np.full(size, constant))
            _same_state(digest, reference)
        assert digest.quantile(0.5) == reference.quantile(0.5)
        _same_state(digest, reference)
        # The case the centroid sort exists for.
        means = digest._means
        if constant == 0.1:
            assert np.any(means[1:] < means[:-1])


class TestStreamingLatencyStats:
    def test_mean_and_max_are_exact(self):
        rng = np.random.default_rng(9)
        values = rng.lognormal(0.0, 1.0, 30_000)
        stats = StreamingLatencyStats()
        # Same split => same sequential accumulation order.
        chunks = np.array_split(values, 11)
        for chunk in chunks:
            stats.add(chunk)
        expected = 0.0
        for chunk in chunks:
            expected += float(chunk.sum())
        assert stats.count == values.size
        assert stats.total == expected
        assert stats.max == float(values.max())


class TestSimulateSketchMode:
    def test_same_physics_sketch_matches_exact(self):
        """Non-streaming sketch (least-loaded): identical schedule,
        percentiles within the documented bound, mean/max exact."""
        base = ServingScenario(
            requests=20_000, seed=23, policy="least-loaded"
        )
        exact = simulate(base)
        sketch = simulate(dataclasses.replace(base, stats="sketch"))
        assert sketch.requests == exact.requests
        assert sketch.sustained_qps == exact.sustained_qps
        assert sketch.latency_mean_s == exact.latency_mean_s
        assert sketch.latency_max_s == exact.latency_max_s
        for field in ("latency_p50_s", "latency_p95_s", "latency_p99_s"):
            a = getattr(sketch, field)
            e = getattr(exact, field)
            assert _rel_err(a, e) <= REL_ERR, (field, a, e)

    @pytest.mark.parametrize("arrival", ["poisson", "bursty", "diurnal"])
    def test_streaming_round_robin_within_bound(self, arrival):
        """The chunked round-robin path, across traffic shapes.

        Streaming draws arrivals and models chunk-at-a-time, so its
        request stream differs from exact mode at the same seed and a
        point-for-point comparison is impossible.  The comparison is
        distributional instead: the sketched percentiles must track
        exact mode's percentiles of statistically identical traffic
        within a loose (5x) multiple of the point bound.
        """
        base = ServingScenario(
            requests=30_000,
            seed=31,
            policy="round-robin",
            arrival=arrival,
            max_wait_ms=10.0,
        )
        exact = simulate(base)
        sketch = simulate(dataclasses.replace(base, stats="sketch"))
        assert sketch.requests == exact.requests
        for field in ("latency_p50_s", "latency_p95_s", "latency_p99_s"):
            a = getattr(sketch, field)
            e = getattr(exact, field)
            assert _rel_err(a, e) <= 5 * REL_ERR, (field, a, e)

    def test_streaming_small_run_percentiles_exact(self):
        """Below the digest buffer (and one arrival chunk), streaming
        sketch mode reproduces exact mode's percentile/max/wait fields
        *exactly*: single-chunk generation keeps the RNG stream
        identical and the un-compressed digest answers exactly.  (The
        mean may differ in the last ulp — latencies are summed in
        completion order rather than index order.)"""
        base = ServingScenario(
            requests=3_000, seed=19, policy="round-robin", max_wait_ms=10.0
        )
        exact = simulate(base)
        sketch = simulate(dataclasses.replace(base, stats="sketch"))
        for field in (
            "latency_p50_s",
            "latency_p95_s",
            "latency_p99_s",
            "latency_max_s",
            "mean_wait_s",
            "sustained_qps",
            "mean_batch_size",
            "setups",
        ):
            assert getattr(sketch, field) == getattr(exact, field), field
        assert sketch.latency_mean_s == pytest.approx(
            exact.latency_mean_s, rel=1e-12
        )

    def test_exact_mode_retains_full_percentile_semantics(self):
        """Tier-0 regression: exact mode is still full retention +
        ``np.percentile`` (the PR-4 semantics the goldens pin)."""
        scenario = ServingScenario(requests=5_000, seed=17)
        report = simulate(scenario)
        again = simulate(dataclasses.replace(scenario))
        assert report.latency_p99_s == again.latency_p99_s
        assert report.latency_p50_s <= report.latency_p95_s
        assert report.latency_p95_s <= report.latency_p99_s
        assert report.latency_p99_s <= report.latency_max_s


class TestExactPercentile:
    """``sketch.percentile`` is ``np.percentile`` bit for bit (it only
    skips numpy's ``np.unique``, which imports ``numpy.ma``)."""

    @given(
        values=st.lists(
            st.floats(0.0, 10.0, allow_nan=False, width=64),
            min_size=1,
            max_size=60,
        ),
        pct=st.one_of(
            st.sampled_from([0, 50, 95, 99, 99.9, 100]),
            st.floats(0.0, 100.0),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_numpy(self, values, pct):
        values = np.array(values)
        assert percentile(values, pct) == float(np.percentile(values, pct))

    def test_latency_sized_input(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(-6.0, 0.7, size=10_001)
        for pct in (50, 95, 99, 99.99):
            assert percentile(values, pct) == float(
                np.percentile(values, pct)
            )
