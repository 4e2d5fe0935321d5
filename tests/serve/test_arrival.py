"""Arrival processes: statistics, determinism, validation."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serve import (
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    TraceArrivals,
    make_arrivals,
)


class TestPoisson:
    def test_mean_rate(self):
        rng = np.random.default_rng(7)
        times = PoissonArrivals(100.0).times(20_000, rng)
        mean_inter = float(np.mean(np.diff(times)))
        assert mean_inter == pytest.approx(0.01, rel=0.05)

    def test_sorted_and_positive(self):
        times = PoissonArrivals(50.0).times(500, np.random.default_rng(1))
        assert np.all(times > 0)
        assert np.all(np.diff(times) >= 0)

    def test_deterministic_per_seed(self):
        a = PoissonArrivals(10.0).times(100, np.random.default_rng(5))
        b = PoissonArrivals(10.0).times(100, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigError):
            PoissonArrivals(0.0)

    def test_rejects_zero_requests(self):
        with pytest.raises(ConfigError):
            PoissonArrivals(1.0).times(0, np.random.default_rng(0))


class TestBursty:
    def test_preserves_mean_rate(self):
        rng = np.random.default_rng(11)
        proc = BurstyArrivals(1000.0, burst_factor=4.0, burst_share=0.2)
        times = proc.times(50_000, rng)
        realized = len(times) / times[-1]
        assert realized == pytest.approx(1000.0, rel=0.1)

    def test_burstier_than_poisson(self):
        """The MMPP inter-arrival CV must exceed the Poisson CV of 1."""
        rng = np.random.default_rng(13)
        proc = BurstyArrivals(1000.0, burst_factor=8.0, burst_share=0.1)
        inter = np.diff(proc.times(50_000, rng))
        cv = float(np.std(inter) / np.mean(inter))
        assert cv > 1.15

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            BurstyArrivals(100.0, burst_factor=0.5)
        with pytest.raises(ConfigError):
            BurstyArrivals(100.0, burst_share=1.5)
        with pytest.raises(ConfigError):
            BurstyArrivals(100.0, mean_dwell_s=0.0)
        # NaN compares false against any bound; inf makes the state
        # rates NaN.
        for factor in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="finite"):
                BurstyArrivals(100.0, burst_factor=factor)


class TestDiurnal:
    def test_preserves_mean_rate(self):
        rng = np.random.default_rng(3)
        proc = DiurnalArrivals(1_000.0, period_s=4.0, amplitude=0.9)
        times = proc.times(20_000, rng)
        realized = len(times) / times[-1]
        assert realized == pytest.approx(1_000.0, rel=0.1)

    def test_day_half_carries_the_load(self):
        """The phase histogram must match the modulation: the cycle
        starts at the trough, so the day half (phase 0.25-0.75) carries
        the bulk of the traffic at amplitude 0.9."""
        rng = np.random.default_rng(3)
        proc = DiurnalArrivals(1_000.0, period_s=4.0, amplitude=0.9)
        times = proc.times(20_000, rng)
        phase = (times % proc.period_s) / proc.period_s
        day = int(np.sum((phase > 0.25) & (phase < 0.75)))
        night = len(times) - day
        assert day > 2.5 * night

    def test_rate_at_trough_and_peak(self):
        proc = DiurnalArrivals(100.0, period_s=10.0, amplitude=0.5)
        assert proc.rate_at(0.0) == pytest.approx(50.0)
        assert proc.rate_at(5.0) == pytest.approx(150.0)
        assert proc.rate_at(10.0) == pytest.approx(50.0)

    def test_zero_amplitude_is_poisson_rate(self):
        rng = np.random.default_rng(9)
        times = DiurnalArrivals(500.0, amplitude=0.0).times(20_000, rng)
        inter = np.diff(times)
        cv = float(np.std(inter) / np.mean(inter))
        assert cv == pytest.approx(1.0, abs=0.05)

    def test_deterministic_per_seed(self):
        proc = DiurnalArrivals(100.0, period_s=2.0)
        a = proc.times(500, np.random.default_rng(5))
        b = proc.times(500, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            DiurnalArrivals(0.0)
        with pytest.raises(ConfigError):
            DiurnalArrivals(100.0, period_s=0.0)
        with pytest.raises(ConfigError):
            DiurnalArrivals(100.0, amplitude=1.5)
        with pytest.raises(ConfigError):
            DiurnalArrivals(100.0).times(0, np.random.default_rng(0))


class TestDiurnalFullSwing:
    """Regression: amplitude == 1.0 drives the trough rate to exactly
    0, where the thinning acceptance ``u * peak <= 0`` could still
    fire on the measure-zero draw ``u == 0.0`` — an arrival at an
    instant of zero intensity.  The dataclass now rejects exactly 1.0
    (the CLI mirrors it under the flag's own name) and 0.999 stays a
    valid, non-stalling near-quiet night."""

    def test_amplitude_one_rejected(self):
        with pytest.raises(ConfigError, match=r"\[0, 1\)"):
            DiurnalArrivals(100.0, amplitude=1.0)

    def test_amplitude_one_rejected_via_factory(self):
        with pytest.raises(ConfigError, match=r"\[0, 1\)"):
            make_arrivals("diurnal", 100.0, diurnal_amplitude=1.0)

    def test_near_one_amplitude_generates_without_stall(self):
        proc = DiurnalArrivals(
            500.0, period_s=5.0, amplitude=0.999
        )
        times = proc.times(20_000, np.random.default_rng(3))
        assert np.all(np.diff(times) >= 0)
        # The thinned process still offers its configured mean rate.
        realized = len(times) / times[-1]
        assert realized == pytest.approx(500.0, rel=0.15)

    def test_near_one_amplitude_empties_the_trough(self):
        proc = DiurnalArrivals(
            1000.0, period_s=10.0, amplitude=0.999
        )
        times = proc.times(20_000, np.random.default_rng(4))
        phase = np.mod(times, 10.0)
        # Deep night [0, P/16) + (15P/16, P): ~0.3% of a full cycle's
        # arrivals land there at amplitude 0.999.
        night = np.sum((phase < 0.625) | (phase > 9.375))
        assert night / len(times) < 0.01


class TestThinNHPP:
    def test_zero_rate_stretches_produce_no_arrivals(self):
        from repro.serve.arrival import thin_nhpp

        # Rate is 0 on [1, 2): no arrival may land there, and the
        # candidate clock must walk through without stalling.
        def rate(t):
            return 0.0 if 1.0 <= t % 2.0 < 2.0 else 200.0

        times = thin_nhpp(2_000, 200.0, rate, np.random.default_rng(8))
        phase = np.mod(times, 2.0)
        assert not np.any((phase >= 1.0) & (phase < 2.0))

    def test_validation(self):
        from repro.serve.arrival import thin_nhpp

        with pytest.raises(ConfigError):
            thin_nhpp(0, 1.0, lambda t: 1.0, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            thin_nhpp(1, 0.0, lambda t: 1.0, np.random.default_rng(0))


class TestSharedModulator:
    def _binned_correlation(self, kind: str) -> float:
        from repro.serve.arrival import SharedModulator

        mod = SharedModulator(
            kind=kind, period_s=10.0, amplitude=0.9, burst_factor=6.0,
            mean_dwell_s=0.2,
        )
        path = mod.build_path(np.random.default_rng([3, 0]))
        a = mod.fleet_times(6_000, 800.0, path, np.random.default_rng([3, 1]))
        b = mod.fleet_times(6_000, 400.0, path, np.random.default_rng([3, 2]))
        span = min(a[-1], b[-1])
        bins = np.linspace(0.0, span, 50)
        ca, _ = np.histogram(a, bins)
        cb, _ = np.histogram(b, bins)
        return float(np.corrcoef(ca, cb)[0, 1])

    @pytest.mark.parametrize("kind", ["diurnal", "burst"])
    def test_fleets_share_the_latent_swing(self, kind):
        assert self._binned_correlation(kind) > 0.8

    def test_independent_seeds_decorrelate(self):
        from repro.serve.arrival import SharedModulator

        mod = SharedModulator(kind="burst", burst_factor=6.0,
                              mean_dwell_s=0.2)
        # Two *different* latent paths: same marginal process, no
        # shared state — the correlation collapses.
        a = mod.fleet_times(
            6_000, 800.0,
            mod.build_path(np.random.default_rng([3, 0])),
            np.random.default_rng([3, 1]),
        )
        b = mod.fleet_times(
            6_000, 800.0,
            mod.build_path(np.random.default_rng([4, 0])),
            np.random.default_rng([3, 2]),
        )
        span = min(a[-1], b[-1])
        bins = np.linspace(0.0, span, 50)
        ca, _ = np.histogram(a, bins)
        cb, _ = np.histogram(b, bins)
        assert abs(float(np.corrcoef(ca, cb)[0, 1])) < 0.5

    def test_burst_path_is_query_order_invariant(self):
        from repro.serve.arrival import SharedModulator

        mod = SharedModulator(kind="burst", mean_dwell_s=0.05)
        path_a = mod.build_path(np.random.default_rng([9, 0]))
        path_b = mod.build_path(np.random.default_rng([9, 0]))
        ts = [0.01, 5.0, 0.3, 2.0, 4.99, 0.7]
        # Query far ahead first on one copy, in order on the other:
        # the lazily extended trajectory must be identical.
        ahead = [path_a(t) for t in ts]
        in_order = [path_b(t) for t in sorted(ts)]
        assert ahead == [
            in_order[sorted(ts).index(t)] for t in ts
        ]

    def test_mean_factor_is_one(self):
        from repro.serve.arrival import SharedModulator

        mod = SharedModulator(kind="burst", burst_factor=4.0,
                              burst_share=0.2, mean_dwell_s=0.05)
        path = mod.build_path(np.random.default_rng([1, 0]))
        grid = np.linspace(0.0, 50.0, 20_000)
        assert np.mean([path(t) for t in grid]) == pytest.approx(
            1.0, rel=0.15
        )

    def test_rejects_unknown_kind_and_full_swing(self):
        from repro.serve.arrival import SharedModulator

        with pytest.raises(ConfigError):
            SharedModulator(kind="sawtooth")
        with pytest.raises(ConfigError, match=r"\[0, 1\)"):
            SharedModulator(kind="diurnal", amplitude=1.0)


class TestTrace:
    def test_replays_prefix(self):
        proc = TraceArrivals((0.0, 0.5, 1.0, 2.5))
        np.testing.assert_array_equal(
            proc.times(3, np.random.default_rng(0)), [0.0, 0.5, 1.0]
        )

    def test_mean_rate(self):
        assert TraceArrivals((0.0, 1.0, 2.0)).mean_rate_qps == 1.5

    def test_rejects_unsorted_or_negative(self):
        with pytest.raises(ConfigError):
            TraceArrivals((1.0, 0.5))
        with pytest.raises(ConfigError):
            TraceArrivals((-1.0, 0.5))
        with pytest.raises(ConfigError):
            TraceArrivals(())

    def test_rejects_overrun(self):
        with pytest.raises(ConfigError):
            TraceArrivals((0.0, 1.0)).times(3, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_rejects_non_finite(self, bad):
        """NaN slips past both ordering checks (every comparison is
        False) and hung the event loop; inf ran to a NaN p99."""
        for stamps in ((0.0, bad, 1.0), (0.0, 0.5, bad)):
            with pytest.raises(ConfigError, match="finite"):
                TraceArrivals(stamps)


class TestFactory:
    def test_known_kinds(self):
        assert isinstance(make_arrivals("poisson", 10.0), PoissonArrivals)
        assert isinstance(make_arrivals("bursty", 10.0), BurstyArrivals)
        assert isinstance(
            make_arrivals("trace", 10.0, trace=(0.0, 1.0)), TraceArrivals
        )
        diurnal = make_arrivals(
            "diurnal", 10.0, diurnal_period_s=5.0, diurnal_amplitude=0.4
        )
        assert isinstance(diurnal, DiurnalArrivals)
        assert diurnal.period_s == 5.0
        assert diurnal.amplitude == 0.4

    def test_unknown_kind_and_missing_trace(self):
        with pytest.raises(ConfigError):
            make_arrivals("uniform", 10.0)
        with pytest.raises(ConfigError):
            make_arrivals("trace", 10.0)


class TestChunkedGeneration:
    """Chunked arrival generation is bit-identical to one-shot."""

    def test_poisson_iter_times_matches_times(self):
        arr = PoissonArrivals(120.0)
        for n, chunk in ((10_000, 1024), (5_000, 5_000), (777, 256)):
            one_shot = arr.times(n, np.random.default_rng(42))
            chunks = list(
                arr.iter_times(n, np.random.default_rng(42), chunk=chunk)
            )
            assert all(c.size <= chunk for c in chunks)
            assert np.array_equal(np.concatenate(chunks), one_shot)

    def test_iter_arrival_times_fallback_materializes(self):
        """Processes without a native ``iter_times`` (here: bursty)
        fall back to one-shot generation sliced into chunks."""
        from repro.serve.arrival import iter_arrival_times

        arr = BurstyArrivals(80.0, burst_factor=3.0)
        one_shot = arr.times(4_000, np.random.default_rng(7))
        chunks = list(
            iter_arrival_times(
                arr, 4_000, np.random.default_rng(7), chunk=512
            )
        )
        assert np.array_equal(np.concatenate(chunks), one_shot)

    def test_iter_arrival_times_prefers_native(self):
        from repro.serve.arrival import iter_arrival_times

        arr = PoissonArrivals(50.0)
        native = np.concatenate(
            list(arr.iter_times(2_000, np.random.default_rng(3), chunk=256))
        )
        generic = np.concatenate(
            list(
                iter_arrival_times(
                    arr, 2_000, np.random.default_rng(3), chunk=256
                )
            )
        )
        assert np.array_equal(generic, native)
