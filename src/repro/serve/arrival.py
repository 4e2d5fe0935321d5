"""Request arrival processes for the serving simulator.

Four traffic shapes cover the deployment stories the ROADMAP cares
about: steady user traffic (Poisson), flash-crowd burstiness (a
two-state Markov-modulated Poisson process), day/night load swings (a
sinusoidally modulated Poisson process that exercises autoscalers), and
replayed production traces.  Every process is a frozen dataclass of
primitives so arrival configurations participate in the persistent
result-cache key (:func:`repro.parallel.cache.canonical`), and every
draw goes through the caller's seeded generator, keeping simulations
bit-reproducible.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

__all__ = [
    "PoissonArrivals",
    "iter_arrival_times",
    "BurstyArrivals",
    "DiurnalArrivals",
    "TraceArrivals",
    "SharedModulator",
    "make_arrivals",
    "thin_nhpp",
    "capture_rng_state",
    "restore_rng",
]

_INF = float("inf")


def capture_rng_state(rng: np.random.Generator) -> dict:
    """The generator's exact bit-generator state, as plain picklable
    values (nested dicts of ints for PCG64) — what checkpoint payloads
    carry so arrival/sampling substreams resume at the exact position
    they paused at."""
    return rng.bit_generator.state


def restore_rng(state: dict) -> np.random.Generator:
    """A fresh generator positioned exactly at a captured state."""
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def thin_nhpp(
    n: int,
    peak_rate: float,
    rate_at,
    rng: np.random.Generator,
) -> np.ndarray:
    """Lewis-Shedler thinning: ``n`` arrivals of a non-homogeneous
    Poisson process with instantaneous rate ``rate_at(t)``.

    Candidates arrive Poisson at ``peak_rate`` (which must dominate
    ``rate_at`` everywhere) and each is accepted with probability
    ``rate_at(t) / peak_rate`` — exact, and bit-reproducible for a
    seeded generator.  Candidate time always advances, so the loop
    cannot stall even through a zero-rate stretch; a non-positive rate
    is rejected outright (``rng.random() * peak <= 0`` would otherwise
    accept the measure-zero draw ``random() == 0.0``, placing an
    arrival at an instant of zero intensity).
    """
    if n < 1:
        raise ConfigError(f"need at least one arrival ({n})")
    if not 0 < peak_rate < _INF:
        raise ConfigError(
            f"peak_rate must be finite and positive ({peak_rate})"
        )
    out = np.empty(n)
    t = 0.0
    produced = 0
    while produced < n:
        t += rng.exponential(1.0 / peak_rate)
        lam = rate_at(t)
        if lam > 0.0 and rng.random() * peak_rate <= lam:
            out[produced] = t
            produced += 1
    return out


@dataclass(frozen=True)
class PoissonArrivals:
    """Memoryless arrivals at a constant offered rate.

    Attributes:
        rate_qps: Mean arrival rate (requests per second).
    """

    rate_qps: float

    def __post_init__(self) -> None:
        if not 0 < self.rate_qps < _INF:
            raise ConfigError(
                f"rate_qps must be finite and positive ({self.rate_qps})"
            )

    @property
    def mean_rate_qps(self) -> float:
        return self.rate_qps

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` arrival timestamps starting at t=0 (exclusive)."""
        if n < 1:
            raise ConfigError(f"need at least one arrival ({n})")
        return np.cumsum(rng.exponential(1.0 / self.rate_qps, n))

    def iter_times(
        self, n: int, rng: np.random.Generator, chunk: int
    ):
        """Yield the same ``n`` timestamps as :meth:`times`, in chunks.

        Bit-identical to the one-shot array: ``rng.exponential`` draws
        chunk-by-chunk consume the bit stream exactly like one big
        draw, and ``np.cumsum`` is a sequential left fold, so adding
        the running carry to each chunk's first gap reproduces the
        full cumulative sum float-for-float.  Memory is O(chunk).
        """
        if n < 1:
            raise ConfigError(f"need at least one arrival ({n})")
        scale = 1.0 / self.rate_qps
        carry = 0.0
        produced = 0
        while produced < n:
            m = min(chunk, n - produced)
            gaps = rng.exponential(scale, m)
            gaps[0] += carry
            times = np.cumsum(gaps)
            carry = float(times[-1])
            produced += m
            yield times


@dataclass(frozen=True)
class BurstyArrivals:
    """Two-state Markov-modulated Poisson process (MMPP-2).

    The process alternates between a *base* state and a *burst* state
    with exponentially distributed dwell times; within each state
    arrivals are Poisson at that state's rate.  The mean rate is the
    dwell-weighted average, so a ``burst_factor`` of 4 with equal dwell
    shares keeps the same offered load as Poisson while concentrating
    it into bursts (higher inter-arrival CV, fatter latency tails).

    Attributes:
        rate_qps: Dwell-weighted mean rate.
        burst_factor: Burst-state rate multiplier over the base state.
        burst_share: Fraction of time spent in the burst state.
        mean_dwell_s: Mean length of one burst period.
    """

    rate_qps: float
    burst_factor: float = 4.0
    burst_share: float = 0.2
    mean_dwell_s: float = 0.05

    def __post_init__(self) -> None:
        if not 0 < self.rate_qps < _INF:
            raise ConfigError(
                f"rate_qps must be finite and positive ({self.rate_qps})"
            )
        if not 1 <= self.burst_factor < _INF:
            raise ConfigError(
                f"burst_factor must be finite and >= 1 "
                f"({self.burst_factor})"
            )
        if not 0 < self.burst_share < 1:
            raise ConfigError(
                f"burst_share must be in (0, 1) ({self.burst_share})"
            )
        if not 0 < self.mean_dwell_s < _INF:
            raise ConfigError(
                f"mean_dwell_s must be finite and positive "
                f"({self.mean_dwell_s})"
            )

    @property
    def mean_rate_qps(self) -> float:
        return self.rate_qps

    def _state_rates(self) -> tuple[float, float]:
        """(base_rate, burst_rate) preserving the requested mean."""
        # mean = base*(1-share) + base*factor*share
        base = self.rate_qps / (
            (1 - self.burst_share) + self.burst_factor * self.burst_share
        )
        return base, base * self.burst_factor

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise ConfigError(f"need at least one arrival ({n})")
        base_rate, burst_rate = self._state_rates()
        base_dwell = (
            self.mean_dwell_s * (1 - self.burst_share) / self.burst_share
        )
        out = np.empty(n)
        t = 0.0
        in_burst = rng.random() < self.burst_share
        state_end = t + rng.exponential(
            self.mean_dwell_s if in_burst else base_dwell
        )
        produced = 0
        while produced < n:
            rate = burst_rate if in_burst else base_rate
            dt = rng.exponential(1.0 / rate)
            if t + dt <= state_end:
                # Poisson is memoryless: the draw is valid inside the
                # current state's remaining dwell.
                t += dt
                out[produced] = t
                produced += 1
            else:
                t = state_end
                in_burst = not in_burst
                state_end = t + rng.exponential(
                    self.mean_dwell_s if in_burst else base_dwell
                )
        return out


@dataclass(frozen=True)
class DiurnalArrivals:
    """Day/night traffic: a sinusoidally modulated Poisson process.

    The instantaneous rate swings through one full cycle per
    ``period_s``::

        lambda(t) = rate_qps * (1 - amplitude * cos(2 pi t / period_s))

    starting at the *trough* (night) so a simulation opens on a quiet
    fleet, ramps through the morning to the midday peak at
    ``period_s / 2``, and falls back — the traffic shape that drives an
    autoscaler through grow-and-shrink cycles.  Arrivals are generated
    by Lewis-Shedler thinning: candidate arrivals at the peak rate,
    each accepted with probability ``lambda(t) / lambda_max``, which
    keeps the process exact and bit-reproducible for a seeded
    generator.  The dwell-weighted mean rate is ``rate_qps``.

    Attributes:
        rate_qps: Mean arrival rate over a full cycle.
        period_s: Length of one day/night cycle in simulated seconds.
        amplitude: Peak-to-mean swing in [0, 1): the peak rate is
            ``(1 + amplitude) * rate_qps`` and the trough
            ``(1 - amplitude) * rate_qps`` (0 = plain Poisson).
            Exactly 1.0 is rejected: it drives the trough rate to
            exactly zero, where the thinning acceptance test
            ``u * peak <= 0`` could still fire on the measure-zero
            draw ``u == 0.0`` — an arrival at an instant of zero
            intensity.  Model a near-dead night with 0.999 instead.
    """

    rate_qps: float
    period_s: float = 60.0
    amplitude: float = 0.8

    def __post_init__(self) -> None:
        if not 0 < self.rate_qps < _INF:
            raise ConfigError(
                f"rate_qps must be finite and positive ({self.rate_qps})"
            )
        if not 0 < self.period_s < _INF:
            raise ConfigError(
                f"period_s must be finite and positive ({self.period_s})"
            )
        if not 0.0 <= self.amplitude < 1.0:
            raise ConfigError(
                f"amplitude must be in [0, 1) ({self.amplitude}); "
                "amplitude 1.0 drives the trough rate to exactly 0 — "
                "use 0.999 for a near-quiet night"
            )

    @property
    def mean_rate_qps(self) -> float:
        return self.rate_qps

    def rate_at(self, t: float) -> float:
        """The instantaneous offered rate at simulation time ``t``."""
        omega = 2.0 * np.pi / self.period_s
        return self.rate_qps * (
            1.0 - self.amplitude * np.cos(omega * t)
        )

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        peak = self.rate_qps * (1.0 + self.amplitude)
        return thin_nhpp(n, peak, self.rate_at, rng)


class _BurstPath:
    """One sampled trajectory of the MMPP-2 modulating state.

    Dwell segments are drawn lazily, strictly in time order, from the
    path's own generator — so the trajectory is a pure function of that
    generator's seed no matter which fleet queries it first, or how far
    apart the fleets' candidate clocks run.
    """

    __slots__ = (
        "_rng", "_base_factor", "_burst_factor", "_mean_dwell",
        "_base_dwell", "_ends", "_factors", "_horizon",
    )

    def __init__(
        self,
        rng: np.random.Generator,
        burst_factor: float,
        burst_share: float,
        mean_dwell_s: float,
    ) -> None:
        # Factors preserve a dwell-weighted mean of 1 (same algebra as
        # BurstyArrivals._state_rates with rate_qps = 1).
        base = 1.0 / (
            (1.0 - burst_share) + burst_factor * burst_share
        )
        self._base_factor = base
        self._burst_factor = base * burst_factor
        self._mean_dwell = mean_dwell_s
        self._base_dwell = mean_dwell_s * (1.0 - burst_share) / burst_share
        self._rng = rng
        in_burst = rng.random() < burst_share
        first_end = rng.exponential(
            mean_dwell_s if in_burst else self._base_dwell
        )
        self._ends = [first_end]
        self._factors = [
            self._burst_factor if in_burst else self._base_factor
        ]
        self._horizon = first_end

    def _extend_to(self, t: float) -> None:
        while self._horizon <= t:
            in_burst = self._factors[-1] == self._base_factor
            dwell = self._rng.exponential(
                self._mean_dwell if in_burst else self._base_dwell
            )
            self._horizon += dwell
            self._ends.append(self._horizon)
            self._factors.append(
                self._burst_factor if in_burst else self._base_factor
            )

    def factor(self, t: float) -> float:
        """The modulating factor at absolute time ``t`` (t >= 0)."""
        self._extend_to(t)
        # Queries advance nearly monotonically within one fleet but
        # restart at ~0 for the next fleet, so bisect instead of
        # remembering a cursor.
        return self._factors[bisect_right(self._ends, t)]


@dataclass(frozen=True)
class SharedModulator:
    """The latent rate factor a group of correlated fleets shares.

    Multi-fleet traffic is correlated through one modulating factor
    ``m(t)`` with dwell-weighted mean 1: fleet ``k`` sees instantaneous
    rate ``rate_k * m(t)``, realized by Lewis-Shedler thinning on an
    *independent substream* of the scenario's master seed — so a
    regional diurnal swing or burst hits every fleet at the same
    simulated instant while the fleets' arrival jitter stays
    independent.

    Attributes:
        kind: ``"diurnal"`` (deterministic day/night sinusoid, trough
            at t=0) or ``"burst"`` (one sampled MMPP-2 state path).
        period_s / amplitude: Diurnal cycle length and swing
            (amplitude in [0, 1), as in :class:`DiurnalArrivals`).
        burst_factor / burst_share / mean_dwell_s: MMPP-2 parameters
            (as in :class:`BurstyArrivals`).
    """

    kind: str = "diurnal"
    period_s: float = 60.0
    amplitude: float = 0.8
    burst_factor: float = 4.0
    burst_share: float = 0.2
    mean_dwell_s: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in ("diurnal", "burst"):
            raise ConfigError(
                f"unknown modulator kind {self.kind!r} "
                "(known: diurnal, burst)"
            )
        if self.kind == "diurnal":
            # Reuse the diurnal validation (incl. the amplitude==1.0
            # zero-trough rejection) without generating anything.
            DiurnalArrivals(
                1.0, period_s=self.period_s, amplitude=self.amplitude
            )
        else:
            BurstyArrivals(
                1.0,
                burst_factor=self.burst_factor,
                burst_share=self.burst_share,
                mean_dwell_s=self.mean_dwell_s,
            )

    def peak_factor(self) -> float:
        """An upper bound on ``m(t)``, for the thinning candidate rate."""
        if self.kind == "diurnal":
            return 1.0 + self.amplitude
        base = 1.0 / (
            (1.0 - self.burst_share)
            + self.burst_factor * self.burst_share
        )
        return base * self.burst_factor

    def build_path(self, rng: np.random.Generator):
        """Materialize one trajectory: a callable ``m(t)``.

        Diurnal modulation is a deterministic sinusoid (``rng`` is
        untouched); the burst path consumes ``rng`` — pass a substream
        reserved for the latent state so fleet substreams stay
        independent of it.
        """
        if self.kind == "diurnal":
            omega = 2.0 * np.pi / self.period_s
            amplitude = self.amplitude

            def factor(t: float) -> float:
                return 1.0 - amplitude * np.cos(omega * t)

            return factor
        return _BurstPath(
            rng,
            self.burst_factor,
            self.burst_share,
            self.mean_dwell_s,
        ).factor

    def fleet_times(
        self,
        n: int,
        rate_qps: float,
        path,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """``n`` arrivals for one fleet at mean rate ``rate_qps``,
        thinned against the shared path on the fleet's own substream."""
        if not 0 < rate_qps < _INF:
            raise ConfigError(
                f"rate_qps must be finite and positive ({rate_qps})"
            )
        peak = rate_qps * self.peak_factor()

        def rate_at(t: float) -> float:
            return rate_qps * path(t)

        return thin_nhpp(n, peak, rate_at, rng)


@dataclass(frozen=True)
class TraceArrivals:
    """Replay of an explicit timestamp trace.

    Attributes:
        timestamps_s: Arrival times in seconds, non-decreasing from 0.
    """

    timestamps_s: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.timestamps_s:
            raise ConfigError("trace must contain at least one timestamp")
        arr = np.asarray(self.timestamps_s, dtype=np.float64)
        # NaN compares False both ways, so the ordering checks below
        # would let it through (and a NaN or infinite arrival hangs the
        # event loop or poisons every percentile).
        if not np.all(np.isfinite(arr)):
            raise ConfigError("trace timestamps must be finite numbers")
        if np.any(arr < 0) or np.any(np.diff(arr) < 0):
            raise ConfigError(
                "trace timestamps must be non-negative and sorted"
            )

    @property
    def mean_rate_qps(self) -> float:
        span = self.timestamps_s[-1]
        if span <= 0:
            return float(len(self.timestamps_s))
        return len(self.timestamps_s) / span

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The first ``n`` trace entries (the trace bounds ``n``)."""
        if not 1 <= n <= len(self.timestamps_s):
            raise ConfigError(
                f"trace has {len(self.timestamps_s)} arrivals, "
                f"requested {n}"
            )
        return np.asarray(self.timestamps_s[:n], dtype=np.float64)


def make_arrivals(
    kind: str,
    rate_qps: float,
    burst_factor: float = 4.0,
    trace: tuple[float, ...] | None = None,
    diurnal_period_s: float = 60.0,
    diurnal_amplitude: float = 0.8,
):
    """Arrival-process factory keyed by CLI name.

    Args:
        kind: ``"poisson"``, ``"bursty"``, ``"diurnal"``, or
            ``"trace"``.
        rate_qps: Offered rate (ignored for traces).
        burst_factor: Burst multiplier for the bursty process.
        trace: Timestamps for ``kind="trace"``.
        diurnal_period_s: Day/night cycle length for ``"diurnal"``.
        diurnal_amplitude: Peak-to-mean swing for ``"diurnal"``.
    """
    if kind == "poisson":
        return PoissonArrivals(rate_qps)
    if kind == "bursty":
        return BurstyArrivals(rate_qps, burst_factor=burst_factor)
    if kind == "diurnal":
        return DiurnalArrivals(
            rate_qps,
            period_s=diurnal_period_s,
            amplitude=diurnal_amplitude,
        )
    if kind == "trace":
        if trace is None:
            raise ConfigError("trace arrivals need timestamps")
        return TraceArrivals(tuple(float(t) for t in trace))
    raise ConfigError(
        f"unknown arrival process {kind!r} "
        "(known: poisson, bursty, diurnal, trace)"
    )


def iter_arrival_times(arrivals, n: int, rng, chunk: int):
    """Chunked view of an arrival process for streaming consumers.

    Processes that can generate incrementally (``iter_times``) do so
    with O(chunk) memory; the rest materialize once via ``times`` and
    are yielded in slices, so callers get a uniform chunk iterator
    either way.  Currently only Poisson streams natively — the MMPP
    and diurnal thinning constructions need the full horizon.
    """
    native = getattr(arrivals, "iter_times", None)
    if native is not None:
        yield from native(n, rng, chunk)
        return
    times = arrivals.times(n, rng)
    for s in range(0, len(times), chunk):
        yield times[s : s + chunk]
