"""Rolling windowed time-series metrics on the tick cadence.

:class:`MetricsTimeline` turns cumulative fleet counters into
per-window rates and gauges: offered/admitted/shed rate, per-instance
queue depth and utilization, in-flight batch size, power draw, and the
predictive governor's forecaster level/trend when one is running.
Samples land in a bounded ring buffer (`collections.deque(maxlen=...)`),
so a million-request run holds a fixed-size timeline.

The counters come from a drained run (see :mod:`repro.obs.derive`):
the timeline is built after the engine finished, from the arena
columns every execution path writes, so it needs no checkpoint state
of its own.

Every rate divides by the observed window and every mean by its count
— all guarded, so zero-duration and zero-admitted windows report
honest ``0.0`` rows instead of ``inf``/``nan``.
"""

from __future__ import annotations

import math
from collections import deque

from ..errors import ConfigError

__all__ = ["MetricsTimeline", "check_window", "is_due", "next_boundary"]

#: Tolerance for accumulated tick-time float drift at a boundary.
_DRIFT = 1e-9


def is_due(boundary: float, now: float) -> bool:
    """Whether ``now`` has reached the sample ``boundary``."""
    return now >= boundary - _DRIFT


def next_boundary(boundary: float, now: float, window_s: float) -> float:
    """The first boundary past ``now``: a late sample (no ticks fired
    for a while) skips the quiet windows instead of advancing one."""
    while boundary <= now + _DRIFT:
        boundary += window_s
    return boundary


def check_window(window_s, what: str = "metrics window") -> None:
    """Reject a non-positive or non-finite sampling window (a NaN or
    infinite window would never reach its next tick)."""
    if not (isinstance(window_s, (int, float)) and math.isfinite(window_s)
            and window_s > 0):
        raise ConfigError(
            f"{what} must be finite and positive ({window_s})"
        )


class MetricsTimeline:
    """One fleet's metrics ring buffer, sampled every ``window_s``."""

    def __init__(self, window_s: float, maxlen: int = 4096) -> None:
        check_window(window_s)
        self.window_s = window_s
        self.maxlen = maxlen
        self.samples: deque = deque(maxlen=maxlen)
        self.next_sample_t = window_s
        self.total_samples = 0
        self._last: dict | None = None

    def due(self, now: float) -> bool:
        """Whether ``now`` has reached the next sample boundary (with a
        tolerance for accumulated tick-time float drift)."""
        return is_due(self.next_sample_t, now)

    def sample(
        self,
        now: float,
        counters: dict,
        queue_depth: list,
        active: int,
        forecast: tuple | None = None,
    ) -> None:
        """Append one window sample and advance the boundary.

        Args:
            counters: Cumulative fleet counters at ``now``: ``offered``,
                ``shed``, ``served``, ``batches``, ``energy`` (joules)
                and ``busy`` (per-instance busy seconds).
            queue_depth: Per-instance queued requests at ``now``.
            active: Instances the control plane routes to at ``now``.
            forecast: ``(level, trend)`` of a forecasting governor, or
                ``None`` when the run has no forecaster.
        """
        busy = counters["busy"]
        cumulative = dict(counters, t=now)
        last = self._last or {
            "t": 0.0,
            "offered": 0,
            "shed": 0,
            "served": 0,
            "batches": 0,
            "energy": 0.0,
            "busy": [0.0] * len(busy),
        }
        elapsed = cumulative["t"] - last["t"]
        d_offered = cumulative["offered"] - last["offered"]
        d_shed = cumulative["shed"] - last["shed"]
        d_admitted = d_offered - d_shed
        d_served = cumulative["served"] - last["served"]
        d_batches = cumulative["batches"] - last["batches"]
        d_energy = cumulative["energy"] - last["energy"]

        def rate(count: float) -> float:
            return count / elapsed if elapsed > 0 else 0.0

        last_busy = last["busy"]
        utilization = []
        for j, busy_j in enumerate(busy):
            prev = last_busy[j] if j < len(last_busy) else 0.0
            frac = rate(busy_j - prev)
            utilization.append(round(min(max(frac, 0.0), 1.0), 6))
        sample = {
            "t": now,
            "offered": d_offered,
            "admitted": d_admitted,
            "shed": d_shed,
            "offered_qps": round(rate(d_offered), 6),
            "admitted_qps": round(rate(d_admitted), 6),
            "shed_qps": round(rate(d_shed), 6),
            "queue_depth": list(queue_depth),
            "utilization": utilization,
            "active_instances": active,
            "batches": d_batches,
            "batch_size_mean": round(
                d_served / d_batches if d_batches > 0 else 0.0, 6
            ),
            "power_w": round(rate(d_energy), 6),
        }
        if forecast is not None:
            level, trend = forecast
            sample["forecast_level"] = (
                round(float(level), 6) if level is not None else None
            )
            sample["forecast_trend"] = (
                round(float(trend), 6) if trend is not None else None
            )
        self.samples.append(sample)
        self.total_samples += 1
        self._last = cumulative
        self.next_sample_t = next_boundary(
            self.next_sample_t, now, self.window_s
        )

    def to_payload(self) -> dict:
        """JSON-ready timeline: window, retained samples, and how many
        older samples the bounded buffer dropped (never silent)."""
        return {
            "window_s": self.window_s,
            "samples": list(self.samples),
            "dropped_samples": self.total_samples - len(self.samples),
        }
