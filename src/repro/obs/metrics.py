"""Windowed time-series metrics from cumulative counters.

:func:`window_samples` turns a fleet's cumulative counters at its
sample times into per-window rates and gauges — offered/admitted/shed
rate, per-instance queue depth and utilization, in-flight batch size,
power draw, the predictive governor's forecaster level/trend — in
whole-column passes: deltas by shifted subtraction, guarded divisions,
``round(x, 6)`` bit for bit (:func:`~repro.obs.trace._rounded`).  A
timeline keeps its newest :data:`MAX_SAMPLES` samples and counts the
older ones it dropped, so a million-request run reports a fixed size.
The counters come from a drained run's columns
(:mod:`repro.obs.derive`), so no checkpoint holds metrics state;
:func:`is_due`/:func:`next_boundary` are the cadence a governed run's
:class:`~repro.obs.governor.GovernorObserver` samples at its ticks.

Zero-duration and zero-batch windows report honest ``0.0`` rates and
means instead of ``inf``/``nan``.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError
from .trace import _rounded

__all__ = [
    "MAX_SAMPLES", "check_window", "is_due", "next_boundary", "window_samples"
]

#: Samples a timeline keeps (the newest); older ones are only counted.
MAX_SAMPLES = 4096

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


def _round6(values: np.ndarray) -> np.ndarray:
    return _rounded(values.ravel(), 6).reshape(values.shape)


def window_samples(
    t: np.ndarray,
    counters: dict,
    queue_depth: np.ndarray,
    active,
    forecast=None,
) -> list[dict]:
    """One sample dict per window ending at ``t[1:]``.

    ``t`` leads with the previous sample's time (``0.0`` before the
    first); ``counters`` holds the cumulative ``offered``, ``shed``,
    ``served``, ``batches``, ``energy`` (joules) and per-instance
    ``busy`` seconds (one column each) at every ``t`` — zeros in the
    leading row when there is no earlier sample.  ``queue_depth`` has
    one row per sample, ``active`` the routed-to instance count (one
    per sample, or one for all), and ``forecast`` a forecasting
    governor's ``(level, trend)`` per sample (``None`` without one).
    """
    elapsed = np.diff(t)
    delta = {
        name: np.diff(values, axis=0) for name, values in counters.items()
    }

    def rate(count: np.ndarray) -> np.ndarray:
        span = elapsed if count.ndim == 1 else elapsed[:, None]
        return np.divide(
            count, span, out=np.zeros(count.shape), where=span > 0
        )

    offered, shed = delta["offered"], delta["shed"]
    admitted = offered - shed
    batches = delta["batches"]
    columns = {
        "t": t[1:],
        "offered": offered,
        "admitted": admitted,
        "shed": shed,
        "offered_qps": _round6(rate(offered)),
        "admitted_qps": _round6(rate(admitted)),
        "shed_qps": _round6(rate(shed)),
        "queue_depth": queue_depth,
        "utilization": _round6(
            np.minimum(np.maximum(rate(delta["busy"]), 0.0), 1.0)
        ),
        "active_instances": np.broadcast_to(active, elapsed.shape),
        "batches": batches,
        "batch_size_mean": _round6(
            np.divide(
                delta["served"],
                batches,
                out=np.zeros(batches.shape),
                where=batches > 0,
            )
        ),
        "power_w": _round6(rate(delta["energy"])),
    }
    keys = list(columns)
    samples = [
        dict(zip(keys, row))
        for row in zip(*(column.tolist() for column in columns.values()))
    ]
    for sample, pair in zip(samples, forecast or ()):
        if pair is not None:
            sample["forecast_level"], sample["forecast_trend"] = (
                None if v is None else round(float(v), 6) for v in pair
            )
    return samples
