"""Predictive autoscaling: act on a traffic forecast, not the backlog.

The reactive governors in :mod:`repro.control.autoscale` observe the
*consequences* of a load swing — utilization over the high-water mark,
queueing delay past the setpoint — and only then scale, so every
morning ramp of a diurnal cycle pays the scale-up warm-up out of tail
latency.  The predictive governor instead observes the *offered rate*
(arrivals counted per tick by the control hooks), smooths it with a
Holt double-exponential filter (an EWMA level plus an EWMA linear
trend), extrapolates one warm-up lead ahead, and sizes the fleet for
the rate that will hold *when the instance it powers up now becomes
useful* — capacity arrives with the traffic instead of behind it.

On the same correlated diurnal traffic this matches the reactive
utilization governor's SLO attainment at lower ramp-window p99 and no
more energy (asserted fixed-seed in
``tests/control/test_control_predict.py``): the forecast both powers
up earlier on the ramp and powers down promptly past the peak, where
band control keeps instances alive until utilization sags below the
low-water mark.
"""

from __future__ import annotations

from math import ceil

from ..errors import ConfigError
from .autoscale import Governor

__all__ = ["HoltForecaster", "PredictiveGovernor"]


class HoltForecaster:
    """Holt's linear method over a scalar rate series.

    Level and trend are exponentially weighted: after observing
    ``x_t``::

        level_t = alpha * x_t + (1 - alpha) * (level_{t-1} + trend_{t-1})
        trend_t = beta * (level_t - level_{t-1}) + (1 - beta) * trend_{t-1}

    and the ``h``-step-ahead forecast is ``level + h * trend``.  With
    ``beta = 0`` the trend stays 0 and the filter degrades to a plain
    EWMA.  The first observation initializes the level (trend 0), so
    the forecaster is usable from the second tick.
    """

    __slots__ = ("alpha", "beta", "level", "trend")

    def __init__(self, alpha: float = 0.5, beta: float = 0.2) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1] ({alpha})")
        if not 0.0 <= beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1] ({beta})")
        self.alpha = alpha
        self.beta = beta
        self.level: float | None = None
        self.trend = 0.0

    def observe(self, value: float) -> None:
        """Fold one observation into the level/trend state."""
        if self.level is None:
            self.level = float(value)
            return
        previous = self.level
        self.level = (
            self.alpha * value
            + (1.0 - self.alpha) * (previous + self.trend)
        )
        self.trend = (
            self.beta * (self.level - previous)
            + (1.0 - self.beta) * self.trend
        )

    def forecast(self, horizon_steps: float) -> float:
        """The extrapolated value ``horizon_steps`` observations ahead
        (clamped at 0 — a rate forecast cannot go negative)."""
        if self.level is None:
            return 0.0
        return max(0.0, self.level + horizon_steps * self.trend)


class PredictiveGovernor(Governor):
    """Size the fleet for the *forecast* offered rate, one warm-up ahead.

    Per tick: the arrivals counted by the control hooks since the last
    tick become a rate observation; the Holt forecast at ``now +
    warmup_s`` (the lead time — exactly how long a powered-up instance
    takes to become useful) is converted to a desired instance count
    ``ceil(rate * mean_service_s / target_util)`` and the fleet steps
    one instance toward it.  ``target_util`` is the utilization the
    sized fleet should settle at; the reactive band's midpoint is the
    natural choice, making the two governors directly comparable.
    """

    name = "predictive"

    def __init__(
        self,
        tick_s: float,
        min_instances: int,
        max_instances: int,
        warmup_s: float,
        mean_service_s: float,
        target_util: float = 0.575,
        alpha: float = 0.5,
        beta: float = 0.2,
    ) -> None:
        super().__init__(tick_s, min_instances, max_instances, warmup_s)
        if mean_service_s <= 0:
            raise ConfigError(
                f"mean_service_s must be positive ({mean_service_s})"
            )
        if not 0.0 < target_util <= 1.0:
            raise ConfigError(
                f"target_util must be in (0, 1] ({target_util})"
            )
        self.mean_service_s = mean_service_s
        self.target_util = target_util
        self.forecaster = HoltForecaster(alpha=alpha, beta=beta)
        self._arrivals = 0

    def observe_arrival(self, now: float) -> None:
        """Count one offered request (called by the arrival hook for
        every request, admitted or shed — the forecaster tracks the
        offered rate, not the post-shedding one)."""
        self._arrivals += 1

    def tick(self, fleet, now: float) -> int:
        self._window_utilization(fleet)  # keep snapshots current
        rate = self._arrivals / self.tick_s
        self._arrivals = 0
        self.forecaster.observe(rate)
        # Lead the forecast by the warm-up: the instance powered up on
        # this tick serves its first batch warmup_s from now.
        horizon = self.warmup_s / self.tick_s
        predicted = self.forecaster.forecast(horizon)
        desired = ceil(
            predicted * self.mean_service_s / self.target_util
        )
        desired = min(
            self.max_instances, max(self.min_instances, desired)
        )
        active = len(fleet.active_indices())
        if desired > active:
            return int(self._scale_up(fleet, now))
        if desired < active:
            return int(self._scale_down(fleet, now))
        return 0
