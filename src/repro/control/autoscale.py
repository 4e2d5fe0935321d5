"""Autoscaling governors: the control loop over the serving fleet.

A governor is evaluated at a fixed tick inside the event loop and takes
at most one action per tick — powering an instance up or down, or
re-pointing the fleet's DVFS level — so the control dynamics stay
observable and deterministic.  Scale-up pays a warm-up modeled as a
weight reload (the instance is busy, and burning busy power, for the
mix's mean model-switch time before it serves its first batch);
scale-down drains: the instance stops receiving traffic but finishes
its queue before its powered interval closes.

Three governors ship:

* **utilization** — classic band control on the fleet's busy fraction
  over the last tick window: above the high-water mark, add an
  instance; below the low-water mark, retire one.
* **queue-delay** — a queueing-model signal: the mean pending work per
  active instance *is* the expected queueing delay of the next arrival,
  so the governor compares it to a target delay directly.  Reacts to
  backlog before utilization saturates.
* **dvfs** — the same band signal, but instead of changing the fleet
  size it walks every active instance up and down a voltage ladder:
  overload buys frequency with V^2 energy cost, slack gives it back.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..power.dvfs import DVFSModel, OperatingPoint
from ..serve.fleet import Fleet
from .hetero import apply_operating_point

__all__ = [
    "Governor",
    "UtilizationBandGovernor",
    "QueueDelayGovernor",
    "DVFSGovernor",
    "GOVERNORS",
    "make_governor",
]

_INF = float("inf")


class Governor:
    """Base control loop: observe the fleet, take at most one action."""

    name = "base"

    def __init__(
        self,
        tick_s: float,
        min_instances: int,
        max_instances: int,
        warmup_s: float,
    ) -> None:
        if tick_s <= 0:
            raise ConfigError(f"tick_s must be positive ({tick_s})")
        if min_instances < 1:
            raise ConfigError(
                f"min_instances must be >= 1 ({min_instances})"
            )
        if max_instances < min_instances:
            raise ConfigError(
                f"max_instances ({max_instances}) must be >= "
                f"min_instances ({min_instances})"
            )
        if warmup_s < 0:
            raise ConfigError(f"warmup_s must be >= 0 ({warmup_s})")
        self.tick_s = tick_s
        self.min_instances = min_instances
        self.max_instances = max_instances
        self.warmup_s = warmup_s
        self._busy_snapshot: list[float] = []

    def reset(self, fleet: Fleet) -> None:
        """Snapshot per-instance busy time before the first tick."""
        self._busy_snapshot = [i.busy_seconds for i in fleet]

    def _window_utilization(self, fleet: Fleet) -> float:
        """Mean busy fraction of the active instances over the last
        tick (clamped to 1: busy time accrues at launch, so a window
        can momentarily over-count service scheduled into the future)."""
        active = fleet.active_indices()
        if not active:
            return 0.0
        total = 0.0
        for index in active:
            delta = fleet[index].busy_seconds - self._busy_snapshot[index]
            total += min(1.0, max(0.0, delta / self.tick_s))
        for instance in fleet:
            self._busy_snapshot[instance.index] = instance.busy_seconds
        return total / len(active)

    def _scale_up(self, fleet: Fleet, now: float) -> bool:
        active = fleet.active_indices()
        if len(active) >= self.max_instances:
            return False
        for instance in fleet:
            if not instance.active:
                instance.power_up(now, self.warmup_s)
                return True
        return False

    def _scale_down(self, fleet: Fleet, now: float) -> bool:
        active = fleet.active_indices()
        if len(active) <= self.min_instances:
            return False
        # Retire the emptiest instance; an idle one closes its powered
        # interval immediately, a busy one drains first.
        victim = min(
            (fleet[i] for i in active),
            key=lambda inst: (inst.pending_seconds(now), -inst.index),
        )
        victim.active = False
        if victim.is_idle(now) and not victim.queue:
            victim.close_power_interval(now)
        return True

    def tick(self, fleet: Fleet, now: float) -> int:
        """Observe and act; returns the number of actions taken."""
        raise NotImplementedError


class UtilizationBandGovernor(Governor):
    """Keep window utilization inside ``[low, high]`` by resizing."""

    name = "utilization"

    def __init__(
        self,
        tick_s: float,
        min_instances: int,
        max_instances: int,
        warmup_s: float,
        low: float = 0.3,
        high: float = 0.85,
    ) -> None:
        super().__init__(tick_s, min_instances, max_instances, warmup_s)
        if not 0.0 <= low < high <= 1.0:
            raise ConfigError(
                f"need 0 <= low < high <= 1 (got {low}, {high})"
            )
        self.low = low
        self.high = high

    def tick(self, fleet: Fleet, now: float) -> int:
        utilization = self._window_utilization(fleet)
        if utilization > self.high:
            return int(self._scale_up(fleet, now))
        if utilization < self.low:
            return int(self._scale_down(fleet, now))
        return 0


class QueueDelayGovernor(Governor):
    """Hold the expected queueing delay near a target."""

    name = "queue-delay"

    def __init__(
        self,
        tick_s: float,
        min_instances: int,
        max_instances: int,
        warmup_s: float,
        target_delay_s: float = 5e-3,
    ) -> None:
        super().__init__(tick_s, min_instances, max_instances, warmup_s)
        if not 0 < target_delay_s < _INF:
            raise ConfigError(
                f"target_delay_s must be finite and positive "
                f"({target_delay_s})"
            )
        self.target_delay_s = target_delay_s

    def tick(self, fleet: Fleet, now: float) -> int:
        self._window_utilization(fleet)  # keep snapshots current
        active = fleet.active_indices()
        if not active:
            return 0
        delay = sum(
            fleet[i].pending_seconds(now) for i in active
        ) / len(active)
        if delay > self.target_delay_s:
            return int(self._scale_up(fleet, now))
        if delay < 0.25 * self.target_delay_s:
            return int(self._scale_down(fleet, now))
        return 0


class DVFSGovernor(Governor):
    """Band control that re-points frequency instead of fleet size.

    The ladder is a tuple of operating points ascending in frequency;
    the whole active fleet shares one ladder level so batches launched
    in the same regime see the same clock.
    """

    name = "dvfs"

    def __init__(
        self,
        tick_s: float,
        min_instances: int,
        max_instances: int,
        warmup_s: float,
        ladder: tuple[OperatingPoint, ...],
        dvfs_model: DVFSModel,
        profile_clock_hz: float,
        low: float = 0.3,
        high: float = 0.85,
    ) -> None:
        super().__init__(tick_s, min_instances, max_instances, warmup_s)
        if len(ladder) < 2:
            raise ConfigError(
                "DVFS governor needs a ladder of >= 2 operating points"
            )
        if not 0.0 <= low < high <= 1.0:
            raise ConfigError(
                f"need 0 <= low < high <= 1 (got {low}, {high})"
            )
        self.ladder = tuple(
            sorted(ladder, key=lambda p: p.frequency_hz)
        )
        self.dvfs_model = dvfs_model
        self.profile_clock_hz = profile_clock_hz
        self.low = low
        self.high = high
        self.level = len(self.ladder) - 1  # start at full speed

    def _repoint(self, fleet: Fleet, level: int) -> None:
        self.level = level
        point = self.ladder[level]
        for index in fleet.active_indices():
            apply_operating_point(
                fleet[index], point, self.dvfs_model,
                self.profile_clock_hz,
            )

    def reset(self, fleet: Fleet) -> None:
        super().reset(fleet)
        self._repoint(fleet, self.level)

    def tick(self, fleet: Fleet, now: float) -> int:
        utilization = self._window_utilization(fleet)
        if utilization > self.high and self.level < len(self.ladder) - 1:
            self._repoint(fleet, self.level + 1)
            return 1
        if utilization < self.low and self.level > 0:
            self._repoint(fleet, self.level - 1)
            return 1
        return 0


def make_governor(
    name: str,
    tick_s: float,
    min_instances: int,
    max_instances: int,
    warmup_s: float,
    util_low: float = 0.3,
    util_high: float = 0.85,
    target_delay_s: float = 5e-3,
    ladder: tuple[OperatingPoint, ...] = (),
    dvfs_model: DVFSModel | None = None,
    profile_clock_hz: float = 1.0e9,
    mean_service_s: float = 1e-3,
    forecast_alpha: float = 0.5,
    forecast_beta: float = 0.2,
) -> Governor:
    """Instantiate a governor by name (see :data:`GOVERNORS`)."""
    common = (tick_s, min_instances, max_instances, warmup_s)
    if name == UtilizationBandGovernor.name:
        return UtilizationBandGovernor(
            *common, low=util_low, high=util_high
        )
    if name == QueueDelayGovernor.name:
        return QueueDelayGovernor(*common, target_delay_s=target_delay_s)
    if name == DVFSGovernor.name:
        if dvfs_model is None:
            raise ConfigError("DVFS governor needs a DVFS model")
        return DVFSGovernor(
            *common, ladder=ladder, dvfs_model=dvfs_model,
            profile_clock_hz=profile_clock_hz,
            low=util_low, high=util_high,
        )
    if name == PredictiveGovernor.name:
        # Sized for the reactive band's midpoint, so the predictive and
        # utilization governors target the same steady-state fleet and
        # differ only in *when* they move.
        return PredictiveGovernor(
            *common,
            mean_service_s=mean_service_s,
            target_util=0.5 * (util_low + util_high),
            alpha=forecast_alpha,
            beta=forecast_beta,
        )
    known = ", ".join(sorted(GOVERNORS))
    raise ConfigError(
        f"unknown autoscale governor {name!r} (known: {known})"
    )


# Imported after Governor exists: predict subclasses it, and every
# import path routes through the package __init__, which executes this
# module (and therefore the registration below) exactly once.
from .predict import PredictiveGovernor  # noqa: E402

#: Governor name -> class, for the CLI and sweeps ("none" = no loop).
GOVERNORS = {
    UtilizationBandGovernor.name: UtilizationBandGovernor,
    QueueDelayGovernor.name: QueueDelayGovernor,
    DVFSGovernor.name: DVFSGovernor,
    PredictiveGovernor.name: PredictiveGovernor,
}
