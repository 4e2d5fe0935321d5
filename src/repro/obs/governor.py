"""Governor observation: the telemetry layer's only live attachment.

Request and batch telemetry is derived after drain from the arena
columns every execution path writes (:mod:`repro.obs.derive`), so an
ungoverned run is observed without any hook and keeps its fast path.
What the columns cannot show is control-side state that only changes
at governor ticks.  :class:`GovernorObserver` wraps a governed run's
governor — the engine hooks stay the plane's own — and logs exactly
that into a :class:`ControlLog`:

* power-up / power-down per instance (a power-up's warm-up busy
  seconds and energy, which the derivation merges into the
  per-instance busy/energy fold in event order);
* DVFS transitions, with the new latency scale and busy power (so
  derived service times and energy use the operating point in force
  at each launch);
* at every metrics sample boundary, the active-instance count and the
  forecaster's level and trend.

Power and DVFS instants also go straight to the trace recorder.  The
observer is purely observational: every governor decision, and all of
the governor's state, is the wrapped governor's (the log itself rides
the checkpoint's ``obs`` payload).
"""

from __future__ import annotations

from .metrics import is_due, next_boundary

__all__ = ["ControlLog", "GovernorObserver"]


class ControlLog:
    """Control-side facts of one governed fleet, in tick order.

    Attributes:
        power: ``(t, instance, up, warmup_s, warmup_joules)`` per
            power-up (``up=True``) or power-down.
        dvfs: ``(t, instance, scale, busy_power_w)`` per operating
            point change.
        samples: ``(t, active, forecast)`` at each metrics sample
            boundary; ``forecast`` is the forecaster's ``(level,
            trend)``, or ``None`` when the governor has none.
        next_sample_t: The next sample boundary (``None`` without
            metrics).
    """

    def __init__(self, window_s: float | None) -> None:
        self.window_s = window_s
        self.power: list[tuple] = []
        self.dvfs: list[tuple] = []
        self.samples: list[tuple] = []
        self.next_sample_t = window_s

    def state_dict(self) -> dict:
        return {
            "power": list(self.power),
            "dvfs": list(self.dvfs),
            "samples": list(self.samples),
            "next_sample_t": self.next_sample_t,
        }

    def load_state_dict(self, state: dict) -> None:
        self.power = list(state["power"])
        self.dvfs = list(state["dvfs"])
        self.samples = list(state["samples"])
        self.next_sample_t = state["next_sample_t"]


class GovernorObserver:
    """Transparent wrapper around a governor that logs its ticks.

    Every attribute other than :meth:`tick` is the wrapped governor's,
    so the control hooks (and checkpointing) use it unchanged.

    Args:
        governor: The wrapped governor.
        log: This fleet's :class:`ControlLog`.
        recorder: Shared trace recorder, or ``None`` when only metrics
            are enabled.
        pid: Trace process id (fleet index; 0 for single-fleet runs).
    """

    def __init__(self, governor, log: ControlLog, recorder=None, pid=0):
        self.governor = governor
        self.log = log
        self.recorder = recorder
        self.pid = pid

    def __getattr__(self, name):
        if name == "governor":  # not yet set (e.g. mid-construction)
            raise AttributeError(name)
        return getattr(self.governor, name)

    def tick(self, fleet, now: float) -> int:
        instances = fleet.instances
        before = [
            (instance.active, instance.latency_scale,
             instance.busy_power_w)
            for instance in instances
        ]
        actions = self.governor.tick(fleet, now)
        log = self.log
        recorder = self.recorder
        for instance, (was_active, was_scale, was_power) in zip(
            instances, before
        ):
            j = instance.index
            if instance.active != was_active:
                up = instance.active
                # Instance.power_up accrues a positive warm-up at the
                # busy power then in force.
                warmup = self.governor.warmup_s if up else 0.0
                if warmup > 0:
                    joules = instance.busy_power_w * warmup
                else:
                    warmup = joules = 0.0
                log.power.append((now, j, up, warmup, joules))
                if recorder is not None:
                    recorder.instant(
                        "power-up" if up else "power-down",
                        cat="governor",
                        ts_s=now,
                        pid=self.pid,
                        tid=j,
                    )
            scale = instance.latency_scale
            if scale != was_scale or instance.busy_power_w != was_power:
                log.dvfs.append((now, j, scale, instance.busy_power_w))
                if recorder is not None and scale != was_scale:
                    recorder.instant(
                        "dvfs",
                        cat="governor",
                        ts_s=now,
                        pid=self.pid,
                        tid=j,
                        args={"from": was_scale, "to": scale},
                    )
        boundary = log.next_sample_t
        if boundary is not None and is_due(boundary, now):
            forecaster = getattr(self.governor, "forecaster", None)
            log.samples.append(
                (
                    now,
                    sum(1 for instance in instances if instance.active),
                    (
                        (forecaster.level, forecaster.trend)
                        if forecaster is not None
                        else None
                    ),
                )
            )
            log.next_sample_t = next_boundary(
                boundary, now, log.window_s
            )
        return actions
