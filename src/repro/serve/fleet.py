"""Requests, accelerator instances, and the fleet they form.

Each instance models one EDEA accelerator behind its own batching
queue, ordered by priority and FIFO within a priority: requests wait
until a batch launches (full, or the head request has waited the
configured maximum), then stream through the accelerator back to
back — the design has no inter-image parallelism, so a batch's benefit
is amortizing the model-switch weight load, not parallel compute.  The
fleet is just the indexed collection a scheduling policy chooses from.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

from ..errors import ConfigError
from .arena import Request
from .profile import ServiceProfile

__all__ = ["Instance", "Fleet"]

_priority = attrgetter("priority")


@dataclass(slots=True)
class Instance:
    """One accelerator instance with its priority-ordered batching
    queue.

    Attributes:
        index: Position in the fleet.
        busy_until: Completion time of the in-flight batch (<= now when
            idle).
        loaded_model: Model whose weights are resident (None when cold).
        queue: Waiting requests in ``(priority, arena row)`` order —
            FIFO within a priority (see :meth:`enqueue`).
        busy_seconds: Accumulated service time (utilization numerator).
        served: Completed request count.
        batches: Launched batch count.
        setups: Model switches paid (weight reloads).
        queued_seconds: Running sum of the queued requests' per-image
            service times (kept incrementally so scheduling decisions
            stay O(1) even when a queue grows long under overload).
        active: Whether the control plane routes new requests here (an
            autoscaler powers instances up/down; drained instances keep
            serving their queue).
        latency_scale: Service-time multiplier from the instance's DVFS
            operating point (nominal clock / actual clock; 1.0 at the
            published operating point).
        busy_power_w / idle_power_w: Power draw while serving / while
            powered but idle (0.0 outside the control plane).
        energy_joules: Accumulated busy-time energy.
        powered_since: Start of the current powered interval (None when
            powered off).
        powered_seconds: Closed powered intervals, accumulated.
        window_end: End of the busy-window accounting interval (the last
            arrival); busy time inside it accrues separately so reports
            can exclude the drain tail.
        busy_seconds_window: Busy time accrued inside the window.
        profiles: Optional per-instance service profiles (heterogeneous
            ``ArchConfig`` fleets); None falls back to each request's
            own profile.
    """

    index: int
    busy_until: float = 0.0
    loaded_model: str | None = None
    queue: deque = field(default_factory=deque)
    busy_seconds: float = 0.0
    served: int = 0
    batches: int = 0
    setups: int = 0
    queued_seconds: float = 0.0
    active: bool = True
    latency_scale: float = 1.0
    busy_power_w: float = 0.0
    idle_power_w: float = 0.0
    energy_joules: float = 0.0
    powered_since: float | None = 0.0
    powered_seconds: float = 0.0
    window_end: float | None = None
    busy_seconds_window: float = 0.0
    profiles: dict[str, ServiceProfile] | None = None

    #: Scalar fields that round-trip through ``state_dict`` — the
    #: queue (engine-owned, serialized as stream positions by
    #: ``Engine.snapshot``) and the deterministically rebuilt ``index``
    #: and ``profiles`` are deliberately excluded.
    _STATE_FIELDS = (
        "busy_until",
        "loaded_model",
        "busy_seconds",
        "served",
        "batches",
        "setups",
        "queued_seconds",
        "active",
        "latency_scale",
        "busy_power_w",
        "idle_power_w",
        "energy_joules",
        "powered_since",
        "powered_seconds",
        "window_end",
        "busy_seconds_window",
    )

    def state_dict(self) -> dict:
        """Picklable mid-run state (see :data:`_STATE_FIELDS`)."""
        return {
            name: getattr(self, name) for name in self._STATE_FIELDS
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the fields captured by :meth:`state_dict`; extra
        keys (e.g. the engine's serialized queue) are ignored."""
        for name in self._STATE_FIELDS:
            setattr(self, name, state[name])

    def enqueue(self, request: Request) -> None:
        """Add a request, keeping the queue in ``(priority, arena
        row)`` order: urgent classes batch first, FIFO within a
        priority (so a single-priority stream is plain FIFO).

        Arrivals carry the largest row so far, so bisecting on
        priority alone lands on the ``(priority, row)`` position.  A
        same-or-lower-priority arrival (the common case) appends in
        O(1); only an overtaking one pays a bisection and an insert.
        """
        queue = self.queue
        priority = request.priority
        if queue and queue[-1].priority > priority:
            queue.insert(
                bisect_right(queue, priority, key=_priority), request
            )
        else:
            queue.append(request)
        self.queued_seconds += request.profile.per_image_seconds

    def remove(self, request: Request) -> None:
        """Drop a queued request (priority-preemptive shedding)."""
        self.queue.remove(request)
        self.queued_seconds -= request.profile.per_image_seconds
        if not self.queue:
            self.queued_seconds = 0.0

    def is_idle(self, now: float) -> bool:
        return self.busy_until <= now

    def profile_for(self, model: str) -> ServiceProfile | None:
        """This instance's own profile of ``model`` (None = use the
        request's profile, i.e. the fleet is architecturally uniform)."""
        if self.profiles is None:
            return None
        return self.profiles.get(model)

    def pending_seconds(self, now: float) -> float:
        """Work the instance still owes: in-flight remainder + queued
        service time (model-switch costs excluded — they depend on the
        batching outcome, and the estimate only ranks instances)."""
        pending = self.busy_until - now
        if pending < 0.0:
            pending = 0.0
        queued = self.queued_seconds
        if queued > 0.0:
            pending += queued * self.latency_scale
        return pending

    def estimated_completion(self, request: Request, now: float) -> float:
        """First-order completion estimate if ``request`` joined now
        (in-flight remainder + queued work + its own service time)."""
        profile = self.profile_for(request.model) or request.profile
        return (
            now
            + self.pending_seconds(now)
            + profile.per_image_seconds * self.latency_scale
        )

    def _accrue_busy(self, now: float, duration: float) -> None:
        self.busy_seconds += duration
        if self.window_end is not None:
            start = min(now, self.window_end)
            end = min(now + duration, self.window_end)
            self.busy_seconds_window += max(0.0, end - start)
        self.energy_joules += self.busy_power_w * duration

    def power_up(self, now: float, warmup_s: float) -> None:
        """Bring a powered-off instance online; the warm-up (weight
        reload) occupies it — and burns busy power — before it serves."""
        self.active = True
        if self.powered_since is None:
            self.powered_since = now
        self.loaded_model = None
        start = max(self.busy_until, now)
        self.busy_until = start + warmup_s
        if warmup_s > 0:
            self._accrue_busy(start, warmup_s)

    def close_power_interval(self, now: float) -> None:
        """Close the current powered interval (instance fully drained)."""
        if self.powered_since is not None:
            self.powered_seconds += now - self.powered_since
            self.powered_since = None

    def launch_head(self, max_batch: int, now: float) -> float:
        """Launch the due head batch; returns its completion time.

        The batch is the longest same-model run at the queue head,
        capped at ``max_batch`` (queue order is never violated — a
        different model behind the head waits its turn).  Images
        stream sequentially, so the i-th request of the batch finishes
        after ``setup + (i+1) * per_image`` — completion times inside a
        batch are staggered, not simultaneous.  Service times come from
        the instance's own profile (heterogeneous fleets) when one is
        set, stretched by its DVFS ``latency_scale``.
        """
        queue = self.queue
        if not queue:
            raise ConfigError("no queued requests to batch")
        model = queue[0].model
        members = [queue.popleft()]
        while (
            len(members) < max_batch
            and queue
            and queue[0].model == model
        ):
            members.append(queue.popleft())
        queued_seconds = self.queued_seconds
        for request in members:
            queued_seconds -= request.profile.per_image_seconds
        self.queued_seconds = queued_seconds if queue else 0.0
        head = members[0]
        cold = self.loaded_model != model
        profile = self.profile_for(model) or head.profile
        setup = profile.setup_seconds if cold else 0.0
        per_image = profile.per_image_seconds * self.latency_scale
        base = now + setup
        count = 0
        for request in members:
            count += 1
            request.start = now
            request.finish = base + count * per_image
        service = setup + count * per_image
        self.busy_until = now + service
        self._accrue_busy(now, service)
        self.served += count
        self.batches += 1
        if cold:
            self.setups += 1
        self.loaded_model = model
        return self.busy_until


class Fleet:
    """An indexed collection of :class:`Instance` objects."""

    def __init__(self, instances: int) -> None:
        if instances < 1:
            raise ConfigError(
                f"fleet needs at least one instance ({instances})"
            )
        self.instances = [Instance(index=i) for i in range(instances)]

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)

    def __getitem__(self, index: int) -> Instance:
        return self.instances[index]

    def active_indices(self) -> list[int]:
        """Fleet indices the control plane currently routes to."""
        return [i.index for i in self.instances if i.active]
