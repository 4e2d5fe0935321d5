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

from ..errors import ConfigError
from .arena import Request, RequestArena
from .profile import ServiceProfile

__all__ = ["Instance", "Fleet"]


@dataclass(slots=True)
class Instance:
    """One accelerator instance with its priority-ordered batching
    queue.

    Attributes:
        index: Position in the fleet.
        busy_until: Completion time of the in-flight batch (<= now when
            idle).
        loaded_model: Model whose weights are resident (None when cold).
        queue: The waiting requests' arena rows (``int``), in
            ``(priority, row)`` order — FIFO within a priority (see
            :meth:`enqueue`).  Every execution path and a checkpoint
            hold the same rows; ``arena.view(row)`` gives a request.
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

    def enqueue(self, request: Request) -> None:
        """Queue ``request``'s row, keeping the queue in ``(priority,
        row)`` order: urgent classes batch first, FIFO within a
        priority (so a single-priority stream is plain FIFO).

        Arrivals carry the largest row so far, so bisecting on
        priority alone lands on the ``(priority, row)`` position.  A
        same-or-lower-priority arrival (the common case) appends in
        O(1); only an overtaking one pays a bisection and an insert.
        """
        queue = self.queue
        priority = request.arena.priority
        p = priority[request.i]
        if queue and priority[queue[-1]] > p:
            queue.insert(
                bisect_right(queue, p, key=priority.__getitem__),
                request.i,
            )
        else:
            queue.append(request.i)
        self.queued_seconds += request.profile.per_image_seconds

    def remove(self, request: Request) -> None:
        """Drop a queued request (priority-preemptive shedding)."""
        self.queue.remove(request.i)
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

    def launch_head(
        self, arena: RequestArena, max_batch: int, now: float
    ) -> float:
        """Launch the due head batch of ``arena`` rows; returns its
        completion time.

        The batch is the longest same-model run at the queue head,
        capped at ``max_batch`` (queue order is never violated — a
        different model behind the head waits its turn).  Images
        stream sequentially, so the i-th request of the batch finishes
        after ``setup + (i+1) * per_image`` — completion times inside a
        batch are staggered, not simultaneous; they are written to the
        arena's ``start``/``finish`` columns.  Service times come from
        the instance's own profile (heterogeneous fleets) when one is
        set, stretched by its DVFS ``latency_scale``.
        """
        queue = self.queue
        if not queue:
            raise ConfigError("no queued requests to batch")
        model_idx = arena.model_idx
        m = model_idx[queue[0]]
        members = [queue.popleft()]
        while (
            len(members) < max_batch
            and queue
            and model_idx[queue[0]] == m
        ):
            members.append(queue.popleft())
        request_profile = arena.profiles[m]
        queued_seconds = self.queued_seconds
        # One subtraction per member, as each enqueue added one.
        for _ in members:
            queued_seconds -= request_profile.per_image_seconds
        self.queued_seconds = queued_seconds if queue else 0.0
        model = arena.model_names[m]
        cold = self.loaded_model != model
        profile = self.profile_for(model) or request_profile
        setup = profile.setup_seconds if cold else 0.0
        per_image = profile.per_image_seconds * self.latency_scale
        base = now + setup
        start = arena.start
        finish = arena.finish
        count = 0
        for row in members:
            count += 1
            start[row] = now
            finish[row] = base + count * per_image
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
