"""Requests, accelerator instances, and the fleet they form.

Each instance models one EDEA accelerator behind its own batching
queue, ordered by priority and FIFO within a priority: requests wait
until a batch launches (full, or the head request has waited the
configured maximum), then stream through the accelerator back to
back — the design has no inter-image parallelism, so a batch's benefit
is amortizing the model-switch weight load, not parallel compute.  The
fleet is the indexed collection a scheduling policy chooses from, and
the one store of its instances' state: a :class:`Fleet` holds one list
per per-instance field, and an :class:`Instance` is a view of entry
``index`` of each list — the :class:`~repro.serve.arena.RequestArena`
and :class:`~repro.serve.arena.Request` pattern applied to the fleet.
"""

from __future__ import annotations

from collections import deque

from ..errors import ConfigError
from .arena import Request
from .profile import ServiceProfile

__all__ = ["Instance", "Fleet"]


#: Per-instance field -> its value on a fresh instance: one
#: :class:`Fleet` list each (see :class:`Instance` for their meaning).
_FIELDS = {
    "busy_until": 0.0,
    "loaded_model": None,
    "busy_seconds": 0.0,
    "served": 0,
    "batches": 0,
    "setups": 0,
    "queued_seconds": 0.0,
    "active": True,
    "latency_scale": 1.0,
    "busy_power_w": 0.0,
    "idle_power_w": 0.0,
    "energy_joules": 0.0,
    "powered_since": 0.0,
    "powered_seconds": 0.0,
    "window_end": None,
    "busy_seconds_window": 0.0,
    "profiles": None,
}


def _column(name: str) -> property:
    """The view attribute reading and writing entry ``index`` of the
    fleet's ``name`` list, compiled with ``name`` spelled out (as
    :func:`collections.namedtuple` compiles its class): policies read
    views per decision, and a plain attribute access takes about 60%
    of a ``getattr(fleet, name)`` closure's time."""
    namespace: dict = {}
    exec(
        f"def get(self): return self.fleet.{name}[self.index]\n"
        f"def put(self, value): self.fleet.{name}[self.index] = value\n",
        namespace,
    )
    return property(namespace["get"], namespace["put"])


class Instance:
    """One accelerator instance with its priority-ordered batching
    queue: a write-through view of entry ``index`` of its
    :class:`Fleet`'s lists.  Reading an attribute reads the fleet's
    list, assigning one writes it, so every holder of the fleet — the
    engine's kernels, hooks, policies, a checkpoint — sees one state.

    Attributes:
        fleet: The fleet whose lists hold this instance's state.
        index: Position in the fleet.
        busy_until: Completion time of the in-flight batch (<= now when
            idle).
        loaded_model: Name of the model whose weights are resident
            (None when cold).
        queue: The waiting requests' arena rows (``int``) as a deque,
            in ``(priority, row)`` order — FIFO within a priority.
            Both engine kernels and a checkpoint hold the same rows;
            ``arena.view(row)`` gives a request.
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

    __slots__ = ("fleet", "index")

    def __init__(self, fleet: Fleet, index: int) -> None:
        self.fleet = fleet
        self.index = index

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in ("index", "queue", *_FIELDS)
        )
        return f"Instance({fields})"

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
        profiles = self.fleet.profiles[self.index]
        if profiles is None:
            return None
        return profiles.get(model)

    def pending_seconds(self, now: float) -> float:
        """Work the instance still owes: in-flight remainder + queued
        service time (model-switch costs excluded — they depend on the
        batching outcome, and the estimate only ranks instances)."""
        fleet = self.fleet
        j = self.index
        pending = fleet.busy_until[j] - now
        if pending < 0.0:
            pending = 0.0
        queued = fleet.queued_seconds[j]
        if queued > 0.0:
            pending += queued * fleet.latency_scale[j]
        return pending

    def estimated_completion(self, request: Request, now: float) -> float:
        """First-order completion estimate if ``request`` joined now
        (in-flight remainder + queued work + its own service time)."""
        profile = self.profile_for(request.model) or request.profile
        scale = self.fleet.latency_scale[self.index]
        return (
            now
            + self.pending_seconds(now)
            + profile.per_image_seconds * scale
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


for _name in ("queue", *_FIELDS):
    setattr(Instance, _name, _column(_name))
del _name


class Fleet:
    """An indexed collection of :class:`Instance` views, and the one
    store of their state: one list per per-instance field (``queue``
    and every key of :data:`_FIELDS`), entry ``j`` belonging to
    instance ``j``.

    The lists are mutated in place and never rebound, so a reader may
    bind one once (the event fold does) and stay current.  Pickling or
    deep-copying a fleet copies its lists and views together, each
    view bound to the copy.
    """

    __slots__ = ("instances", "queue", *_FIELDS)

    def __init__(self, instances: int) -> None:
        if instances < 1:
            raise ConfigError(
                f"fleet needs at least one instance ({instances})"
            )
        for name, value in _FIELDS.items():
            setattr(self, name, [value] * instances)
        self.queue = [deque() for _ in range(instances)]
        self.instances = [Instance(self, j) for j in range(instances)]

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)

    def __getitem__(self, index: int) -> Instance:
        return self.instances[index]

    def active_indices(self) -> list[int]:
        """Fleet indices the control plane currently routes to."""
        return [j for j, on in enumerate(self.active) if on]
