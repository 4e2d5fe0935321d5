"""Scheduling policies: which instance gets an arriving request.

Policies are deliberately small objects with one decision method, so
sweeping them against each other through :mod:`repro.parallel` is cheap.
A policy sees an indexed collection of instances — the whole
:class:`~repro.serve.fleet.Fleet`, or the *active* slice of it that the
:class:`~repro.serve.engine.Engine` passes when an autoscaler has
powered instances down — and returns a position in that collection.
Five ship here:

* **round-robin** — arrival order striped across the fleet; the
  baseline every serving paper compares against.
* **least-loaded** — join-shortest-queue by *pending work in seconds*
  (not request count: a MobileNetV1-224 request is ~50x an edge-tiny
  one, so counting requests misroutes heterogeneous traffic).
* **affinity** — least-loaded, but prefers an instance whose resident
  weights already match the request's model when that detour costs less
  than the weight reload it avoids.  Only meaningful for mixed-model
  traffic; degrades to least-loaded on single-model mixes.
* **deadline-aware** — admission-aware placement: the scheduler reads
  the request's deadline and places it on an instance that can still
  meet it, spending backlog headroom only when needed.  Degrades to
  least-loaded for traffic without deadlines.
* **energy-aware** — for DVFS-heterogeneous fleets: weighs each
  instance's joules-per-request against the queueing delay it would
  add, so cheap (low-voltage) instances absorb traffic until their
  backlog costs more than the energy they save.  Degrades to
  least-loaded on unmetered (powerless) fleets.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigError
from .arena import Request
from .fleet import Instance

__all__ = [
    "SchedulingPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "AffinityPolicy",
    "DeadlineAwarePolicy",
    "EnergyAwarePolicy",
    "POLICIES",
    "make_policy",
]

_EPS = 1e-12
_INF = float("inf")


def _least_loaded(
    fleet: Sequence[Instance],
    now: float,
    indices: Sequence[int] | None = None,
) -> int:
    """Index of the least pending work, ties to the lowest index.

    The single hottest decision in every simulation, shared by the
    least-loaded policy and every policy that falls back to it: an
    explicit scan (strict < keeps the lowest-index tie-break) instead
    of min()-with-lambda, which allocates a tuple per instance.
    """
    candidates = range(len(fleet)) if indices is None else indices
    best = -1
    best_load = _INF
    for i in candidates:
        load = fleet[i].pending_seconds(now)
        if load < best_load:
            best = i
            best_load = load
    return best


class SchedulingPolicy:
    """Base class: route one request to a position in ``fleet``.

    ``fleet`` is any indexed collection of instances (``len`` +
    integer ``[]``): the :class:`~repro.serve.fleet.Fleet` itself or
    the engine's active slice.  The returned index addresses *that
    collection*, not the global fleet.
    """

    name = "base"

    def choose(
        self, request: Request, fleet: Sequence[Instance], now: float
    ) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any per-run state (called once per simulation)."""


class RoundRobinPolicy(SchedulingPolicy):
    """Stripe arrivals across instances in order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def choose(self, request, fleet, now):
        index = self._next % len(fleet)
        self._next += 1
        return index


class LeastLoadedPolicy(SchedulingPolicy):
    """Join the instance with the least pending work (seconds)."""

    name = "least-loaded"

    def choose(self, request, fleet, now):
        return _least_loaded(fleet, now)


class AffinityPolicy(SchedulingPolicy):
    """Least-loaded with a model-affinity detour.

    An instance whose loaded model matches the request avoids one weight
    reload (``setup_seconds``); routing there is worth up to exactly that
    much extra queueing, so the policy picks the best warm instance
    whenever its backlog exceeds the global minimum by less than the
    setup cost, and falls back to least-loaded otherwise.
    """

    name = "affinity"

    def choose(self, request, fleet, now):
        loads = [fleet[i].pending_seconds(now) for i in range(len(fleet))]
        best = min(range(len(fleet)), key=lambda i: (loads[i], i))
        warm = [
            i
            for i in range(len(fleet))
            if fleet[i].loaded_model == request.model
        ]
        if not warm:
            return best
        best_warm = min(warm, key=lambda i: (loads[i], i))
        detour = loads[best_warm] - loads[best]
        if detour <= request.profile.setup_seconds:
            return best_warm
        return best


class DeadlineAwarePolicy(SchedulingPolicy):
    """Place each request on an instance that can still meet its deadline.

    Among the instances whose first-order completion estimate
    (:meth:`~repro.serve.fleet.Instance.estimated_completion`) lands at
    or before the request's deadline, the least-loaded one wins —
    feasibility first, headroom preserved.  When no instance can meet
    the deadline the policy minimizes the estimated completion instead,
    so the miss (and the work a deadline shedder would reject) stays as
    small as possible.  Deadline-free requests fall back to
    least-loaded, making the policy safe as a serve-plane default.
    """

    name = "deadline-aware"

    def choose(self, request, fleet, now):
        indices = range(len(fleet))
        if request.deadline == _INF:
            return _least_loaded(fleet, now)
        completions = [
            fleet[i].estimated_completion(request, now) for i in indices
        ]
        feasible = [
            i
            for i in indices
            if completions[i] <= request.deadline + _EPS
        ]
        if feasible:
            return _least_loaded(fleet, now, feasible)
        return min(indices, key=lambda i: (completions[i], i))


class EnergyAwarePolicy(SchedulingPolicy):
    """Weigh joules-per-request against queue delay across the fleet.

    Each candidate is scored ``E_i + P_ref * D_i``: the energy this
    request would burn there (busy power x its DVFS-stretched service
    time) plus the queueing delay it would suffer, priced at the
    fleet's highest busy power — the opportunity cost of waiting
    instead of running on the fastest instance.  Low-voltage instances
    therefore soak up traffic while their queues stay short and shed it
    to fast instances once the delay outweighs the joules saved.  On a
    fleet without power metering (the plain serve data plane) every
    score reduces to the queue delay, i.e. least-loaded.
    """

    name = "energy-aware"

    def choose(self, request, fleet, now):
        indices = range(len(fleet))
        price = max(fleet[i].busy_power_w for i in indices)
        if price <= 0.0:
            return _least_loaded(fleet, now)

        def score(i: int):
            instance = fleet[i]
            profile = (
                instance.profile_for(request.model) or request.profile
            )
            energy = instance.busy_power_w * (
                profile.per_image_seconds * instance.latency_scale
            )
            return (
                energy + price * instance.pending_seconds(now),
                i,
            )

        return min(indices, key=score)


#: Policy name -> factory, for the CLI and sweeps.
POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
    AffinityPolicy.name: AffinityPolicy,
    DeadlineAwarePolicy.name: DeadlineAwarePolicy,
    EnergyAwarePolicy.name: EnergyAwarePolicy,
}


def make_policy(name: str) -> SchedulingPolicy:
    """Instantiate a policy by name.

    Raises:
        ConfigError: On an unknown name (the message lists valid ones).
    """
    try:
        factory = POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise ConfigError(
            f"unknown scheduling policy {name!r} (known: {known})"
        ) from None
    return factory()
