"""SLO specifications, priority classes, and admission control.

An :class:`SLOClass` names a deadline, a target attainment percentile,
and a priority for one slice of the traffic; the admission controller
decides — per arriving request, against the instance the scheduling
policy chose — whether to admit, shed, or preempt a lower-priority
queued request.  Shedding is what lets an overloaded fleet degrade
gracefully: instead of queues (and tail latencies) growing without
bound past rho = 1, excess requests are dropped at arrival and the
admitted traffic keeps a bounded p99.

Policies are deliberately small single-decision objects, mirroring
:mod:`repro.serve.policies`, so governor sweeps can cross them cheaply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError
from ..parallel.cache import extension_field, restore_extended
from ..serve.arena import Request
from ..serve.fleet import Instance

__all__ = [
    "SLOClass",
    "ClassStats",
    "DEFAULT_SLO_CLASSES",
    "parse_slo_classes",
    "SheddingPolicy",
    "NoShedding",
    "DeadlineShedding",
    "QueueDepthShedding",
    "PriorityShedding",
    "SHEDDING_POLICIES",
    "KERNEL_ADMISSION",
    "make_shedder",
]

_EPS = 1e-12


@dataclass(frozen=True)
class SLOClass:
    """One service-level objective attached to a slice of the traffic.

    Attributes:
        name: Class handle (appears in reports and CLI specs).
        deadline_ms: Arrival-to-completion deadline.
        target: Required attainment — the fraction of the class's
            *offered* requests that must meet the deadline (e.g. 0.99
            encodes "p99 under the deadline"; shed requests are misses).
        priority: Priority class; lower values preempt higher ones.
        share: Traffic-sampling weight (normalized across classes).
        model: Optional zoo-model (tenant) binding.  A bound class
            applies only to that model's requests — deadlines,
            priorities, and shares follow the *model* a request
            carries, the multi-tenant contract — while unbound classes
            form the default pool for every model without a binding of
            its own.  Extension field: unbound specs keep their
            pre-existing cache content keys.
    """

    name: str
    deadline_ms: float
    target: float = 0.99
    priority: int = 0
    share: float = 1.0
    model: str | None = extension_field(None)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("SLO class needs a non-empty name")
        # inf is legal ("no deadline"); NaN fails the comparison.
        if not self.deadline_ms > 0:
            raise ConfigError(
                f"deadline_ms must be positive ({self.deadline_ms})"
            )
        if not 0.0 < self.target <= 1.0:
            raise ConfigError(
                f"target must be in (0, 1] ({self.target})"
            )
        if not 0 < self.share < math.inf:
            raise ConfigError(
                f"share must be finite and positive ({self.share})"
            )
        if self.model is not None and not self.model:
            raise ConfigError(
                "SLO class model binding must be a non-empty name "
                "(omit it for an unbound class)"
            )

    @property
    def deadline_s(self) -> float:
        return self.deadline_ms * 1e-3


#: Three-tier default: urgent interactive traffic, a standard tier, and
#: deadline-tolerant batch work (deadlines sized for the ~0.5 ms mean
#: service time of the mixed zoo traffic).
DEFAULT_SLO_CLASSES: tuple[SLOClass, ...] = (
    SLOClass("interactive", deadline_ms=5.0, target=0.99, priority=0,
             share=0.3),
    SLOClass("standard", deadline_ms=25.0, target=0.95, priority=1,
             share=0.5),
    SLOClass("batch", deadline_ms=100.0, target=0.90, priority=2,
             share=0.2),
)


#: key=value field names accepted by :func:`parse_slo_classes`
#: (canonical name -> SLOClass field).
_SPEC_KEYS = {
    "deadline": "deadline_ms",
    "deadline_ms": "deadline_ms",
    "target": "target",
    "priority": "priority",
    "prio": "priority",
    "share": "share",
    "model": "model",
}

#: Positional field order after the class name (the legacy spec form).
_SPEC_POSITIONAL = ("deadline_ms", "target", "priority", "share")


def _parse_spec_entry(entry: str) -> SLOClass:
    """One class entry: a name followed by ``:``-separated fields,
    each positional (legacy order) or ``key=value``."""
    parts = entry.strip().split(":")
    name, fields = parts[0], parts[1:]
    if not fields:
        raise ConfigError(
            f"cannot parse SLO class {entry!r} (expected "
            "name:deadline_ms[:target[:priority[:share]]] or "
            "name:key=value fields incl. deadline=, model=)"
        )
    kwargs: dict = {}
    position = 0
    for field in fields:
        if "=" in field:
            key, _, value = field.partition("=")
            target_field = _SPEC_KEYS.get(key.strip())
            if target_field is None:
                known = ", ".join(sorted(_SPEC_KEYS))
                raise ConfigError(
                    f"unknown SLO class field {key!r} in {entry!r} "
                    f"(known: {known})"
                )
            position = len(_SPEC_POSITIONAL)  # key=value ends positional
        else:
            if position >= len(_SPEC_POSITIONAL):
                raise ConfigError(
                    f"cannot parse SLO class {entry!r} (positional "
                    "fields must precede key=value fields and number "
                    f"at most {len(_SPEC_POSITIONAL)})"
                )
            target_field, value = _SPEC_POSITIONAL[position], field
            position += 1
        if target_field in kwargs:
            raise ConfigError(
                f"duplicate field {target_field!r} in SLO class "
                f"{entry!r}"
            )
        value = value.strip()
        try:
            if target_field == "model":
                kwargs["model"] = value
            elif target_field == "deadline_ms":
                if value.endswith("ms"):
                    value = value[:-2]
                kwargs["deadline_ms"] = float(value)
            elif target_field == "priority":
                kwargs["priority"] = int(value)
            else:
                kwargs[target_field] = float(value)
        except ValueError:
            raise ConfigError(
                f"cannot parse SLO class {entry!r} (non-numeric "
                f"{target_field})"
            ) from None
    if "deadline_ms" not in kwargs:
        raise ConfigError(
            f"SLO class {entry!r} needs a deadline "
            "(deadline_ms positionally or deadline=)"
        )
    return SLOClass(name=name, **kwargs)


def parse_slo_classes(text: str) -> tuple[SLOClass, ...]:
    """Parse a CLI class spec.

    Entries are separated by commas; each entry is a class name
    followed by ``:``-separated fields — positionally
    ``name:deadline_ms[:target[:priority[:share]]]`` (the legacy
    form), or ``key=value`` fields (``deadline``/``deadline_ms`` —
    an ``ms`` suffix is accepted — ``target``, ``priority``/``prio``,
    ``share``, and ``model``, which binds the class to one zoo model's
    traffic)::

        interactive:5,batch:100:0.9:2
        llm:deadline=5ms:model=mobilenet-v1-224,default:deadline=50
    """
    classes = []
    for entry in (e for e in text.split(",") if e.strip()):
        classes.append(_parse_spec_entry(entry))
    if not classes:
        raise ConfigError("SLO class spec is empty")
    names = [c.name for c in classes]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate SLO class names in {names}")
    return tuple(classes)


@dataclass(frozen=True)
class ClassStats:
    """Per-SLO-class outcome of one controlled simulation.

    ``attainment`` is met / offered — shed requests count as misses, so
    an admission controller cannot game the metric by dropping load.

    ``model`` carries the class's tenant binding, and per-*model*
    aggregate rows (``ServingReport.model_stats``) reuse this shape
    with ``name == model``; there ``deadline_ms``/``target`` are
    offered-weighted means over the classes the model's traffic drew
    and ``priority`` is the most urgent one seen.
    """

    name: str
    priority: int
    deadline_ms: float
    target: float
    offered: int
    shed: int
    completed: int
    met: int
    attainment: float
    latency_p99_s: float
    model: str | None = None

    def __setstate__(self, state: dict) -> None:
        # Stats unpickled from caches written before ``model`` existed
        # backfill its default (see restore_extended).
        restore_extended(self, state)

    @property
    def satisfied(self) -> bool:
        """Did the class reach its attainment target?"""
        return self.attainment >= self.target


class SheddingPolicy:
    """Base admission controller: admit, shed, or preempt per arrival."""

    name = "base"

    def admit(
        self, request: Request, instance: Instance, now: float
    ) -> tuple[bool, Request | None]:
        """Decide the fate of ``request`` at its chosen instance.

        Returns:
            ``(admitted, victim)``: ``victim`` is a queued request the
            controller preempted to make room (already removed from the
            instance's queue); only the priority policy produces one.
        """
        raise NotImplementedError


class NoShedding(SheddingPolicy):
    """Admit everything (the unbounded-queue baseline)."""

    name = "none"

    def admit(self, request, instance, now):
        return True, None


class DeadlineShedding(SheddingPolicy):
    """Reject requests whose deadline is already infeasible.

    The feasibility estimate is first-order — in-flight remainder plus
    queued work plus the request's own service time, ignoring batching
    effects — so it sheds exactly the requests that would miss anyway
    and converts deadline misses into cheap early rejections.
    """

    name = "deadline"

    def admit(self, request, instance, now):
        feasible = (
            instance.estimated_completion(request, now)
            <= request.deadline + _EPS
        )
        return feasible, None


class QueueDepthShedding(SheddingPolicy):
    """Reject arrivals when the chosen instance's queue is full."""

    name = "queue-depth"

    def __init__(self, threshold: int = 64) -> None:
        if threshold < 1:
            raise ConfigError(
                f"queue threshold must be >= 1 ({threshold})"
            )
        self.threshold = threshold

    def admit(self, request, instance, now):
        return len(instance.queue) < self.threshold, None


class PriorityShedding(QueueDepthShedding):
    """Queue-depth shedding that drops the lowest-priority work first.

    When the queue is full, the arrival preempts the worst queued
    request — the priority-sorted queue's tail — if that victim is
    strictly lower-priority; otherwise the arrival itself is shed.
    Urgent classes therefore keep admission even in overload, and only
    deadline-tolerant traffic pays.
    """

    name = "priority"

    def admit(self, request, instance, now):
        queue = instance.queue
        if len(queue) < self.threshold:
            return True, None
        arena = request.arena
        if arena.priority[queue[-1]] > request.priority:
            victim = arena.view(queue[-1])
            instance.remove(victim)
            return True, victim
        return False, None


#: Shedding-policy name -> factory (threshold-bearing ones accept it).
SHEDDING_POLICIES = {
    NoShedding.name: NoShedding,
    DeadlineShedding.name: DeadlineShedding,
    QueueDepthShedding.name: QueueDepthShedding,
    PriorityShedding.name: PriorityShedding,
}


#: Exact shedder type -> the admission rule the engine's event fold
#: inlines (see
#: :meth:`repro.serve.engine.EngineHooks.fast_admission`).
#: Keyed on the exact type, never inherited: a subclass that overrides
#: ``admit`` keeps its own rule, called at a barrier.
KERNEL_ADMISSION = {
    NoShedding: "none",
    DeadlineShedding: "deadline",
    QueueDepthShedding: "queue-depth",
    PriorityShedding: "priority",
}


def make_shedder(name: str, queue_threshold: int = 64) -> SheddingPolicy:
    """Instantiate a shedding policy by name.

    Raises:
        ConfigError: On an unknown name (the message lists valid ones).
    """
    try:
        factory = SHEDDING_POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(SHEDDING_POLICIES))
        raise ConfigError(
            f"unknown shedding policy {name!r} (known: {known})"
        ) from None
    if factory in (QueueDepthShedding, PriorityShedding):
        return factory(queue_threshold)
    return factory()
