"""SLO-aware controlled serving simulation.

:func:`simulate_controlled` drives the same discrete-event kernel as
:func:`repro.serve.simulate` (:class:`repro.serve.engine.Engine`) with
the control plane plugged into its hooks:

* every request carries an :class:`~repro.control.slo.SLOClass`
  (deadline, priority), drawn from the scenario's class shares;
* ``on_arrival`` runs the admission controller — shed or preempt at
  arrival, so overload degrades gracefully instead of queueing
  unboundedly;
* instance queues are priority-ordered, so urgent classes batch first;
* each instance runs its own ``(ArchConfig, OperatingPoint)`` — service
  times stretch with 1/f and busy/idle power follow the DVFS factors —
  and integrates energy over the run;
* ``on_tick`` evaluates an optional autoscaling governor at a fixed
  interval, powering instances up/down (warm-up = weight reload) or
  walking a DVFS ladder, and ``on_complete`` closes the power interval
  of an instance that drained after being retired.

Everything remains deterministic for a given :class:`ControlScenario`
(a frozen dataclass of primitives), so controlled scenarios are
cacheable content keys exactly like plain serving scenarios.

Idle (leakage) energy is integrated at each instance's final operating
point; DVFS governors re-point all active instances together, so the
approximation only matters for the tick in which a transition lands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch.params import EDEA_CONFIG, ArchConfig
from ..errors import ConfigError
from ..parallel.cache import extension_field
from ..power.dvfs import DVFSModel
from ..serve.arena import RequestArena
from ..serve.engine import (
    Engine,
    EngineHooks,
    build_requests,
    summarize_requests,
)
from ..serve.fleet import Fleet
from ..serve.policies import make_policy
from ..serve.profile import DEFAULT_WEIGHT_BANDWIDTH, build_mix
from ..serve.sketch import StreamingLatencyStats, percentile
from ..serve.simulator import (
    Execution,
    ServingReport,
    _arrival_process,
    _offered_qps,
    _serving_report,
)
from .autoscale import GOVERNORS, make_governor
from .hetero import InstanceSpec, configure_instance
from .slo import (
    DEFAULT_SLO_CLASSES,
    KERNEL_ADMISSION,
    ClassStats,
    SLOClass,
    make_shedder,
)

__all__ = [
    "ControlScenario",
    "ControlHooks",
    "build_control_fleet",
    "prepare_controlled",
    "finalize_controlled",
    "execute_controlled",
    "simulate_controlled",
    "simulate_controlled_detailed",
]

_INF = float("inf")

#: Sizing governors start from the minimum fleet; pure-DVFS keeps all
#: instances powered and only moves their frequency.
_SIZING_GOVERNORS = ("utilization", "queue-delay", "predictive")


@dataclass(frozen=True)
class ControlScenario:
    """Complete, hashable description of one controlled simulation.

    The data-plane fields mirror :class:`repro.serve.ServingScenario`;
    the control-plane fields add SLO classes, shedding, the fleet's
    per-instance specs, and the autoscaling governor.

    Attributes:
        slo_classes: Priority/deadline classes; requests draw a class
            by ``share`` weight.
        shedding: Admission policy name (``none``, ``deadline``,
            ``queue-depth``, ``priority``).
        queue_threshold: Queue-depth bound for the threshold shedders.
        fleet: Per-instance ``(ArchConfig, OperatingPoint)`` specs;
            None = ``instances`` copies of the nominal spec.
        autoscale: Governor name (``none``, ``utilization``,
            ``queue-delay``, ``dvfs``).
        tick_ms: Governor evaluation interval.
        min_instances / max_instances: Sizing bounds (max defaults to
            the fleet size).
        util_low / util_high: Band thresholds for the utilization and
            DVFS governors.
        target_delay_ms: Setpoint for the queue-delay governor.
        dvfs_ladder: Voltage ladder for the DVFS governor (each run at
            its f_max), nominal-first or any order.
        forecast_alpha / forecast_beta: Holt level/trend smoothing for
            the ``predictive`` governor.
    """

    mix: str = "mixed"
    arrival: str = "poisson"
    qps: float | None = None
    burst_factor: float = 4.0
    trace: tuple[float, ...] | None = None
    requests: int = 10_000
    instances: int = 4
    policy: str = "least-loaded"
    max_batch: int = 8
    max_wait_ms: float = 2.0
    seed: int = 0
    config: ArchConfig = EDEA_CONFIG
    weight_bandwidth: float = DEFAULT_WEIGHT_BANDWIDTH
    slo_classes: tuple[SLOClass, ...] = DEFAULT_SLO_CLASSES
    shedding: str = "none"
    queue_threshold: int = 64
    fleet: tuple[InstanceSpec, ...] | None = None
    autoscale: str = "none"
    tick_ms: float = 10.0
    min_instances: int = 1
    max_instances: int | None = None
    util_low: float = 0.3
    util_high: float = 0.85
    target_delay_ms: float = 5.0
    dvfs_ladder: tuple[float, ...] = (0.6, 0.7, 0.8)
    diurnal_period_s: float = extension_field(60.0)
    diurnal_amplitude: float = extension_field(0.8)
    forecast_alpha: float = extension_field(0.5)
    forecast_beta: float = extension_field(0.2)
    stats: str = extension_field("exact")

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ConfigError(f"requests must be >= 1 ({self.requests})")
        if self.fleet is not None and not self.fleet:
            raise ConfigError("fleet spec must not be empty")
        if self.fleet is None and self.instances < 1:
            raise ConfigError(
                f"instances must be >= 1 ({self.instances})"
            )
        if not self.slo_classes:
            raise ConfigError("need at least one SLO class")
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1 ({self.max_batch})")
        if not 0 <= self.max_wait_ms < _INF:
            raise ConfigError(
                f"max_wait_ms must be finite and >= 0 ({self.max_wait_ms})"
            )
        if self.qps is not None and not 0 < self.qps < _INF:
            raise ConfigError(
                f"qps must be finite and positive ({self.qps})"
            )
        if not 0 < self.tick_ms < _INF:
            raise ConfigError(
                f"tick_ms must be finite and positive ({self.tick_ms})"
            )
        if self.stats not in ("exact", "sketch"):
            raise ConfigError(
                f"unknown stats mode {self.stats!r} "
                "(known: exact, sketch)"
            )
        # The diurnal knobs are validated by DiurnalArrivals when the
        # arrival process is built, like burst_factor by BurstyArrivals.
        if self.autoscale not in ("none", *GOVERNORS):
            known = ", ".join(["none", *sorted(GOVERNORS)])
            raise ConfigError(
                f"unknown autoscale governor {self.autoscale!r} "
                f"(known: {known})"
            )
        if self.autoscale == "dvfs" and self.fleet is not None:
            # The governor drives one shared voltage ladder; silently
            # overwriting per-instance operating points would simulate
            # a different fleet than the one requested.
            raise ConfigError(
                "the dvfs governor re-points the whole fleet along its "
                "ladder and cannot be combined with per-instance fleet "
                "specs; use a homogeneous fleet (instances=N) instead"
            )

    @property
    def fleet_specs(self) -> tuple[InstanceSpec, ...]:
        """The per-instance specs (materializing the homogeneous case)."""
        if self.fleet is not None:
            return self.fleet
        return tuple(InstanceSpec() for _ in range(self.instances))


class ControlHooks(EngineHooks):
    """The control plane as an engine hook configuration.

    Admission is the shedding policy's own ``admit`` against the
    instance the scheduler chose — the one scalar implementation of
    each rule; the tick evaluates the autoscaling governor; the
    completion hook closes the power interval of a retired instance
    once it has fully drained.
    """

    def __init__(self, shedder, governor=None) -> None:
        self.shedder = shedder
        self.governor = governor
        # A forecasting governor watches the offered rate: at each tick
        # it takes the engine's cursor (every request consumed so far,
        # admitted or shed), so no per-arrival call is needed.
        self._count_offered = getattr(governor, "count_offered", None)

    def on_arrival(self, request, instance, now, engine) -> bool:
        """Admit through the shedder, marking any preempted victim
        shed."""
        admitted, victim = self.shedder.admit(request, instance, now)
        if victim is not None:
            victim.shed = True
        return admitted

    def fast_admission(self):
        """Declare the admission rule the engine's event fold inlines
        (see :meth:`repro.serve.engine.EngineHooks.fast_admission`):
        ``on_arrival`` is the shedder alone, ``on_complete`` closes
        the powered interval of a retired instance once it drains, and
        ``on_tick`` runs the governor over the instances' counters, the
        queue lengths and the engine's cursor.  The shedder's *exact*
        type maps to the rule its ``admit`` implements
        (:data:`repro.control.slo.KERNEL_ADMISSION`); any other
        shedder is undeclared, and the fold calls the hooks at
        barriers."""
        kind = KERNEL_ADMISSION.get(type(self.shedder))
        if kind is None:
            return None
        return (kind, getattr(self.shedder, "threshold", 0))

    def on_tick(self, now, engine) -> int:
        if self.governor is None:
            return 0
        if self._count_offered is not None:
            self._count_offered(engine.state.cursor)
        return self.governor.tick(engine.fleet, now)

    def on_complete(self, instance, now, engine) -> None:
        if (
            not instance.active
            and not instance.queue
            and instance.is_idle(now)
        ):
            instance.close_power_interval(now)


def _bucket_latency_stats(latencies) -> tuple[int, float]:
    """``(completed, p99_s)`` of a summary bucket's latency entry —
    an array/list in exact mode, a sketch in sketch mode."""
    if isinstance(latencies, StreamingLatencyStats):
        count = latencies.count
        return count, (latencies.quantile(0.99) if count else 0.0)
    count = len(latencies)
    return count, (
        percentile(latencies, 99) if count else 0.0
    )


def _class_stats(
    slo_classes: tuple[SLOClass, ...], buckets: dict
) -> tuple[ClassStats, ...]:
    """Materialize per-class stats from the summary's single-pass
    buckets (``name -> [offered, met, latencies]``)."""
    stats = []
    for cls in slo_classes:
        offered, met, latencies = buckets.get(cls.name, (0, 0, []))
        completed, p99 = _bucket_latency_stats(latencies)
        stats.append(
            ClassStats(
                name=cls.name,
                priority=cls.priority,
                deadline_ms=cls.deadline_ms,
                target=cls.target,
                offered=offered,
                shed=offered - completed,
                completed=completed,
                met=met,
                attainment=met / offered if offered else 0.0,
                latency_p99_s=p99,
                model=cls.model,
            )
        )
    return tuple(stats)


def _model_stats(
    slo_classes: tuple[SLOClass, ...],
    model_buckets: dict,
    class_buckets: dict,
) -> tuple[ClassStats, ...]:
    """Per-model (tenant) aggregates, sorted by model name.

    Each model's row reuses the :class:`ClassStats` shape: offered /
    shed / met / p99 aggregate the model's whole request population;
    ``deadline_ms`` and ``target`` are offered-weighted means over the
    classes the model's traffic drew (exact when the model is bound to
    a single class) and ``priority`` is the most urgent one seen.
    """
    bound: dict[str, list[SLOClass]] = {}
    for cls in slo_classes:
        if cls.model is not None:
            bound.setdefault(cls.model, []).append(cls)
    unbound = [cls for cls in slo_classes if cls.model is None]
    stats = []
    for model in sorted(model_buckets):
        offered, met, latencies = model_buckets[model]
        completed, p99 = _bucket_latency_stats(latencies)
        classes = bound.get(model, unbound)
        weights = [
            class_buckets.get(cls.name, (0,))[0] for cls in classes
        ]
        if not sum(weights):
            weights = [1] * len(classes)
        total = sum(weights)
        deadline = sum(
            w * cls.deadline_ms for w, cls in zip(weights, classes)
        ) / total
        target = sum(
            w * cls.target for w, cls in zip(weights, classes)
        ) / total
        stats.append(
            ClassStats(
                name=model,
                priority=min(cls.priority for cls in classes),
                deadline_ms=deadline,
                target=target,
                offered=offered,
                shed=offered - completed,
                completed=completed,
                met=met,
                attainment=met / offered if offered else 0.0,
                latency_p99_s=p99,
                model=model,
            )
        )
    return tuple(stats)


def build_control_fleet(
    scenario: ControlScenario, dvfs_model: DVFSModel | None = None
):
    """Materialize the scenario's fleet: ``(fleet, mix, capacity)``.

    Each instance is configured to its ``(ArchConfig, OperatingPoint)``
    spec; ``capacity`` is the sum of per-instance service rates at the
    scenario's mix.  Split out of :func:`simulate_controlled` so
    multi-fleet scenarios (:mod:`repro.control.tenancy`) can size and
    run each member fleet with injected arrival streams.
    """
    dvfs_model = dvfs_model if dvfs_model is not None else DVFSModel()
    specs = scenario.fleet_specs
    mix = build_mix(
        scenario.mix, scenario.config, scenario.weight_bandwidth
    )
    own_mixes = {
        spec.config: build_mix(
            scenario.mix, spec.config, scenario.weight_bandwidth
        )
        for spec in specs
        if spec.config is not None and spec.config != scenario.config
    }

    fleet = Fleet(len(specs))
    capacity = 0.0
    for instance, spec in zip(fleet, specs):
        own = own_mixes.get(spec.config)
        configure_instance(instance, spec, dvfs_model, mix, own)
        service = (own or mix).mean_service_seconds()
        capacity += 1.0 / (service * instance.latency_scale)
    return fleet, mix, capacity


def _build_governor(scenario, fleet, mix, dvfs_model, tick_s):
    """The scenario's governor over ``fleet`` (None for ``"none"``),
    with sizing governors started from the minimum fleet."""
    if scenario.autoscale == "none":
        return None
    warmup_s = float(
        np.mean([p.setup_seconds for p in mix.profiles])
    )
    max_instances = (
        scenario.max_instances
        if scenario.max_instances is not None
        else len(fleet)
    )
    ladder = tuple(
        dvfs_model.operating_point(v) for v in scenario.dvfs_ladder
    )
    governor = make_governor(
        scenario.autoscale,
        tick_s=tick_s,
        min_instances=scenario.min_instances,
        max_instances=min(max_instances, len(fleet)),
        warmup_s=warmup_s,
        util_low=scenario.util_low,
        util_high=scenario.util_high,
        target_delay_s=scenario.target_delay_ms * 1e-3,
        ladder=ladder,
        dvfs_model=dvfs_model,
        profile_clock_hz=mix.profiles[0].clock_hz,
        mean_service_s=mix.mean_service_seconds(),
        forecast_alpha=scenario.forecast_alpha,
        forecast_beta=scenario.forecast_beta,
    )
    if scenario.autoscale in _SIZING_GOVERNORS:
        for instance in fleet:
            if instance.index >= scenario.min_instances:
                instance.active = False
                instance.powered_since = None
    governor.reset(fleet)
    return governor


def prepare_controlled(
    scenario: ControlScenario,
    fleet: Fleet,
    mix,
    capacity: float,
    qps: float,
    requests: RequestArena,
    dvfs_model: DVFSModel | None = None,
    *,
    obs=None,
    obs_pid: int = 0,
) -> Execution:
    """Wire the control plane over a prepared fleet and arm the engine.

    The head half of :func:`execute_controlled`: sets the busy window,
    builds the governor/policy/shedder from the scenario (all
    deterministic, RNG-free), constructs the engine with the control
    hooks, and calls ``engine.begin(requests)`` so the caller can step
    it with ``run_until``.  An active ``obs`` session registers the
    fleet and stream for telemetry derived after drain, and wraps the
    governor (if any) to log its tick-time control facts (``obs_pid``
    names the trace process, the fleet index on multi-fleet runs).
    """
    dvfs_model = dvfs_model if dvfs_model is not None else DVFSModel()
    fleet.window_end[:] = [float(requests.arrival[-1])] * len(fleet)

    tick_s = scenario.tick_ms * 1e-3
    governor = _build_governor(
        scenario, fleet, mix, dvfs_model, tick_s
    )

    policy = make_policy(scenario.policy)
    policy.reset()
    shedder = make_shedder(scenario.shedding, scenario.queue_threshold)

    if obs is not None and obs.active:
        governor = obs.observe(
            obs_pid, f"fleet {obs_pid} ({scenario.mix})", fleet,
            requests, governor,
        )
    engine = Engine(
        fleet,
        policy,
        max_batch=scenario.max_batch,
        max_wait_s=scenario.max_wait_ms * 1e-3,
        hooks=ControlHooks(shedder, governor),
        tick_s=tick_s if governor is not None else None,
    )
    engine.begin(requests)
    return Execution(
        scenario=scenario,
        fleet=fleet,
        mix=mix,
        capacity=capacity,
        qps=qps,
        requests=requests,
        engine=engine,
    )


def finalize_controlled(execution: Execution) -> ServingReport:
    """Aggregate a drained control-plane :class:`Execution` into its
    report.

    The tail half of :func:`execute_controlled`; identical whether the
    engine drained in one ``run_until(inf)`` call, in checkpointed
    slices, or after a resume in a fresh process — which is what makes
    resumed reports byte-identical to uninterrupted ones.
    """
    scenario = execution.scenario
    fleet = execution.fleet
    requests = execution.requests
    # ``last_run`` holds the run's cumulative counters on every path
    # (a run_until slice reports the totals so far, not the slice's),
    # so a resumed run reports the values an uninterrupted one does.
    run = execution.engine.last_run
    window_end = float(requests.arrival[-1])

    track_models = any(
        cls.model is not None for cls in scenario.slo_classes
    )
    summary = summarize_requests(
        requests,
        track_classes=True,
        track_models=track_models,
        stats=scenario.stats,
    )
    completed = summary.completed

    end_time = max(
        window_end,
        summary.max_finish,
        max(fleet.busy_until),
    )
    for instance in fleet:
        if instance.powered_since is not None:
            instance.close_power_interval(
                max(end_time, instance.powered_since)
            )

    energy = 0.0
    for instance in fleet:
        idle = max(0.0, instance.powered_seconds - instance.busy_seconds)
        energy += instance.energy_joules + idle * instance.idle_power_w

    return _serving_report(
        scenario,
        summary,
        fleet,
        run,
        offered=len(requests),
        window_end=window_end,
        qps=execution.qps,
        capacity=execution.capacity,
        makespan=end_time,
        instances=len(fleet),
        energy_joules=float(energy),
        joules_per_request=(
            float(energy / completed) if completed else None
        ),
        class_stats=_class_stats(
            scenario.slo_classes, summary.class_buckets
        ),
        model_stats=(
            _model_stats(
                scenario.slo_classes,
                summary.model_buckets,
                summary.class_buckets,
            )
            if track_models
            else ()
        ),
        autoscale_events=run.tick_actions,
        mean_active_instances=(
            sum(fleet.powered_seconds) / end_time
            if end_time > 0
            else 0.0
        ),
    )


def execute_controlled(
    scenario: ControlScenario,
    fleet: Fleet,
    mix,
    capacity: float,
    qps: float,
    requests: RequestArena,
    dvfs_model: DVFSModel | None = None,
    *,
    obs=None,
    obs_pid: int = 0,
) -> ServingReport:
    """Drive one prepared fleet over an already-built request stream.

    The tail half of :func:`simulate_controlled`: wires the control
    hooks, runs the engine to drain, and aggregates the report —
    now composed of :func:`prepare_controlled` and
    :func:`finalize_controlled` around one unbounded ``run_until``.
    Multi-fleet simulation reuses it per member fleet with correlated
    (and spillover-merged) streams the caller generated.
    """
    execution = prepare_controlled(
        scenario, fleet, mix, capacity, qps, requests,
        dvfs_model=dvfs_model, obs=obs, obs_pid=obs_pid,
    )
    execution.engine.run_until(_INF)
    return finalize_controlled(execution)


def _control_inputs(scenario: ControlScenario, dvfs_model: DVFSModel):
    """The control plane's input head: the configured fleet and the
    materialized request stream, shared by one-shot and checkpointed
    runs (identical RNG consumption).

    Returns ``(fleet, mix, capacity, qps, requests, rng)``; ``rng``
    is positioned just past stream construction.
    """
    fleet, mix, capacity = build_control_fleet(scenario, dvfs_model)
    qps = _offered_qps(scenario, capacity)
    arrivals, n, rng = _arrival_process(scenario, qps)
    requests = build_requests(
        mix, arrivals.times(n, rng), rng, slo_classes=scenario.slo_classes
    )
    return fleet, mix, capacity, qps, requests, rng


def simulate_controlled_detailed(
    scenario: ControlScenario,
    *,
    obs=None,
) -> tuple[ServingReport, list]:
    """Like :func:`simulate_controlled`, also returning the drained
    request objects (windowed tail analyses, e.g. p99 over a diurnal
    ramp, need per-request outcomes the aggregate report folds away).
    """
    dvfs_model = DVFSModel()
    fleet, mix, capacity, qps, requests, _ = _control_inputs(
        scenario, dvfs_model
    )
    report = execute_controlled(
        scenario, fleet, mix, capacity, qps, requests,
        dvfs_model=dvfs_model, obs=obs,
    )
    return report, requests


def simulate_controlled(
    scenario: ControlScenario, *, obs=None
) -> ServingReport:
    """Run one controlled scenario to completion.

    Deterministic for a given scenario; safe to cache and to fan out
    across worker processes.  Returns a :class:`ServingReport` with the
    control-plane fields (energy, shedding, per-class attainment, and —
    with model-bound SLO classes — per-model ``model_stats``) filled
    in; ``requests`` is the *completed* count and ``offered_requests``
    the admitted + shed total.
    """
    report, _ = simulate_controlled_detailed(scenario, obs=obs)
    return report
