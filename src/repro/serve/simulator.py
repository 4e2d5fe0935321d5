"""Request-level serving simulation over a fleet of accelerators.

One :func:`simulate` call plays a whole serving story: requests arrive
under a configured traffic process, a scheduling policy routes each one
to an instance, per-instance batching queues amortize model switches,
and every service time is the deterministic fastpath latency of the
request's network.  The event machinery itself lives in
:mod:`repro.serve.engine` — ``simulate`` is a thin configuration of the
shared kernel with all hooks at their no-op defaults, the same kernel
the SLO/energy control plane (:func:`repro.control.simulate_controlled`)
drives through its admission/governor hooks.

Everything is deterministic for a given :class:`ServingScenario`
(a frozen dataclass of primitives), which makes scenarios cacheable
content keys and reports reproducible across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch.params import EDEA_CONFIG, ArchConfig
from ..errors import ConfigError
from ..parallel.cache import extension_field, restore_extended
from .arena import RequestArena
from .arrival import capture_rng_state, make_arrivals
from .engine import (
    Engine,
    EngineHooks,
    EngineRun,
    RequestSummary,
    build_requests,
    run_streaming_round_robin,
    summarize_requests,
)
from .fleet import Fleet
from .policies import make_policy
from .profile import DEFAULT_WEIGHT_BANDWIDTH, build_mix

__all__ = [
    "ServingScenario",
    "ServingReport",
    "Execution",
    "prepare_serving",
    "finalize_serving",
    "simulate",
]

#: Default offered load as a fraction of fleet capacity when no QPS is
#: requested: high enough to queue, low enough to be stable.
_DEFAULT_LOAD = 0.7

_INF = float("inf")


@dataclass(frozen=True)
class ServingScenario:
    """Complete, hashable description of one serving simulation.

    Attributes:
        mix: Scenario mix name (see
            :data:`repro.serve.profile.SCENARIO_MIXES`).
        arrival: Traffic shape: ``"poisson"``, ``"bursty"``,
            ``"diurnal"``, ``"trace"``.
        qps: Offered rate; ``None`` picks 70% of fleet capacity.
        burst_factor: Burst multiplier for bursty traffic.
        trace: Arrival timestamps for trace replay.
        requests: Number of requests to play (traces clamp to length).
        instances: Fleet size.
        policy: Scheduling policy name.
        max_batch: Largest same-model batch an instance launches.
        max_wait_ms: Longest a queue head waits for its batch to fill.
        seed: RNG seed (arrival draws and mix sampling).
        config: Architecture parameters for the service-time model.
        weight_bandwidth: External bandwidth for model switches.
        diurnal_period_s: One day/night cycle for diurnal traffic.
        diurnal_amplitude: Peak-to-mean swing of the diurnal rate.
        stats: ``"exact"`` retains every latency and reports exact
            percentiles (the PR-4 behaviour, bit-for-bit); ``"sketch"``
            streams latencies through a t-digest
            (:mod:`repro.serve.sketch`) so memory stays flat in
            ``requests`` — and, for hook-free round-robin scenarios,
            generates arrivals chunk-at-a-time too (the
            million-request mode).  Streaming interleaves arrival and
            model draws per chunk, so its RNG stream (and therefore
            its request content) differs from exact mode at the same
            seed; sketch-mode scenarios hash to distinct cache keys,
            so cached exact reports are never shadowed.
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
    diurnal_period_s: float = extension_field(60.0)
    diurnal_amplitude: float = extension_field(0.8)
    stats: str = extension_field("exact")

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ConfigError(f"requests must be >= 1 ({self.requests})")
        if self.instances < 1:
            raise ConfigError(f"instances must be >= 1 ({self.instances})")
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
        if self.stats not in ("exact", "sketch"):
            raise ConfigError(
                f"unknown stats mode {self.stats!r} "
                "(known: exact, sketch)"
            )
        # The diurnal knobs are validated by DiurnalArrivals when the
        # arrival process is built, like burst_factor by BurstyArrivals.


@dataclass(frozen=True)
class ServingReport:
    """Aggregate outcome of one serving simulation.

    Latencies are arrival-to-completion, in seconds.  ``utilization``
    is each instance's busy fraction of the makespan;
    ``per_model_counts`` is sorted ``(model, completed)`` pairs.

    The makespan includes the drain after the last arrival, which
    understates steady-state utilization, so ``utilization_busy`` also
    reports each instance's busy fraction of the *busy window* — the
    offered-traffic span ``[0, last arrival]`` (``busy_window_s``), with
    busy time truncated to it.

    Control-plane runs (:func:`repro.control.simulate_controlled`) fill
    the remaining fields: ``requests`` is then the *completed* count,
    ``offered_requests``/``shed_requests`` split the offered traffic,
    ``class_stats`` holds per-SLO-class
    :class:`~repro.control.slo.ClassStats`, and the energy fields
    integrate per-instance power over the run (None outside the control
    plane).
    """

    mix: str
    arrival: str
    policy: str
    instances: int
    requests: int
    offered_qps: float
    capacity_qps: float
    makespan_s: float
    sustained_qps: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    latency_max_s: float
    mean_wait_s: float
    mean_batch_size: float
    setups: int
    utilization: tuple[float, ...]
    served_per_instance: tuple[int, ...]
    per_model_counts: tuple[tuple[str, int], ...]
    busy_window_s: float = 0.0
    utilization_busy: tuple[float, ...] = ()
    offered_requests: int = 0
    shed_requests: int = 0
    energy_joules: float | None = None
    joules_per_request: float | None = None
    class_stats: tuple = ()
    autoscale_events: int = 0
    mean_active_instances: float | None = None
    #: Per-model (tenant) aggregates, filled only when the scenario
    #: binds SLO classes to models (kept empty otherwise so the JSON
    #: form of pre-existing reports is byte-stable).
    model_stats: tuple = ()
    #: Engine execution counters — diagnostics about *how* the run
    #: executed, not *what* it computed.  ``compare=False`` keeps
    #: report equality (parity goldens, cache round-trips, the
    #: multi-fleet reference check) about the physics, and
    #: ``report_to_dict`` drops them so the JSON report payloads stay
    #: byte-stable; the CLI surfaces them in a separate section.
    engine_events: int = field(default=0, compare=False)
    engine_dispatch: str = field(default="", compare=False)
    #: Always at their defaults since the engine lost its heap loop;
    #: kept because the end-to-end benchmark's traced child reads them.
    engine_peak_heap: int = field(default=0, compare=False)
    engine_fallback: str = field(default="", compare=False)

    def __setstate__(self, state: dict) -> None:
        # Reports unpickled from caches written before a field existed
        # backfill its default (see restore_extended).
        restore_extended(self, state)

    @property
    def offered_load(self) -> float:
        """Offered rate as a fraction of fleet capacity (rho)."""
        if self.capacity_qps <= 0:
            return 0.0
        return self.offered_qps / self.capacity_qps

    @property
    def mean_utilization(self) -> float:
        return float(np.mean(self.utilization))

    @property
    def mean_utilization_busy(self) -> float:
        """Mean busy-window utilization (steady-state view)."""
        if not self.utilization_busy:
            return self.mean_utilization
        return float(np.mean(self.utilization_busy))

    @property
    def slo_attainment(self) -> float | None:
        """Offered-weighted fraction of requests meeting their deadline
        (shed requests count as misses); None without SLO classes."""
        if not self.class_stats:
            return None
        offered = sum(cs.offered for cs in self.class_stats)
        if offered == 0:
            return None
        return sum(cs.met for cs in self.class_stats) / offered


def simulate(
    scenario: ServingScenario,
    hooks: EngineHooks | None = None,
    *,
    obs=None,
) -> ServingReport:
    """Run one serving scenario to completion.

    Deterministic for a given scenario; safe to cache and to fan out
    across worker processes.

    Args:
        scenario: The frozen scenario description.
        hooks: Optional custom :class:`~repro.serve.engine.EngineHooks`
            (e.g. an admission controller); the default runs the plain
            data plane.  A shedding hook makes the report's completed
            count diverge from the offered one — all throughput and
            batch statistics are computed from requests that actually
            *entered* a batch, never from shed traffic.
        obs: Optional :class:`~repro.obs.Observability` session; an
            active one registers the run for telemetry derived after
            drain — the execution path and the physics are unchanged,
            with one exception.  A ``stats="sketch"`` round-robin
            scenario with ``max_wait_ms > 0`` streams unobserved
            (chunk-interleaved RNG draws, its own busy-time float
            order, no arena); observed, it builds the arena and
            dispatches ``"rr"``.  Up to one chunk (65,536 requests)
            the reports differ in the last bits of utilization, mean
            wait and p50; above it the two simulate different streams
            (100k requests, seed 1: p99 14.22 ms unobserved, 15.27 ms
            with ``metrics_every_s=0.5``).
    """
    if (
        scenario.stats == "sketch"
        and hooks is None
        and (obs is None or not obs.active)
        and scenario.policy == "round-robin"
        and scenario.max_wait_ms > 0
    ):
        return _simulate_streaming(scenario)
    execution = prepare_serving(scenario, hooks, obs=obs)
    execution.engine.run(execution.requests)
    return finalize_serving(execution)


@dataclass
class Execution:
    """One built serve- or control-plane run, ready to execute.

    :func:`prepare_serving` materializes it, and
    :func:`~repro.control.simulator.prepare_controlled` also arms it
    (``engine.begin``).  The caller drives ``engine`` — to drain in
    one ``run_until(inf)`` (``engine.run(requests)`` is ``begin`` plus
    that), or in bounded ``run_until`` slices for checkpointed
    execution; either way the engine alone decides whether a columnar
    fast path serves the run — and :func:`finalize_serving` /
    :func:`~repro.control.simulator.finalize_controlled` aggregates
    the drained execution into its :class:`ServingReport`.  The busy
    window ends at the last arrival, ``requests.arrival[-1]``.
    """

    scenario: object
    fleet: Fleet
    mix: object
    capacity: float
    qps: float
    requests: RequestArena
    engine: Engine
    #: Bit-generator state captured right after stream construction —
    #: all randomness is consumed pre-run, so this is the position a
    #: checkpoint must round-trip exactly (``None`` when the caller
    #: built the stream elsewhere, e.g. a multi-fleet member).
    rng_state: dict | None = None


def _offered_qps(scenario, capacity: float) -> float:
    """The offered rate of a serve- or control-plane scenario: its
    ``qps``, or :data:`_DEFAULT_LOAD` of fleet ``capacity`` if unset."""
    if scenario.qps is not None:
        return scenario.qps
    return _DEFAULT_LOAD * capacity


def _arrival_process(scenario, qps: float):
    """``(arrivals, n, rng)`` for a serve- or control-plane scenario:
    its arrival process at ``qps``, the number of requests to play (a
    trace clamps it), and the seeded generator the stream draws from."""
    arrivals = make_arrivals(
        scenario.arrival,
        qps,
        burst_factor=scenario.burst_factor,
        trace=scenario.trace,
        diurnal_period_s=scenario.diurnal_period_s,
        diurnal_amplitude=scenario.diurnal_amplitude,
    )
    n = scenario.requests
    if scenario.arrival == "trace":
        n = min(n, len(scenario.trace))
    return arrivals, n, np.random.default_rng(scenario.seed)


def _serve_inputs(scenario: ServingScenario):
    """The serve plane's input head, shared by every build path:
    ``(mix, capacity, qps, arrivals, n, rng)``."""
    mix = build_mix(
        scenario.mix, scenario.config, scenario.weight_bandwidth
    )
    capacity = scenario.instances / mix.mean_service_seconds()
    qps = _offered_qps(scenario, capacity)
    return (mix, capacity, qps, *_arrival_process(scenario, qps))


def prepare_serving(
    scenario: ServingScenario,
    hooks: EngineHooks | None = None,
    *,
    obs=None,
) -> Execution:
    """Build the non-streaming execution for ``scenario``.

    The head half of :func:`simulate` (identical build sequence, so
    identical RNG consumption): mix, capacity, arrival stream, request
    arena, then the fleet, busy window, policy, telemetry registration
    and the engine.  Always takes the build-then-run path, never the
    chunk-interleaved streaming mode.
    """
    mix, capacity, qps, arrivals, n, rng = _serve_inputs(scenario)
    requests = build_requests(mix, arrivals.times(n, rng), rng)
    fleet = Fleet(scenario.instances)
    fleet.window_end[:] = [float(requests.arrival[-1])] * len(fleet)
    policy = make_policy(scenario.policy)
    policy.reset()

    if obs is not None and obs.active:
        obs.observe(0, f"fleet ({scenario.mix})", fleet, requests)
    engine = Engine(
        fleet,
        policy,
        max_batch=scenario.max_batch,
        max_wait_s=scenario.max_wait_ms * 1e-3,
        hooks=hooks,
    )
    return Execution(
        scenario=scenario,
        fleet=fleet,
        mix=mix,
        capacity=capacity,
        qps=qps,
        requests=requests,
        engine=engine,
        rng_state=capture_rng_state(rng),
    )


def _serving_report(
    scenario,
    summary: RequestSummary,
    fleet: Fleet,
    run: EngineRun,
    *,
    offered: int,
    window_end: float,
    qps: float,
    capacity: float,
    makespan: float,
    instances: int,
    **control_fields,
) -> ServingReport:
    """The report fields every finalizer shares, from one drained run.

    ``summary`` answers the latency reads in either stats mode
    (streaming included), ``run`` carries the engine counters,
    ``offered`` is the played request count and ``window_end`` the
    last arrival.  ``makespan`` and ``instances`` are the plane's own
    (the control plane's makespan runs to its power horizon);
    ``control_fields`` are its energy, class, model and autoscale
    fields.
    """
    completed = summary.completed
    # Trace replays report the rate of the prefix actually played,
    # everything else the configured rate.
    if scenario.arrival == "trace":
        offered_qps = (
            offered / window_end if window_end > 0 else float(offered)
        )
    else:
        offered_qps = float(qps)
    total_batches = sum(fleet.batches)
    # An all-shed run (a shedding hook under heavy overload) completes
    # nothing: report explicit zeros instead of feeding empty arrays to
    # mean/percentile (NaN + RuntimeWarning).
    return ServingReport(
        mix=scenario.mix,
        arrival=scenario.arrival,
        policy=scenario.policy,
        instances=instances,
        requests=completed,
        offered_qps=offered_qps,
        capacity_qps=float(capacity),
        makespan_s=makespan,
        sustained_qps=completed / makespan if makespan > 0 else 0.0,
        latency_mean_s=summary.latency_mean() if completed else 0.0,
        latency_p50_s=(
            summary.latency_percentile(50) if completed else 0.0
        ),
        latency_p95_s=(
            summary.latency_percentile(95) if completed else 0.0
        ),
        latency_p99_s=(
            summary.latency_percentile(99) if completed else 0.0
        ),
        latency_max_s=summary.latency_max() if completed else 0.0,
        mean_wait_s=summary.wait_mean() if completed else 0.0,
        # Shed requests never enter a batch: the mean batch size is
        # completed (served) work per launch, not offered work.
        mean_batch_size=(
            completed / total_batches if total_batches else 0.0
        ),
        setups=sum(fleet.setups),
        utilization=tuple(
            i.busy_seconds / makespan if makespan > 0 else 0.0
            for i in fleet
        ),
        served_per_instance=tuple(fleet.served),
        per_model_counts=summary.model_counts,
        busy_window_s=window_end,
        utilization_busy=tuple(
            i.busy_seconds_window / window_end if window_end > 0 else 0.0
            for i in fleet
        ),
        offered_requests=offered,
        shed_requests=offered - completed,
        engine_events=run.events,
        engine_dispatch=run.dispatch,
        **control_fields,
    )


def finalize_serving(execution: Execution) -> ServingReport:
    """Aggregate a drained serve-plane :class:`Execution` into its
    report.

    The tail half of :func:`simulate`; identical whether the engine
    drained via ``run``, via checkpointed ``run_until`` slices, or
    after a resume in a fresh process.
    """
    scenario = execution.scenario
    summary = summarize_requests(execution.requests, stats=scenario.stats)
    return _serving_report(
        scenario,
        summary,
        execution.fleet,
        execution.engine.last_run,
        offered=len(execution.requests),
        window_end=float(execution.requests.arrival[-1]),
        qps=execution.qps,
        capacity=execution.capacity,
        makespan=summary.max_finish if summary.completed else 0.0,
        instances=scenario.instances,
    )


def _simulate_streaming(scenario: ServingScenario) -> ServingReport:
    """The flat-memory round-robin mode behind ``stats="sketch"``.

    Arrivals are generated chunk-at-a-time and fed through the same
    vectorized round-robin kernel the exact fast path uses (see
    :func:`repro.serve.engine.run_streaming_round_robin`); completed
    latencies fold into a t-digest and are discarded.  Only hook-free
    round-robin scenarios with a positive batching timeout qualify —
    anything else takes the ordinary build-then-run path with sketch
    summarization (still flat in *latency retention*, not in arrival
    storage).
    """
    mix, capacity, qps, arrivals, n, rng = _serve_inputs(scenario)
    fleet = Fleet(scenario.instances)
    stream = run_streaming_round_robin(
        fleet,
        mix,
        arrivals,
        n,
        rng,
        max_batch=scenario.max_batch,
        max_wait_s=scenario.max_wait_ms * 1e-3,
    )
    return _serving_report(
        scenario,
        stream,
        fleet,
        EngineRun(
            events=stream.events, tick_actions=0, dispatch="streaming"
        ),
        offered=n,
        window_end=stream.window_end,
        qps=qps,
        capacity=capacity,
        makespan=stream.max_finish if stream.completed else 0.0,
        instances=scenario.instances,
    )
