"""Multi-tenant, multi-fleet serving: correlated traffic + spillover.

One :class:`MultiFleetScenario` co-simulates N member fleets (each a
full :class:`~repro.control.simulator.ControlScenario`: its own
instances, SLO classes — including per-model bindings — shedding and
governor) whose arrival processes are *correlated*: a single latent
modulating factor (:class:`repro.serve.arrival.SharedModulator`, a
day/night sinusoid or a sampled MMPP burst state) multiplies every
fleet's offered rate at the same simulated instant, while each fleet's
arrival jitter comes from an independent substream of the scenario's
master seed.  That is the regional-spike story a production control
plane cannot avoid: when the modulator peaks, *every* fleet peaks
together, so one fleet's headroom is only real if the spike leaves any.

Cross-fleet **spillover** exploits exactly that headroom: a fleet whose
offered load exceeds its capacity (``rho > 1``) forwards the requests
its admission controller shed — when their deadlines survive a
forwarding hop plus the sibling's service time — to the sibling with
the most headroom.  Donor fleets run first and receivers after, so a
forwarded request arrives in the receiver's event order at
``arrival + hop`` and takes its chances against the receiver's own
admission control; spillover can never loop back into a fleet that
already ran.

Every member fleet is its own :class:`~repro.serve.engine.Engine`,
advanced through :meth:`~repro.serve.engine.Engine.run_until`-bounded
*epochs* with the spillover exchange at the phase barrier (donors
drain, shed rows are forwarded, receivers merge and drain).  Epoch
length and process sharding (``epoch_s``/``jobs``, keyword-only) are
execution details — any positive epoch and any job count reproduce
the identical report — and everything — the latent path, per-fleet
thinning, engine order — is a pure function of the frozen scenario,
so multi-fleet reports are cacheable content keys exactly like
single-fleet ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigError
from ..parallel.executor import ParallelExecutor
from ..power.dvfs import DVFSModel
from ..serve.arena import RequestArena
from ..serve.arrival import SharedModulator
from ..serve.engine import build_requests
from ..serve.fleet import Request
from ..serve.simulator import ServingReport
from .simulator import (
    _DEFAULT_LOAD,
    ControlScenario,
    build_control_fleet,
    finalize_controlled,
    prepare_controlled,
)
from .slo import SLOClass

__all__ = [
    "MultiFleetScenario",
    "MultiFleetReport",
    "simulate_multi_fleet",
]


@dataclass(frozen=True)
class MultiFleetScenario:
    """Complete, hashable description of one correlated multi-fleet run.

    Attributes:
        fleets: Member fleets.  Each member's data- and control-plane
            knobs apply unchanged, except its ``arrival``/``trace``/
            ``seed`` fields: arrivals come from the shared modulator
            on substreams of the master ``seed`` below.
        modulator: Latent factor kind — ``"diurnal"`` (deterministic
            day/night sinusoid) or ``"burst"`` (one sampled MMPP-2
            state path all fleets share).
        period_s / amplitude: Diurnal cycle and swing (amplitude in
            [0, 1), as in :class:`~repro.serve.arrival.DiurnalArrivals`).
        burst_factor / burst_share / mean_dwell_s: MMPP-2 parameters
            for ``modulator="burst"``.
        spillover: ``"none"`` or ``"deadline"`` — fleets at rho > 1
            forward shed, deadline-feasible requests to the sibling
            with the most headroom.
        spillover_hop_ms: Forwarding latency a spilled request pays
            before it reaches the sibling.
        seed: Master seed; substream 0 drives the latent burst path
            and substream k+1 fleet k's thinning and request draws.
    """

    fleets: tuple[ControlScenario, ...]
    modulator: str = "diurnal"
    period_s: float = 60.0
    amplitude: float = 0.8
    burst_factor: float = 4.0
    burst_share: float = 0.2
    mean_dwell_s: float = 0.05
    spillover: str = "none"
    spillover_hop_ms: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.fleets:
            raise ConfigError(
                "multi-fleet scenario needs at least one fleet"
            )
        if self.spillover not in ("none", "deadline"):
            raise ConfigError(
                f"unknown spillover policy {self.spillover!r} "
                "(known: none, deadline)"
            )
        if self.spillover_hop_ms < 0:
            raise ConfigError(
                "spillover_hop_ms must be >= 0 "
                f"({self.spillover_hop_ms})"
            )
        for scenario in self.fleets:
            if scenario.arrival == "trace":
                raise ConfigError(
                    "member fleets cannot replay traces: multi-fleet "
                    "arrivals come from the shared modulator"
                )
        if self.spillover != "none" and all(
            scenario.shedding == "none" for scenario in self.fleets
        ):
            # Only *shed* requests are eligible to spill; without any
            # admission control the flag would silently forward nothing.
            raise ConfigError(
                "spillover forwards shed requests, but every member "
                "fleet runs shedding='none' — give at least the "
                "overloaded fleets a shedding policy (e.g. 'deadline')"
            )
        # Validates the modulator parameters (incl. amplitude < 1).
        self.shared_modulator()

    def shared_modulator(self) -> SharedModulator:
        return SharedModulator(
            kind=self.modulator,
            period_s=self.period_s,
            amplitude=self.amplitude,
            burst_factor=self.burst_factor,
            burst_share=self.burst_share,
            mean_dwell_s=self.mean_dwell_s,
        )


@dataclass(frozen=True)
class MultiFleetReport:
    """Aggregate outcome of one multi-fleet run.

    ``fleets`` holds each member's :class:`ServingReport` over the
    traffic *its engine processed* (home arrivals plus received
    spill-ins), so per-fleet conservation reads directly off it.  The
    aggregate fields account end-to-end per *original* request: a
    request that was shed at home, forwarded, and completed at a
    sibling counts as completed (and met, when its original deadline
    held), and only terminally dropped requests count as shed.

    Attributes:
        offered_requests: Requests generated across all fleets.
        completed_requests: Completed anywhere (home or sibling).
        shed_requests: Terminally dropped (never completed anywhere).
        spilled_requests: Forwarded to a sibling.
        spill_completed: Forwarded and completed there.
        spill_met: Forwarded and completed within the original
            deadline (the hop included) — the spillover's actual SLO
            contribution, not just its throughput one.
        met_requests: Completed within the original deadline.
        attainment: ``met / offered`` (shed requests are misses).
        latency_p99_s: p99 of original-arrival-to-final-completion
            (spilled requests include the forwarding hop).
        energy_joules: Total across fleets.
        offered_load: Per-fleet rho (offered QPS over capacity).
    """

    fleets: tuple[ServingReport, ...]
    modulator: str
    spillover: str
    offered_requests: int
    completed_requests: int
    shed_requests: int
    spilled_requests: int
    spill_completed: int
    spill_met: int
    met_requests: int
    attainment: float
    latency_p99_s: float
    energy_joules: float
    offered_load: tuple[float, ...]

    @property
    def conserved(self) -> bool:
        """offered == completed + terminally shed, end to end."""
        return (
            self.offered_requests
            == self.completed_requests + self.shed_requests
        )


def _forward_target(
    request: Request,
    receivers: list[int],
    mixes: dict,
    hop_s: float,
):
    """The sibling a shed request spills to: the first receiver (most
    headroom first) that serves the model and can still make the
    deadline to first order — hop plus one nominal service time."""
    for k in receivers:
        mix = mixes[k]
        profile = None
        for p in mix.profiles:
            if p.name == request.model:
                profile = p
                break
        if profile is None:
            continue
        if (
            request.arrival + hop_s + profile.per_image_seconds
            <= request.deadline
        ):
            return k, profile
    return None, None


def _drain_epochs(engine, arena, epoch_s: float) -> list[int]:
    """Advance one member engine to drain in ``epoch_s``-bounded
    ``run_until`` slices.

    Returns the arena rows the member's admission control shed, in
    stream order, collected per consumed arrival-cursor window — the
    rows eligible for spillover at the next exchange barrier.  (Sheds
    happen only at admission, so the concatenated windows cover every
    shed request exactly once.)  ``arena`` may be ``None`` when the
    caller does not forward (receivers, plain lists of merged views).

    The slicing is bit-for-bit the one-shot run: ``run_until`` is the
    same loop with a horizon check.
    """
    shed_rows: list[int] = []
    prev = engine.state.cursor
    t = epoch_s
    while not engine.finished:
        engine.run_until(t)
        cursor = engine.state.cursor
        if arena is not None and cursor > prev:
            shed_rows.extend(arena.shed_indices(prev, cursor))
        prev = cursor
        t += epoch_s
    return shed_rows


def _member_point(payload: dict):
    """Worker half of the spillover barrier: run one member fleet.

    ``payload`` is checkpoint-shaped — the member's frozen scenario
    plus its materialized request stream (home arena, and for
    receivers the spill-in clones forwarded at the barrier).  The
    worker rebuilds the fleet deterministically, epoch-steps the
    engine to drain, and ships back the report together with the
    mutated outcome columns, which the parent overlays by stream
    position (subprocess arena mutations never propagate by
    themselves).
    """
    member = payload["scenario"]
    home = payload["requests"]
    clones = payload["spill_ins"]
    epoch_s = payload["epoch_s"]
    if clones:
        # Stable by arrival: home requests keep their relative order,
        # spill-ins theirs — identical to the parent-side merge.
        stream = sorted(
            [*home, *clones],
            key=lambda request: request.arrival,
        )
        for i, request in enumerate(stream):
            request.index = i
    else:
        stream = home
    dvfs_model = DVFSModel()
    fleet, mix, capacity = build_control_fleet(member, dvfs_model)
    qps = (
        member.qps
        if member.qps is not None
        else _DEFAULT_LOAD * capacity
    )
    stream_times = np.array(
        [request.arrival for request in stream]
    )
    execution = prepare_controlled(
        member, fleet, mix, capacity, qps,
        stream_times, stream, dvfs_model=dvfs_model,
    )
    _drain_epochs(execution.engine, None, epoch_s)
    report = finalize_controlled(execution)
    return (
        report,
        home.shed.copy(),
        home.start.copy(),
        home.finish.copy(),
        home.instance.copy(),
        [(clone.shed, clone.finish, clone.instance) for clone in clones],
    )


def simulate_multi_fleet(
    scenario: MultiFleetScenario,
    *,
    epoch_s: float | None = None,
    jobs: int = 1,
    obs=None,
) -> MultiFleetReport:
    """Run one correlated multi-fleet scenario to completion.

    Deterministic for a given scenario; safe to cache and to fan out
    across worker processes.  Both knobs below are keyword-only
    execution details — they never perturb the result or the cache
    content key.

    Args:
        scenario: The frozen scenario description.
        epoch_s: Spillover epoch length in simulated seconds (default:
            the scenario's modulator ``period_s``).  Each member fleet
            advances through its run in ``run_until(epoch)`` slices,
            collecting newly shed requests per consumed arrival-cursor
            window; the donor -> receiver exchange happens at the
            barrier between the donor and receiver phases.  Any
            positive value yields the identical report — the slicing
            is bit-for-bit the one-shot run.
        jobs: Worker processes for the member fleets (``1`` = serial).
            Donors shard across processes first, receivers after the
            exchange barrier; each worker gets a checkpoint-shaped
            payload (scenario + materialized stream) and returns its
            report plus the mutated outcome columns, overlaid by
            stream position.
        obs: Optional :class:`~repro.obs.Observability` session; an
            active one records every member fleet into one shared
            trace (fleet k is trace process k) plus a spillover
            instant per forwarded request.  Telemetry is derived from
            the members' in-process streams (and governor logs), so an
            active session runs the members serially regardless of
            ``jobs`` — same report.
    """
    modulator = scenario.shared_modulator()
    path = modulator.build_path(
        np.random.default_rng([scenario.seed, 0])
    )
    dvfs_model = DVFSModel()
    if epoch_s is None:
        epoch_s = scenario.period_s
    if epoch_s <= 0:
        raise ConfigError(
            f"epoch_s must be positive ({epoch_s})"
        )

    n_fleets = len(scenario.fleets)
    setups = []  # (fleet, mix, capacity) per member
    rates = []
    for member in scenario.fleets:
        fleet, mix, capacity = build_control_fleet(member, dvfs_model)
        setups.append((fleet, mix, capacity))
        rates.append(
            member.qps
            if member.qps is not None
            else _DEFAULT_LOAD * capacity
        )

    rhos = [
        rates[k] / setups[k][2] if setups[k][2] > 0 else 0.0
        for k in range(n_fleets)
    ]

    # Correlated arrivals: every fleet thins against the one shared
    # path on its own substream, then draws its request content
    # (models, classes) from the same substream — exactly the
    # single-fleet draw order, per fleet.
    home_requests = []
    for k, member in enumerate(scenario.fleets):
        rng = np.random.default_rng([scenario.seed, k + 1])
        fleet_times = modulator.fleet_times(
            member.requests, rates[k], path, rng
        )
        home_requests.append(
            build_requests(
                setups[k][1],
                fleet_times,
                rng,
                slo_classes=member.slo_classes,
            )
        )

    spill = scenario.spillover != "none"
    donors = [k for k in range(n_fleets) if spill and rhos[k] > 1.0]
    receivers = sorted(
        (k for k in range(n_fleets) if k not in donors),
        key=lambda k: (rhos[k], k),
    )
    hop_s = scenario.spillover_hop_ms * 1e-3
    mixes = {k: setups[k][1] for k in receivers}

    arrival_label = f"shared-{scenario.modulator}"
    reports: list[ServingReport | None] = [None] * n_fleets
    # clone -> original, to fold sibling outcomes back per request.
    spilled: list[tuple[Request, Request]] = []
    # Views are created on demand, so identity is per access; key
    # forwarded originals by (fleet, index) instead of id().
    forwarded: set[tuple[int, int]] = set()
    spill_ins: list[list[Request]] = [[] for _ in range(n_fleets)]
    # Donor class specs by name (first definition wins), so a receiver
    # can report spill-ins whose class it does not define itself.
    class_specs: dict[str, SLOClass] = {}
    for member in scenario.fleets:
        for cls in member.slo_classes:
            class_specs.setdefault(cls.name, cls)

    def member_scenario(k: int):
        member = replace(
            scenario.fleets[k], arrival=arrival_label
        )
        own = {cls.name for cls in member.slo_classes}
        foreign = []
        for request in spill_ins[k]:
            if request.slo not in own:
                own.add(request.slo)
                foreign.append(class_specs[request.slo])
        if foreign:
            # Spill-ins keep their donor class: grow the receiver's
            # reporting classes so its per-class table and attainment
            # cover every request its engine processed.
            member = replace(
                member,
                slo_classes=member.slo_classes + tuple(foreign),
            )
        return member

    def run_member(k: int, requests) -> list[int]:
        """In-process member run: epoch-stepped on the parent's own
        fleet and arena; returns the shed rows (stream order)."""
        fleet, mix, capacity = setups[k]
        stream_times = np.array(
            [request.arrival for request in requests]
        )
        execution = prepare_controlled(
            member_scenario(k), fleet, mix, capacity, rates[k],
            stream_times, requests, dvfs_model=dvfs_model,
            obs=obs, obs_pid=k,
        )
        arena = requests if isinstance(requests, RequestArena) else None
        shed_rows = _drain_epochs(execution.engine, arena, epoch_s)
        reports[k] = finalize_controlled(execution)
        return shed_rows

    def forward(k: int, shed_rows: list[int]) -> None:
        """Donor k's barrier exchange: spill its shed rows to the
        sibling with the most headroom that can still make the
        deadline."""
        if not receivers:
            return
        arena = home_requests[k]
        for row in shed_rows:
            request = arena.view(row)
            target, profile = _forward_target(
                request, receivers, mixes, hop_s
            )
            if target is None:
                continue
            clone = Request(
                index=0,  # re-indexed after the receiver merge
                model=request.model,
                profile=profile,
                arrival=request.arrival + hop_s,
                slo=request.slo,
                priority=request.priority,
                deadline=request.deadline,
            )
            spilled.append((clone, request))
            forwarded.add((k, request.index))
            spill_ins[target].append(clone)
            if obs is not None:
                obs.spill(
                    k, target, request, scenario.spillover_hop_ms
                )

    def payload(k: int) -> dict:
        return {
            "kind": "control",
            "scenario": member_scenario(k),
            "requests": home_requests[k],
            "spill_ins": list(spill_ins[k]),
            "epoch_s": epoch_s,
        }

    def overlay(k: int, result) -> list[int]:
        (
            report, shed_col, start_col, finish_col, instance_col,
            clone_out,
        ) = result
        reports[k] = report
        arena = home_requests[k]
        arena.shed[:] = shed_col
        arena.start[:] = start_col
        arena.finish[:] = finish_col
        arena.instance[:] = instance_col
        for clone, (c_shed, c_finish, c_instance) in zip(
            spill_ins[k], clone_out
        ):
            clone.shed = c_shed
            clone.finish = c_finish
            clone.instance = c_instance
        return arena.shed_indices()

    # Telemetry is derived from the in-process streams and governor
    # logs, so an active session pins the members to the serial path
    # (identical report either way — sharding is an execution detail).
    observed = obs is not None and obs.active
    executor = (
        ParallelExecutor(jobs=jobs)
        if jobs != 1 and n_fleets > 1 and not observed
        else None
    )

    def run_phases() -> None:
        # Donor phase: donors epoch-step to drain (donors never
        # receive, so they shard freely); their sheds cross the
        # exchange barrier into the receivers' spill-in buffers.
        if executor is not None and len(donors) > 1:
            for k, result in zip(
                donors,
                executor.map(
                    _member_point, [(payload(k),) for k in donors]
                ),
            ):
                forward(k, overlay(k, result))
        else:
            for k in donors:
                forward(k, run_member(k, home_requests[k]))

        # Receiver phase, after the barrier: home traffic merged with
        # the forwarded spill-ins in arrival order (stable: home
        # requests keep their relative order), then epoch-stepped to
        # drain.
        if executor is not None and len(receivers) > 1:
            for k, result in zip(
                receivers,
                executor.map(
                    _member_point, [(payload(k),) for k in receivers]
                ),
            ):
                overlay(k, result)
        else:
            for k in receivers:
                merged = sorted(
                    [*home_requests[k], *spill_ins[k]],
                    key=lambda request: request.arrival,
                )
                for i, request in enumerate(merged):
                    request.index = i
                run_member(k, merged)

    if executor is not None:
        # One pool spans both phases: the barrier exchanges payloads,
        # not workers.
        with executor.session():
            run_phases()
    else:
        run_phases()

    # End-to-end accounting per original request.
    completed = met = terminally_shed = 0
    spill_completed = spill_met = 0
    final_latencies: list[float] = []
    for k in range(n_fleets):
        for request in home_requests[k]:
            if not request.shed:
                completed += 1
                met += request.finish <= request.deadline
                final_latencies.append(
                    request.finish - request.arrival
                )
            elif (k, request.index) not in forwarded:
                terminally_shed += 1
    for clone, original in spilled:
        if clone.shed:
            terminally_shed += 1
            continue
        completed += 1
        spill_completed += 1
        hit = clone.finish <= clone.deadline
        met += hit
        spill_met += hit
        final_latencies.append(clone.finish - original.arrival)

    offered = sum(member.requests for member in scenario.fleets)
    energy = sum(
        report.energy_joules or 0.0 for report in reports
    )
    return MultiFleetReport(
        fleets=tuple(reports),
        modulator=scenario.modulator,
        spillover=scenario.spillover,
        offered_requests=offered,
        completed_requests=completed,
        shed_requests=terminally_shed,
        spilled_requests=len(spilled),
        spill_completed=spill_completed,
        spill_met=int(spill_met),
        met_requests=int(met),
        attainment=met / offered if offered else 0.0,
        latency_p99_s=(
            float(np.percentile(final_latencies, 99))
            if final_latencies
            else 0.0
        ),
        energy_joules=float(energy),
        offered_load=tuple(rhos),
    )
