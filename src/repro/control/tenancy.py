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
drained in one call.  Donors drain first; their shed rows cross the
exchange to the receivers, whose engines then run their home arena
merged with the forwarded rows (:meth:`RequestArena.merge
<repro.serve.arena.RequestArena.merge>`) as one arena.  Process
sharding (``jobs``, keyword-only) is an execution detail — any job
count reproduces the identical report — and everything — the latent
path, per-fleet thinning, engine order — is a pure function of the
frozen scenario, so multi-fleet reports are cacheable content keys
exactly like single-fleet ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigError
from ..parallel.executor import ParallelExecutor
from ..power.dvfs import DVFSModel
from ..serve.arena import Request
from ..serve.arrival import SharedModulator
from ..serve.engine import build_requests
from ..serve.simulator import ServingReport, _offered_qps
from ..serve.sketch import percentile
from .simulator import (
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

_INF = float("inf")


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
        if not 0 <= self.spillover_hop_ms < _INF:
            raise ConfigError(
                "spillover_hop_ms must be finite and >= 0 "
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


#: The columns an engine run writes, shipped back from worker runs.
_OUTCOMES = ("shed", "start", "finish", "instance")


def _drain_member(
    member, fleet, mix, capacity, qps, stream, dvfs_model,
    obs=None, obs_pid: int = 0,
) -> ServingReport:
    """Drain one member fleet over its stream in one call."""
    execution = prepare_controlled(
        member, fleet, mix, capacity, qps, stream.arrival, stream,
        dvfs_model=dvfs_model, obs=obs, obs_pid=obs_pid,
    )
    execution.engine.run_until(_INF)
    return finalize_controlled(execution)


def _member_point(payload: dict):
    """Worker half of a sharded phase: run one member fleet.

    ``payload`` holds the member's frozen scenario plus its
    materialized request stream (a receiver's is already
    merged with its spill-ins).  The worker rebuilds the fleet
    deterministically, drains the engine, and ships back the report
    together with the outcome columns, which the parent copies into
    its own arena (subprocess arena mutations never propagate by
    themselves).
    """
    member = payload["scenario"]
    stream = payload["requests"]
    dvfs_model = DVFSModel()
    fleet, mix, capacity = build_control_fleet(member, dvfs_model)
    report = _drain_member(
        member, fleet, mix, capacity, _offered_qps(member, capacity),
        stream, dvfs_model,
    )
    return report, *(getattr(stream, name) for name in _OUTCOMES)


def simulate_multi_fleet(
    scenario: MultiFleetScenario,
    *,
    jobs: int = 1,
    obs=None,
) -> MultiFleetReport:
    """Run one correlated multi-fleet scenario to completion.

    Deterministic for a given scenario; safe to cache and to fan out
    across worker processes.  Execution runs in three steps: every
    donor (a fleet at rho > 1 under spillover) drains; the exchange
    forwards each donor's shed rows — read off its drained ``shed``
    column — to the sibling with the most headroom that can still
    make the deadline; every receiver then drains its home arena
    merged with the rows it was sent.  Donors never receive and
    receivers never forward, so each member drains in one call.

    Args:
        scenario: The frozen scenario description.
        jobs: Worker processes for the member fleets (``1`` = serial),
            keyword-only and never part of the result or the cache
            content key.  Donors shard across processes first,
            receivers after the exchange; each worker gets a
            payload of scenario + materialized stream
            and returns its report plus the outcome columns.
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

    n_fleets = len(scenario.fleets)
    setups = []  # (fleet, mix, capacity) per member
    rates = []
    for member in scenario.fleets:
        fleet, mix, capacity = build_control_fleet(member, dvfs_model)
        setups.append((fleet, mix, capacity))
        rates.append(_offered_qps(member, capacity))

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
    # The arena each member's engine runs: its home arena, or for a
    # receiver that was sent rows, the merge (and ``where``, each
    # source row's merged row).
    streams = list(home_requests)
    wheres: list = [None] * n_fleets
    # Per receiver: (donor arena, forwarded rows) in forwarding order.
    spill_ins: list[list] = [[] for _ in range(n_fleets)]
    forwarded = [0] * n_fleets
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
        # Spill-ins keep their donor class: the merge appended the
        # classes the receiver lacks, so grow its reporting classes to
        # cover every request its engine processed.
        foreign = streams[k].slo_names[len(member.slo_classes):]
        if foreign:
            member = replace(
                member,
                slo_classes=member.slo_classes
                + tuple(class_specs[name] for name in foreign),
            )
        return member

    def forward(k: int) -> None:
        """Donor k's exchange: spill its shed rows to the sibling with
        the most headroom that can still make the deadline."""
        if not receivers:
            return
        arena = home_requests[k]
        targets: dict[int, list[int]] = {}
        for row in arena.shed_indices():
            request = arena.view(row)
            target, _ = _forward_target(
                request, receivers, mixes, hop_s
            )
            if target is None:
                continue
            targets.setdefault(target, []).append(row)
            if obs is not None:
                obs.spill(
                    k, target, request, scenario.spillover_hop_ms
                )
        for target, rows in targets.items():
            spill_ins[target].append((arena, rows))
            forwarded[k] += len(rows)

    def settle(k: int) -> None:
        """Copy a receiver's home-row outcomes back from its merge."""
        if wheres[k] is None:
            return
        home = home_requests[k]
        rows = wheres[k][:len(home)]
        for name in _OUTCOMES:
            getattr(home, name)[:] = getattr(streams[k], name)[rows]

    # Telemetry is derived from the in-process streams and governor
    # logs, so an active session pins the members to the serial path
    # (identical report either way — sharding is an execution detail).
    observed = obs is not None and obs.active
    executor = (
        ParallelExecutor(jobs=jobs)
        if jobs != 1 and n_fleets > 1 and not observed
        else None
    )

    def drain(members: list[int], then) -> None:
        """Drain ``members`` (sharded when more than one runs at once),
        calling ``then(k)`` after each."""
        if executor is not None and len(members) > 1:
            payloads = [
                (
                    {
                        "kind": "control",
                        "scenario": member_scenario(k),
                        "requests": streams[k],
                    },
                )
                for k in members
            ]
            for k, (report, *outcomes) in zip(
                members, executor.map(_member_point, payloads)
            ):
                reports[k] = report
                for name, column in zip(_OUTCOMES, outcomes):
                    getattr(streams[k], name)[:] = column
                then(k)
        else:
            for k in members:
                fleet, mix, capacity = setups[k]
                reports[k] = _drain_member(
                    member_scenario(k), fleet, mix, capacity, rates[k],
                    streams[k], dvfs_model, obs=obs, obs_pid=k,
                )
                then(k)

    def run_phases() -> None:
        drain(donors, forward)
        for k in receivers:
            if spill_ins[k]:
                streams[k], wheres[k] = home_requests[k].merge(
                    spill_ins[k], hop_s
                )
        drain(receivers, settle)

    if executor is not None:
        # One pool spans both phases: the exchange moves rows, not
        # workers.
        with executor.session():
            run_phases()
    else:
        run_phases()

    # End-to-end accounting per original request, over columns: home
    # rows complete at home or were shed there (forwarded or
    # terminally), and forwarded rows complete or are shed at their
    # receiver, where their latency runs from the original arrival.
    completed = met = terminally_shed = 0
    spill_completed = spill_met = 0
    latencies = []
    for k, home in enumerate(home_requests):
        done = ~home.shed
        finish = home.finish[done]
        count = int(np.count_nonzero(done))
        completed += count
        met += int(np.count_nonzero(finish <= home.deadline[done]))
        terminally_shed += len(home) - count - forwarded[k]
        latencies.append(finish - home.arrival[done])
    for k in receivers:
        if wheres[k] is None:
            continue
        merged = streams[k]
        rows = wheres[k][len(home_requests[k]):]
        origin = np.concatenate(
            [arena.arrival[src] for arena, src in spill_ins[k]]
        )
        done = ~merged.shed[rows]
        rows = rows[done]
        finish = merged.finish[rows]
        count = int(np.count_nonzero(done))
        hit = int(np.count_nonzero(finish <= merged.deadline[rows]))
        completed += count
        spill_completed += count
        met += hit
        spill_met += hit
        terminally_shed += len(done) - count
        latencies.append(finish - origin[done])
    final_latencies = np.concatenate(latencies)

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
        spilled_requests=sum(forwarded),
        spill_completed=spill_completed,
        spill_met=spill_met,
        met_requests=met,
        attainment=met / offered if offered else 0.0,
        latency_p99_s=(
            percentile(final_latencies, 99)
            if final_latencies.size
            else 0.0
        ),
        energy_joules=float(energy),
        offered_load=tuple(rhos),
    )
