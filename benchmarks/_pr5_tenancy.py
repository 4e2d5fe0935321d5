"""The pre-epoch (PR-5) monolithic multi-fleet co-simulation.

Frozen copy of ``simulate_multi_fleet`` as it stood before the
epoch-stepped rebuild: every member fleet runs one-shot through
``execute_controlled``, donors first, receivers after one spillover
exchange.  Kept as the reference so the engine benchmark can hold the
production path to its throughput (it must stay within 1.1x of this
loop on the two-fleet benchmark scenario) while the equivalence check
pins its *reports* bit-for-bit.

Engines only take arenas, so each receiver's stream is assembled here
row by row — a Python stable sort of home rows and spill-in records,
then per-row column writes — independently of
``RequestArena.merge``, which the production path uses.

Not part of the package: benchmark support only.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.control.simulator import (
    build_control_fleet,
    execute_controlled,
)
from repro.control.slo import SLOClass
from repro.control.tenancy import (
    MultiFleetReport,
    MultiFleetScenario,
    _forward_target,
)
from repro.power.dvfs import DVFSModel
from repro.serve.arena import RequestArena
from repro.serve.engine import build_requests
from repro.serve.simulator import _DEFAULT_LOAD, ServingReport

__all__ = ["simulate_multi_fleet_monolithic"]


def simulate_multi_fleet_monolithic(
    scenario: MultiFleetScenario,
) -> MultiFleetReport:
    """Run one correlated multi-fleet scenario in the PR-5 shape."""
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
        rates.append(
            member.qps
            if member.qps is not None
            else _DEFAULT_LOAD * capacity
        )

    rhos = [
        rates[k] / setups[k][2] if setups[k][2] > 0 else 0.0
        for k in range(n_fleets)
    ]

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
    # Spill-ins are plain records until the receiver's stream is
    # assembled; each then points at its row of that stream.
    spilled: list[tuple[dict, object]] = []
    forwarded: set[tuple[int, int]] = set()
    spill_ins: list[list[dict]] = [[] for _ in range(n_fleets)]
    class_specs: dict[str, SLOClass] = {}
    for member in scenario.fleets:
        for cls in member.slo_classes:
            class_specs.setdefault(cls.name, cls)

    def run_member(k: int, requests) -> None:
        fleet, mix, capacity = setups[k]
        member = replace(
            scenario.fleets[k], arrival=arrival_label
        )
        own = {cls.name for cls in member.slo_classes}
        foreign = []
        for clone in spill_ins[k]:
            if clone["slo"] not in own:
                own.add(clone["slo"])
                foreign.append(class_specs[clone["slo"]])
        if foreign:
            member = replace(
                member,
                slo_classes=member.slo_classes + tuple(foreign),
            )
        reports[k] = execute_controlled(
            member, fleet, mix, capacity, rates[k],
            requests, dvfs_model=dvfs_model,
        )

    for k in donors:
        run_member(k, home_requests[k])
        if not receivers:
            continue
        for request in home_requests[k]:
            if not request.shed:
                continue
            target, profile = _forward_target(
                request, receivers, mixes, hop_s
            )
            if target is None:
                continue
            clone = dict(
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

    for k in receivers:
        home = home_requests[k]
        entries = sorted(
            [*home, *spill_ins[k]],
            key=lambda entry: (
                entry["arrival"] if isinstance(entry, dict)
                else entry.arrival
            ),
        )
        slo_names = list(home.slo_names)
        for clone in spill_ins[k]:
            if clone["slo"] not in slo_names:
                slo_names.append(clone["slo"])
        merged = RequestArena(
            len(entries), home.model_names, home.profiles,
            tuple(slo_names),
        )
        home_rows = []
        for row, entry in enumerate(entries):
            if isinstance(entry, dict):
                view = merged.view(row)
                view.arrival = entry["arrival"]
                view.priority = entry["priority"]
                view.deadline = entry["deadline"]
                merged.model_idx[row] = home.model_names.index(
                    entry["model"]
                )
                merged.class_idx[row] = slo_names.index(entry["slo"])
                entry["view"] = view
            else:
                home_rows.append((row, entry.i))
                for name in (
                    "arrival", "deadline", "priority", "model_idx",
                    "class_idx",
                ):
                    getattr(merged, name)[row] = getattr(home, name)[
                        entry.i
                    ]
        run_member(k, merged)
        for row, i in home_rows:
            for name in ("shed", "start", "finish", "instance"):
                getattr(home, name)[i] = getattr(merged, name)[row]

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
    for record, original in spilled:
        clone = record["view"]
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
