"""Derived schedules reproduce the live engine counters bit for bit.

Telemetry rebuilds each batch's service time and each instance's busy
and energy fold from the drained columns plus the governor log.  If
that reconstruction is exact, the fold's final value equals the
counter the engine accumulated live — on every execution path, for
governed and ungoverned runs, homogeneous and DVFS-heterogeneous
fleets alike.  Hypothesis generates the scenarios.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.control import (
    ControlScenario,
    InstanceSpec,
    MultiFleetScenario,
    simulate_controlled,
    simulate_multi_fleet,
)
from repro.obs import Observability
from repro.serve import ServingScenario, simulate

_DATA_PLANE = dict(
    requests=st.sampled_from([40, 150, 300]),
    max_batch=st.sampled_from([1, 3, 8]),
    max_wait_ms=st.sampled_from([0.0, 0.5, 3.0]),
    seed=st.integers(0, 10_000),
    stats=st.sampled_from(["exact", "sketch"]),
    mix=st.sampled_from(["mixed", "v1-224"]),
)

_FLEETS = st.sampled_from(
    [
        None,
        (InstanceSpec(voltage_v=0.8), InstanceSpec(voltage_v=0.6)),
        (InstanceSpec(voltage_v=0.7),) * 3,
    ]
)


@st.composite
def _serve(draw):
    return "serve", ServingScenario(
        instances=draw(st.sampled_from([1, 2, 3])),
        policy=draw(
            st.sampled_from(["round-robin", "least-loaded", "affinity"])
        ),
        arrival=draw(st.sampled_from(["poisson", "bursty", "diurnal"])),
        diurnal_period_s=0.1,
        **{name: draw(value) for name, value in _DATA_PLANE.items()},
    )


def _control_fields(draw) -> dict:
    fields = dict(
        policy=draw(
            st.sampled_from(
                ["round-robin", "least-loaded", "energy-aware"]
            )
        ),
        shedding=draw(
            st.sampled_from(["none", "deadline", "queue-depth", "priority"])
        ),
        queue_threshold=draw(st.sampled_from([3, 16])),
        autoscale=draw(
            st.sampled_from(
                ["none", "utilization", "queue-delay", "dvfs", "predictive"]
            )
        ),
        tick_ms=draw(st.sampled_from([2.0, 10.0])),
        min_instances=1,
        **{name: draw(value) for name, value in _DATA_PLANE.items()},
    )
    fleet = draw(_FLEETS)
    if fleet is not None and fields["autoscale"] != "dvfs":
        fields["fleet"] = fleet
    else:
        fields["instances"] = draw(st.sampled_from([1, 2, 3]))
    return fields


@st.composite
def _control(draw):
    return "control", ControlScenario(
        qps=draw(st.sampled_from([900.0, 4_000.0, 9_000.0])),
        arrival=draw(st.sampled_from(["poisson", "bursty", "diurnal"])),
        diurnal_period_s=0.1,
        **_control_fields(draw),
    )


@st.composite
def _fleets(draw):
    fields = _control_fields(draw)
    if fields["shedding"] == "none":
        fields["shedding"] = "deadline"
    base = ControlScenario(**fields)
    return "fleets", MultiFleetScenario(
        fleets=(
            dataclasses.replace(base, qps=6_000.0),
            dataclasses.replace(base, qps=600.0),
        ),
        modulator=draw(st.sampled_from(["diurnal", "burst"])),
        period_s=0.2,
        spillover=draw(st.sampled_from(["none", "deadline"])),
        seed=draw(st.integers(0, 100)),
    )


def _run(plane, scenario, obs):
    if plane == "serve":
        simulate(scenario, obs=obs)
    elif plane == "control":
        simulate_controlled(scenario, obs=obs)
    else:
        simulate_multi_fleet(scenario, obs=obs)


@settings(max_examples=40, deadline=None)
@given(case=st.one_of(_serve(), _control(), _fleets()))
def test_derived_schedule_matches_live_counters(case):
    plane, scenario = case
    obs = Observability(metrics_every_s=0.01)
    _run(plane, scenario, obs)
    for _, observed, _, sched in obs._derived():
        for j, instance in enumerate(observed.fleet.instances):
            _, busy, energy = sched.fold[j]
            assert (busy[-1].item() if len(busy) else 0.0) == (
                instance.busy_seconds
            )
            assert (energy[-1].item() if len(energy) else 0.0) == (
                instance.energy_joules
            )
            lo, hi = int(sched.bounds[j]), int(sched.bounds[j + 1])
            assert hi - lo == instance.batches
            assert int(sched.size[lo:hi].sum()) == instance.served
            if observed.log is None and hi > lo:
                # Ungoverned: nothing but batches extends busy_until.
                last = sched.start[hi - 1] + sched.service[hi - 1]
                assert last.item() == instance.busy_until
