"""Request-level serving simulation over a fleet of EDEA accelerators.

The paper measures single-inference latency; this package asks the
deployment question: what p50/p95/p99 latency, sustained QPS, and
utilization does a *fleet* of these accelerators deliver under real
traffic?  It composes the repository's existing layers — fastpath
analytic latencies as service times, :mod:`repro.nn.zoo` geometries as
heterogeneous workloads, :mod:`repro.parallel` for sweeps — into a
discrete-event simulator with pluggable arrival processes, scheduling
policies, and per-instance batching.

The event machinery is one shared kernel, :mod:`repro.serve.engine`:
:func:`simulate` runs it with default hooks, and the SLO/energy control
plane (:mod:`repro.control`) runs the *same* loop through its
admission/governor hooks.

Quick start::

    from repro.serve import ServingScenario, simulate

    report = simulate(ServingScenario(instances=4, policy="affinity"))
    print(report.latency_p99_s, report.sustained_qps)
"""

from .arrival import (
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    SharedModulator,
    TraceArrivals,
    make_arrivals,
    thin_nhpp,
)
from .arena import Request, RequestArena
from .engine import Engine, EngineHooks, EngineRun
from .fleet import Fleet, Instance
from .sketch import StreamingLatencyStats, TDigest
from .policies import (
    POLICIES,
    AffinityPolicy,
    DeadlineAwarePolicy,
    EnergyAwarePolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
    make_policy,
)
from .profile import (
    SCENARIO_MIXES,
    ScenarioMix,
    ServiceProfile,
    build_mix,
    service_profile,
)
from .simulator import ServingReport, ServingScenario, simulate
from .sweep import (
    policy_fleet_sweep,
    serving_sweep,
    throughput_latency_curve,
)

__all__ = [
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "TraceArrivals",
    "SharedModulator",
    "make_arrivals",
    "thin_nhpp",
    "Engine",
    "EngineHooks",
    "EngineRun",
    "Request",
    "RequestArena",
    "TDigest",
    "StreamingLatencyStats",
    "Instance",
    "Fleet",
    "SchedulingPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "AffinityPolicy",
    "DeadlineAwarePolicy",
    "EnergyAwarePolicy",
    "POLICIES",
    "make_policy",
    "ServiceProfile",
    "service_profile",
    "ScenarioMix",
    "SCENARIO_MIXES",
    "build_mix",
    "ServingScenario",
    "ServingReport",
    "simulate",
    "serving_sweep",
    "policy_fleet_sweep",
    "throughput_latency_curve",
]
