"""A/B harness: the controlled fast path against the general loop.

Forces identical workloads down both execution paths — the
``"fold"`` fused-admission kernel and the general heap loop with
dispatch disabled — and asserts bit-for-bit equivalence: the
per-request schedule (start/finish/shed as float64/bool arrays), the
aggregate report, and the result-cache key all must be equal, and
conservation must hold per class.  The speedup claim rides on this
equivalence (see ``benchmarks/test_bench_engine.py``); this file pins
the physics.
"""

import numpy as np
import pytest
from general_loop import force_general

from repro.control import (
    ControlScenario,
    InstanceSpec,
    simulate_controlled,
)
from repro.control.simulator import simulate_controlled_detailed
from repro.parallel.cache import make_key


def _detailed(scenario):
    report, requests = simulate_controlled_detailed(scenario)
    arena = requests[0].arena if len(requests) else None
    return report, arena


SCENARIOS = {
    "no-shedding": ControlScenario(
        requests=2_000, qps=2_500.0, instances=3,
        policy="round-robin", shedding="none", seed=11,
    ),
    "deadline-overload": ControlScenario(
        requests=2_000, qps=6_000.0, instances=3,
        policy="round-robin", shedding="deadline", seed=11,
    ),
    "queue-depth": ControlScenario(
        requests=2_000, qps=6_000.0, instances=3,
        policy="round-robin", shedding="queue-depth",
        queue_threshold=8, seed=11,
    ),
    "hetero-dvfs-fleet": ControlScenario(
        requests=2_000, qps=4_000.0, policy="round-robin",
        shedding="deadline", seed=11,
        fleet=tuple(
            InstanceSpec(voltage_v=v) for v in (0.8, 0.7, 0.6)
        ),
    ),
    # The default ``repro control`` shape: least-loaded routing, three
    # SLO priorities, no shedding.
    "least-loaded-default": ControlScenario(requests=2_000, seed=11),
    "least-loaded-hetero-dvfs": ControlScenario(
        requests=2_000, qps=4_000.0, shedding="deadline", seed=11,
        fleet=tuple(
            InstanceSpec(voltage_v=v) for v in (0.8, 0.7, 0.6)
        ),
    ),
}


class TestFastPathEquivalence:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_fast_equals_general(self, name):
        scenario = SCENARIOS[name]
        fast_report, fast_arena = _detailed(scenario)
        with force_general():
            gen_report, gen_arena = _detailed(scenario)

        assert fast_report.engine_dispatch == "fold"
        assert gen_report.engine_dispatch == "general"

        # Schedule equality as float64/bool arrays: starts, finishes,
        # and the shed mask — bit-for-bit, not approximately.
        assert np.array_equal(fast_arena.start, gen_arena.start)
        assert np.array_equal(fast_arena.finish, gen_arena.finish)
        assert np.array_equal(fast_arena.shed, gen_arena.shed)
        assert np.array_equal(fast_arena.instance, gen_arena.instance)

        # Report equality (engine counters excluded by compare=False)
        # and cache-key equality: a sweep warmed on one path must hit
        # on the other.
        assert fast_report == gen_report
        assert make_key("control_point", args=(fast_report,)) == (
            make_key("control_point", args=(gen_report,))
        )

        # The kernel never materializes stale wakes, so its event
        # count lower-bounds the general loop's.
        assert 0 < fast_report.engine_events <= gen_report.engine_events

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_per_class_conservation(self, name):
        report = simulate_controlled(SCENARIOS[name])
        assert report.engine_dispatch == "fold"
        assert report.offered_requests == (
            report.requests + report.shed_requests
        )
        for cs in report.class_stats:
            assert cs.offered == cs.completed + cs.shed, cs

    def test_replay_is_cache_stable(self):
        """Two fast-path replays of one scenario share a cache key."""
        scenario = SCENARIOS["deadline-overload"]
        a = simulate_controlled(scenario)
        b = simulate_controlled(scenario)
        assert a == b
        assert make_key("control_point", args=(a,)) == make_key(
            "control_point", args=(b,)
        )
