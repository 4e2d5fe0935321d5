"""Discrete-event serving simulation: queueing theory and conservation."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.serve import ServingScenario, build_mix, simulate


def _mm1_scenario(rho: float, **kwargs) -> ServingScenario:
    """Single instance, single model, no batching: an M/D/1 queue."""
    service = build_mix("v1-224").mean_service_seconds()
    defaults = dict(
        mix="v1-224",
        qps=rho / service,
        requests=20_000,
        instances=1,
        max_batch=1,
        max_wait_ms=0.0,
        seed=3,
    )
    defaults.update(kwargs)
    return ServingScenario(**defaults)


class TestQueueingSanity:
    @pytest.mark.parametrize("rho", [0.3, 0.5])
    def test_mean_latency_matches_md1(self, rho):
        """At low utilization the simulator must reproduce the M/D/1
        (Pollaczek-Khinchine) mean latency S + rho*S/(2*(1-rho))."""
        service = build_mix("v1-224").mean_service_seconds()
        report = simulate(_mm1_scenario(rho))
        expected = service * (1 + rho / (2 * (1 - rho)))
        assert report.latency_mean_s == pytest.approx(expected, rel=0.05)

    def test_p99_monotone_in_offered_load(self):
        p99s = [
            simulate(_mm1_scenario(rho)).latency_p99_s
            for rho in (0.3, 0.5, 0.7, 0.85)
        ]
        assert all(a <= b for a, b in zip(p99s, p99s[1:]))

    def test_latency_floor_is_service_time(self):
        service = build_mix("v1-224").mean_service_seconds()
        report = simulate(_mm1_scenario(0.3, requests=2_000))
        assert report.latency_p50_s >= service - 1e-12


class TestConservation:
    def test_every_request_served_exactly_once(self):
        report = simulate(ServingScenario(requests=3_000, seed=5))
        assert report.requests == 3_000
        assert sum(report.served_per_instance) == 3_000
        assert sum(c for _, c in report.per_model_counts) == 3_000

    def test_utilization_bounded(self):
        report = simulate(ServingScenario(requests=3_000, seed=5))
        assert all(0.0 <= u <= 1.0 for u in report.utilization)

    def test_sustained_qps_close_to_offered_when_stable(self):
        report = simulate(ServingScenario(requests=5_000, seed=5))
        assert report.sustained_qps <= report.offered_qps * 1.02
        assert report.sustained_qps >= report.offered_qps * 0.9

    def test_deterministic_per_seed(self):
        a = simulate(ServingScenario(requests=1_000, seed=9))
        b = simulate(ServingScenario(requests=1_000, seed=9))
        assert a == b
        c = simulate(ServingScenario(requests=1_000, seed=10))
        assert c != a


class TestBatching:
    def test_max_batch_respected_on_a_burst(self):
        """16 simultaneous arrivals on one instance: the first launches
        alone (work-conserving), the backlog drains in max-batch runs."""
        scenario = ServingScenario(
            mix="v1-224",
            arrival="trace",
            trace=tuple([0.0] * 16),
            requests=16,
            instances=1,
            max_batch=8,
            max_wait_ms=0.0,
            qps=1.0,
        )
        report = simulate(scenario)
        assert report.requests == 16
        # 1 + 8 + 7 requests over three launches.
        assert report.mean_batch_size == pytest.approx(16 / 3)

    def test_max_wait_holds_the_head_request(self):
        """With a 5 ms fill window, two closely spaced arrivals launch
        together when the head's wait expires."""
        scenario = ServingScenario(
            mix="v1-224",
            arrival="trace",
            trace=(0.0, 0.001),
            requests=2,
            instances=1,
            max_batch=8,
            max_wait_ms=5.0,
            qps=1.0,
        )
        report = simulate(scenario)
        assert report.mean_batch_size == pytest.approx(2.0)
        # Head waited the full window, the second 1 ms less.
        assert report.mean_wait_s == pytest.approx(0.0045, rel=1e-6)

    def test_zero_wait_dispatches_immediately(self):
        scenario = ServingScenario(
            mix="edge",
            arrival="trace",
            trace=(0.0, 0.005),
            requests=2,
            instances=1,
            max_batch=8,
            max_wait_ms=0.0,
            qps=1.0,
        )
        report = simulate(scenario)
        assert report.mean_wait_s == pytest.approx(0.0, abs=1e-12)
        assert report.mean_batch_size == pytest.approx(1.0)


class TestPoliciesEndToEnd:
    def test_round_robin_spreads_evenly(self):
        report = simulate(
            ServingScenario(
                requests=4_000, instances=4, policy="round-robin", seed=2
            )
        )
        assert report.served_per_instance == (1_000,) * 4

    def test_least_loaded_beats_round_robin_on_mixed_traffic(self):
        base = ServingScenario(requests=6_000, instances=4, seed=4)
        rr = simulate(dataclasses.replace(base, policy="round-robin"))
        ll = simulate(dataclasses.replace(base, policy="least-loaded"))
        assert ll.latency_p99_s < rr.latency_p99_s

    def test_affinity_reduces_model_switches(self):
        base = ServingScenario(requests=6_000, instances=4, seed=4)
        ll = simulate(dataclasses.replace(base, policy="least-loaded"))
        aff = simulate(dataclasses.replace(base, policy="affinity"))
        assert aff.setups < ll.setups


class TestScenarioValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            ServingScenario(requests=0)
        with pytest.raises(ConfigError):
            ServingScenario(instances=0)
        with pytest.raises(ConfigError):
            ServingScenario(max_batch=0)
        with pytest.raises(ConfigError):
            ServingScenario(max_wait_ms=-1.0)
        with pytest.raises(ConfigError):
            ServingScenario(qps=0.0)

    def test_unknown_mix_and_policy_raise_at_simulate(self):
        with pytest.raises(ConfigError):
            simulate(ServingScenario(mix="nope", requests=10))
        with pytest.raises(ConfigError):
            simulate(ServingScenario(policy="nope", requests=10))

    def test_trace_clamps_requests(self):
        report = simulate(
            ServingScenario(
                arrival="trace",
                trace=(0.0, 0.01, 0.02),
                requests=100,
                instances=1,
            )
        )
        assert report.requests == 3

    def test_bursty_has_fatter_tail_than_poisson(self):
        # ~0.7 of the two-instance capacity (stable for both shapes).
        base = ServingScenario(
            mix="v1-224", qps=1_000.0, requests=8_000, instances=2, seed=6
        )
        poisson = simulate(base)
        bursty = simulate(
            dataclasses.replace(
                base, arrival="bursty", burst_factor=6.0
            )
        )
        assert bursty.latency_p99_s > poisson.latency_p99_s


class TestIncrementalBacklog:
    def test_queued_seconds_tracks_queue_contents(self):
        from arena_rows import arena_of

        from repro.serve import Fleet, service_profile

        edge = service_profile("edge-tiny")
        v1 = service_profile("mobilenet-v1-224")
        fleet = Fleet(1)
        inst = fleet[0]
        for request in arena_of(
            dict(model="edge-tiny", profile=edge),
            dict(model="edge-tiny", profile=edge),
            dict(model="mobilenet-v1-224", profile=v1),
        ):
            inst.enqueue(request)
        expected = 2 * edge.per_image_seconds + v1.per_image_seconds
        assert inst.pending_seconds(0.0) == pytest.approx(expected)
        inst.launch_head(max_batch=8, now=0.0)  # both edge
        assert inst.queued_seconds == pytest.approx(
            v1.per_image_seconds
        )
        assert [r.model for r in inst.queue] == ["mobilenet-v1-224"]
        inst.launch_head(max_batch=8, now=inst.busy_until)
        assert inst.queued_seconds == 0.0
        assert not inst.queue

    def test_overloaded_simulation_stays_fast(self):
        """Scheduling must remain O(instances) per arrival even when
        queues grow without bound past saturation."""
        import time

        scenario = ServingScenario(
            requests=8_000, qps=20_000.0, instances=4, seed=1
        )
        start = time.perf_counter()
        report = simulate(scenario)
        elapsed = time.perf_counter() - start
        assert report.requests == 8_000
        assert elapsed < 5.0  # quadratic backlog scans took >10 s
