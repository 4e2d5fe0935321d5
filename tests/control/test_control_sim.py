"""Controlled simulation: overload behaviour, determinism, DVFS, energy."""

import dataclasses

import pytest

from repro.control import (
    ControlScenario,
    InstanceSpec,
    SLOClass,
    parse_fleet_spec,
    simulate_controlled,
    static_frontier_sweep,
)
from repro.errors import ConfigError
from repro.parallel.cache import make_key
from repro.power import DVFSModel
from repro.serve import ServingScenario, build_mix, simulate

#: One FIFO class: the bounded-p99 guarantee of queue-bound shedding is
#: per admitted FIFO order (with priorities, the lowest class starves
#: by design — that is what priority shedding is for).
ONE_CLASS = (SLOClass("only", deadline_ms=50.0, target=0.9),)


def _overload(requests, shedding, **kwargs):
    """rho ~ 2.3 on a single v1-224 instance (capacity ~878 QPS)."""
    defaults = dict(
        mix="v1-224",
        qps=2_000.0,
        requests=requests,
        instances=1,
        max_batch=1,
        max_wait_ms=0.0,
        slo_classes=ONE_CLASS,
        shedding=shedding,
        queue_threshold=16,
        seed=5,
    )
    defaults.update(kwargs)
    return ControlScenario(**defaults)


class TestOverloadShedding:
    def test_shedding_bounds_p99_while_baseline_grows(self):
        """The acceptance bar: with shedding, the admitted p99 is flat
        in the request count; without it, the queue (and p99) grows."""
        shed_small = simulate_controlled(_overload(2_000, "queue-depth"))
        shed_large = simulate_controlled(_overload(6_000, "queue-depth"))
        base_small = simulate_controlled(_overload(2_000, "none"))
        base_large = simulate_controlled(_overload(6_000, "none"))

        assert base_large.latency_p99_s > 2.0 * base_small.latency_p99_s
        assert shed_large.latency_p99_s < 1.5 * shed_small.latency_p99_s

        # The bound itself: ~threshold queued images + one in flight.
        service = build_mix("v1-224").mean_service_seconds()
        assert shed_large.latency_p99_s < 20 * service

    def test_shedding_sheds_the_excess_load(self):
        report = simulate_controlled(_overload(4_000, "queue-depth"))
        # rho ~ 2.3: roughly the over-capacity share must be shed.
        assert 0.3 < report.shed_requests / report.offered_requests < 0.7
        assert report.requests + report.shed_requests == 4_000

    def test_deadline_shedding_converts_misses_to_sheds(self):
        """Every admitted-and-completed request met its deadline modulo
        the first-order feasibility estimate (no batching): misses can
        only come from estimate error, so attainment of the *admitted*
        population is near one while 'none' misses en masse."""
        shed = simulate_controlled(_overload(3_000, "deadline"))
        base = simulate_controlled(_overload(3_000, "none"))
        (cs_shed,) = shed.class_stats
        (cs_base,) = base.class_stats
        met_of_completed = cs_shed.met / cs_shed.completed
        assert met_of_completed > 0.95
        assert cs_base.met / cs_base.completed < 0.5


class TestDeterministicReplay:
    def test_same_scenario_same_report_and_content_key(self):
        scenario = ControlScenario(
            requests=800,
            shedding="priority",
            queue_threshold=8,
            autoscale="utilization",
            qps=3_000.0,
            seed=13,
        )
        a = simulate_controlled(scenario)
        b = simulate_controlled(scenario)
        assert a == b
        assert make_key("control_point", args=(a,)) == make_key(
            "control_point", args=(b,)
        )
        c = simulate_controlled(dataclasses.replace(scenario, seed=14))
        assert c != a

    def test_serving_scenario_replay_matches_too(self):
        scenario = ServingScenario(requests=800, seed=13)
        a = simulate(scenario)
        b = simulate(scenario)
        assert a == b
        assert make_key("serving_point", args=(a,)) == make_key(
            "serving_point", args=(b,)
        )


class TestDVFSHeterogeneous:
    def _single(self, voltage):
        # Deterministic 10 ms arrival gaps >> the ~2 ms service time:
        # no queueing, so every latency is exactly one service time and
        # the frequency scaling is observable without noise.
        return ControlScenario(
            mix="v1-224",
            arrival="trace",
            trace=tuple(0.01 * (i + 1) for i in range(400)),
            requests=400,
            fleet=(InstanceSpec(voltage_v=voltage),),
            max_batch=1,
            slo_classes=ONE_CLASS,
            seed=3,
        )

    def test_latency_scales_with_operating_frequency(self):
        """The acceptance bar: a slow-voltage instance's latencies are
        the nominal ones stretched by exactly f_nominal / f_slow, and
        the DVFS latency helpers predict the simulated values."""
        from repro.power import frequency_scaled_latency

        fast = simulate_controlled(self._single(0.8))
        slow = simulate_controlled(self._single(0.6))
        model = DVFSModel()
        point = model.operating_point(0.6)
        expected = (
            model.operating_point(0.8).frequency_hz / point.frequency_hz
        )
        for metric in ("latency_p50_s", "latency_p95_s"):
            ratio = getattr(slow, metric) / getattr(fast, metric)
            assert ratio == pytest.approx(expected, rel=1e-6)
        # The helper forms are the same contract: an uncontended
        # latency is one service time at the point's clock.
        profile = build_mix("v1-224").profiles[0]
        assert slow.latency_p50_s == pytest.approx(
            frequency_scaled_latency(profile.per_image_seconds, point),
            rel=1e-9,
        )
        assert slow.latency_p50_s == pytest.approx(
            profile.per_image_seconds_at(point.frequency_hz), rel=1e-9
        )

    def test_low_voltage_uses_less_energy_per_request(self):
        fast = simulate_controlled(self._single(0.8))
        slow = simulate_controlled(self._single(0.6))
        assert slow.joules_per_request < fast.joules_per_request

    def test_mixed_fleet_capacity_reflects_both_points(self):
        homo = simulate_controlled(
            dataclasses.replace(
                self._single(0.8),
                fleet=(InstanceSpec(0.8), InstanceSpec(0.8)),
            )
        )
        hetero = simulate_controlled(
            dataclasses.replace(
                self._single(0.8),
                fleet=(InstanceSpec(0.8), InstanceSpec(0.6)),
            )
        )
        assert hetero.capacity_qps < homo.capacity_qps
        assert hetero.instances == 2

    def test_per_instance_arch_config_changes_service_times(self):
        from repro.arch.params import EDEA_CONFIG

        slow_arch = dataclasses.replace(EDEA_CONFIG, td=4, tk=8)
        base = self._single(0.8)
        hetero = dataclasses.replace(
            base,
            fleet=(InstanceSpec(config=slow_arch),),
        )
        a = simulate_controlled(base)
        b = simulate_controlled(hetero)
        # Fewer PEs -> more cycles per image -> slower service.
        assert b.latency_p50_s > a.latency_p50_s


class TestEnergyAccounting:
    def test_energy_at_least_busy_work(self):
        from repro.control import NOMINAL_BUSY_POWER_W

        report = simulate_controlled(
            ControlScenario(requests=1_000, qps=2_000.0, seed=7)
        )
        busy_seconds = sum(
            u * report.makespan_s for u in report.utilization
        )
        assert report.energy_joules >= (
            0.99 * busy_seconds * NOMINAL_BUSY_POWER_W
        )
        assert report.joules_per_request == pytest.approx(
            report.energy_joules / report.requests
        )

    def test_busy_window_utilization_excludes_drain_tail(self):
        """Satellite regression: the drain after the last arrival can
        dominate the makespan (here: the final lone request idles out
        its whole batching wait), so makespan utilization understates
        the steady state badly while busy-window utilization — busy
        time truncated to [0, last arrival] — does not."""
        mix = build_mix("v1-224")
        profile = mix.profiles[0]
        # An 8-burst at t=0 keeps the instance busy for ~9.5 ms; the
        # lone straggler then waits out max_wait before serving.
        window = 0.010
        scenario = ServingScenario(
            mix="v1-224",
            arrival="trace",
            trace=(0.0,) * 8 + (window,),
            requests=9,
            instances=1,
            max_batch=8,
            max_wait_ms=50.0,
            seed=1,
        )
        report = simulate(scenario)
        burst_busy = profile.setup_seconds + 8 * profile.per_image_seconds
        assert report.busy_window_s == pytest.approx(window)
        assert report.utilization_busy[0] == pytest.approx(
            burst_busy / window
        )
        assert report.mean_utilization < 0.5 * report.mean_utilization_busy
        assert all(0.0 <= u <= 1.0 for u in report.utilization_busy)


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(requests=0),
            dict(slo_classes=()),
            dict(fleet=()),
            dict(tick_ms=0.0),
            dict(autoscale="warp-drive"),
            dict(shedding="nope"),
        ],
    )
    def test_bad_scenarios_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            simulate_controlled(
                ControlScenario(requests=10, **kwargs)
                if "requests" not in kwargs
                else ControlScenario(**kwargs)
            )

    @pytest.mark.parametrize(
        "run, bad",
        [
            (
                lambda: simulate_controlled(
                    ControlScenario(
                        requests=10,
                        autoscale="dvfs",
                        dvfs_ladder=(0.8, float("nan")),
                    )
                ),
                "nan",
            ),
            (
                lambda: static_frontier_sweep(
                    ControlScenario(requests=10), (0.8, float("nan")), (2,)
                ),
                "nan",
            ),
            (
                lambda: simulate_controlled(
                    ControlScenario(
                        requests=10, fleet=parse_fleet_spec("nanx2")
                    )
                ),
                "nan",
            ),
            (
                lambda: simulate_controlled(
                    ControlScenario(
                        requests=10, fleet=parse_fleet_spec("0.8x2,infx1")
                    )
                ),
                "inf",
            ),
        ],
        ids=["dvfs-ladder", "sweep-voltages", "fleet-nan", "fleet-inf"],
    )
    def test_non_finite_voltage_rejected(self, run, bad):
        """NaN/inf voltages used to simulate with NaN service times
        (then crash rendering) or fail with a misleading rate error."""
        with pytest.raises(
            ConfigError, match=rf"voltage must be finite \(got {bad} V\)"
        ):
            run()
