"""Autoscaling governors: energy savings, bounds, warm-up, DVFS ladder."""

import dataclasses

import pytest

from repro.control import (
    ControlScenario,
    SLOClass,
    UtilizationBandGovernor,
    make_governor,
    simulate_controlled,
)
from repro.errors import ConfigError
from repro.serve.fleet import Fleet

#: One deadline-tolerant class: both fleets attain 1.0, so the energy
#: comparison happens at *equal* SLO attainment.
LAX = (SLOClass("lax", deadline_ms=250.0, target=0.95),)

BURSTY = ControlScenario(
    arrival="bursty",
    qps=500.0,
    requests=4_000,
    instances=4,
    slo_classes=LAX,
    seed=21,
)


class TestAutoscaleEnergy:
    @pytest.mark.parametrize("governor", ["utilization", "queue-delay"])
    def test_autoscaler_beats_static_fleet_at_equal_attainment(
        self, governor
    ):
        """The acceptance bar: on bursty traffic a sizing governor uses
        measurably less energy than the static max-size fleet while
        attaining the same SLOs (fixed seed, deterministic)."""
        static = simulate_controlled(BURSTY)
        auto = simulate_controlled(
            dataclasses.replace(
                BURSTY,
                autoscale=governor,
                min_instances=1,
                target_delay_ms=20.0,
            )
        )
        assert static.slo_attainment == 1.0
        assert auto.slo_attainment >= static.slo_attainment
        assert auto.energy_joules < 0.8 * static.energy_joules
        assert auto.mean_active_instances < static.mean_active_instances

    def test_scale_events_are_reported(self):
        auto = simulate_controlled(
            dataclasses.replace(
                BURSTY, autoscale="utilization", min_instances=1
            )
        )
        assert auto.autoscale_events > 0

    def test_fleet_size_respects_bounds(self):
        """min_instances=max_instances pins the fleet: the governor can
        never act, so the run matches a static fleet of that size."""
        pinned = simulate_controlled(
            dataclasses.replace(
                BURSTY,
                autoscale="utilization",
                min_instances=2,
                max_instances=2,
            )
        )
        assert pinned.autoscale_events == 0
        # Two instances powered the whole run, two never powered.
        assert pinned.mean_active_instances == pytest.approx(2.0, abs=0.01)

    def test_warmup_cost_is_charged(self):
        """Scale-ups reload weights: the autoscaled run books model
        switches (cold batches) beyond a static warm fleet's."""
        auto = simulate_controlled(
            dataclasses.replace(
                BURSTY,
                mix="v1-224",
                autoscale="utilization",
                min_instances=1,
            )
        )
        static = simulate_controlled(
            dataclasses.replace(BURSTY, mix="v1-224")
        )
        assert auto.autoscale_events > 0
        assert auto.setups > static.setups


class TestDVFSGovernor:
    def test_dvfs_governor_saves_energy_on_slack(self):
        """Light steady traffic: the ladder steps down and the run burns
        less energy than the full-speed baseline at intact SLOs."""
        base = dataclasses.replace(
            BURSTY, arrival="poisson", qps=400.0, requests=3_000
        )
        static = simulate_controlled(base)
        dvfs = simulate_controlled(
            dataclasses.replace(base, autoscale="dvfs")
        )
        assert dvfs.autoscale_events > 0
        assert dvfs.slo_attainment >= static.slo_attainment
        assert dvfs.energy_joules < static.energy_joules

    def test_ladder_needs_two_points(self):
        with pytest.raises(ConfigError):
            simulate_controlled(
                dataclasses.replace(
                    BURSTY, autoscale="dvfs", dvfs_ladder=(0.8,)
                )
            )

    def test_dvfs_governor_rejects_heterogeneous_fleet(self):
        """The governor drives one shared ladder; silently re-pointing
        a user-specified per-instance fleet would simulate a different
        fleet than requested, so the combination is an error."""
        from repro.control import InstanceSpec

        with pytest.raises(ConfigError):
            ControlScenario(
                autoscale="dvfs",
                fleet=(InstanceSpec(0.8), InstanceSpec(0.6)),
            )


class TestEventLoopInvariant:
    def test_power_up_mid_batch_does_not_strand_the_queue(self):
        """Regression: power_up extends busy_until (warm-up) without
        launching a batch, which used to swallow the instance's pending
        completion event — queued requests never launched and the tick
        loop spun forever.  This exact scenario hung before the fix."""
        scenario = ControlScenario(
            mix="v1-224",
            arrival="bursty",
            qps=2_000.0,
            requests=1_500,
            instances=4,
            max_wait_ms=4.0,
            seed=0,
            autoscale="utilization",
            tick_ms=1.0,
            min_instances=1,
            util_low=0.5,
            util_high=0.7,
        )
        report = simulate_controlled(scenario)
        assert report.requests == 1_500
        assert report.autoscale_events > 0


class TestGovernorUnits:
    def test_make_governor_rejects_unknown(self):
        with pytest.raises(ConfigError):
            make_governor(
                "nope", tick_s=0.01, min_instances=1,
                max_instances=2, warmup_s=0.0,
            )

    def test_band_validation(self):
        with pytest.raises(ConfigError):
            UtilizationBandGovernor(
                tick_s=0.01, min_instances=1, max_instances=2,
                warmup_s=0.0, low=0.9, high=0.5,
            )
        with pytest.raises(ConfigError):
            UtilizationBandGovernor(
                tick_s=0.01, min_instances=3, max_instances=2,
                warmup_s=0.0,
            )

    @pytest.mark.parametrize(
        "delay", [0.0, -1e-3, float("nan"), float("inf")]
    )
    def test_queue_delay_target_must_be_finite_positive(self, delay):
        """A NaN setpoint compares false both ways, so the governor
        would silently never act."""
        with pytest.raises(ConfigError, match="target_delay_s"):
            make_governor(
                "queue-delay", tick_s=0.01, min_instances=1,
                max_instances=2, warmup_s=0.0, target_delay_s=delay,
            )

    def test_scale_down_prefers_empty_instance_and_obeys_min(self):
        governor = UtilizationBandGovernor(
            tick_s=0.01, min_instances=1, max_instances=3,
            warmup_s=0.0, low=0.5, high=0.9,
        )
        fleet = Fleet(3)
        fleet[0].busy_until = 1.0  # mid-batch
        governor.reset(fleet)
        # Utilization 0 < low: retires one idle instance per tick.
        assert governor.tick(fleet, 0.0) == 1
        assert sorted(fleet.active_indices()) != [0, 1, 2]
        assert 0 in fleet.active_indices()  # busy one kept
        assert governor.tick(fleet, 0.01) == 1
        assert fleet.active_indices() == [0]
        # Floor reached: no further action.
        assert governor.tick(fleet, 0.02) == 0

    def test_scale_up_pays_warmup_busy_time(self):
        governor = UtilizationBandGovernor(
            tick_s=0.01, min_instances=1, max_instances=2,
            warmup_s=0.5, low=0.1, high=0.2,
        )
        fleet = Fleet(2)
        fleet[1].active = False
        fleet[1].powered_since = None
        fleet[0].busy_seconds = 0.0
        governor.reset(fleet)
        fleet[0].busy_seconds = 0.01  # a full tick of work
        assert governor.tick(fleet, 0.01) == 1
        assert fleet[1].active
        assert fleet[1].busy_until == pytest.approx(0.51)
        assert fleet[1].busy_seconds == pytest.approx(0.5)
        assert fleet[1].powered_since == 0.01
