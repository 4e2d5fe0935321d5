"""Scheduling policies against hand-built fleet states."""

import pytest
from arena_rows import arena_of
from general_loop import enqueue

from repro.errors import ConfigError
from repro.serve import (
    Fleet,
    make_policy,
    service_profile,
)

EDGE = service_profile("edge-tiny")
V1 = service_profile("mobilenet-v1-224")


def req(model="edge-tiny", profile=EDGE, arrival=0.0):
    return arena_of(dict(model=model, profile=profile, arrival=arrival))[0]


class TestRoundRobin:
    def test_cycles_in_order(self):
        fleet = Fleet(3)
        policy = make_policy("round-robin")
        picks = [policy.choose(req(), fleet, 0.0) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_reset_restarts(self):
        fleet = Fleet(2)
        policy = make_policy("round-robin")
        policy.choose(req(), fleet, 0.0)
        policy.reset()
        assert policy.choose(req(), fleet, 0.0) == 0


class TestLeastLoaded:
    def test_prefers_idle_instance(self):
        fleet = Fleet(3)
        fleet[0].busy_until = 1.0
        fleet[2].busy_until = 0.5
        policy = make_policy("least-loaded")
        assert policy.choose(req(), fleet, now=0.0) == 1

    def test_counts_queued_work_in_seconds(self):
        """One queued heavyweight request outweighs two light ones."""
        fleet = Fleet(2)
        enqueue(fleet[0], req("mobilenet-v1-224", V1))
        enqueue(fleet[1], req("edge-tiny", EDGE))
        enqueue(fleet[1], req("edge-tiny", EDGE))
        policy = make_policy("least-loaded")
        assert policy.choose(req(), fleet, now=0.0) == 1

    def test_ties_break_by_index(self):
        fleet = Fleet(4)
        policy = make_policy("least-loaded")
        assert policy.choose(req(), fleet, now=0.0) == 0


class TestAffinity:
    def test_prefers_warm_instance_within_setup_budget(self):
        fleet = Fleet(2)
        fleet[0].loaded_model = "edge-tiny"
        # Instance 0 slightly busier, but by less than one weight load.
        fleet[0].busy_until = 0.5 * EDGE.setup_seconds
        policy = make_policy("affinity")
        assert policy.choose(req(model="edge-tiny"), fleet, 0.0) == 0

    def test_abandons_warm_instance_when_detour_too_costly(self):
        fleet = Fleet(2)
        fleet[0].loaded_model = "edge-tiny"
        fleet[0].busy_until = 10 * EDGE.setup_seconds
        policy = make_policy("affinity")
        assert policy.choose(req(model="edge-tiny"), fleet, 0.0) == 1

    def test_falls_back_to_least_loaded_when_cold(self):
        fleet = Fleet(3)
        fleet[0].busy_until = 1.0
        policy = make_policy("affinity")
        assert policy.choose(req(model="edge-tiny"), fleet, 0.0) == 1


class TestDeadlineAware:
    def _req(self, deadline):
        request = req(model="edge-tiny")
        request.deadline = deadline
        return request

    def test_detours_to_feasible_instance(self):
        """Least-loaded would join the shorter queue on the slow
        instance; deadline-aware sees that completion there misses and
        pays the longer queue on the fast one instead."""
        fleet = Fleet(2)
        fleet[0].busy_until = 5 * EDGE.per_image_seconds  # fast, busier
        fleet[1].latency_scale = 20.0  # slow DVFS point, idle
        deadline = 8 * EDGE.per_image_seconds
        policy = make_policy("deadline-aware")
        ll = make_policy("least-loaded")
        assert ll.choose(self._req(deadline), fleet, 0.0) == 1
        assert policy.choose(self._req(deadline), fleet, 0.0) == 0

    def test_prefers_least_loaded_among_feasible(self):
        fleet = Fleet(3)
        fleet[0].busy_until = 2 * EDGE.per_image_seconds
        policy = make_policy("deadline-aware")
        assert policy.choose(self._req(1.0), fleet, 0.0) == 1

    def test_minimizes_miss_when_nothing_feasible(self):
        fleet = Fleet(2)
        fleet[0].busy_until = 3.0
        fleet[1].busy_until = 2.0
        policy = make_policy("deadline-aware")
        assert policy.choose(self._req(1e-9), fleet, 0.0) == 1

    def test_no_deadline_degrades_to_least_loaded(self):
        fleet = Fleet(3)
        fleet[0].busy_until = 1.0
        policy = make_policy("deadline-aware")
        assert policy.choose(req(), fleet, 0.0) == 1


class TestEnergyAware:
    def test_unmetered_fleet_degrades_to_least_loaded(self):
        fleet = Fleet(3)
        fleet[0].busy_until = 1.0
        fleet[2].busy_until = 0.5
        policy = make_policy("energy-aware")
        assert policy.choose(req(), fleet, 0.0) == 1

    def test_prefers_cheap_instance_when_queues_match(self):
        fleet = Fleet(2)
        fleet[0].busy_power_w = 1.0
        fleet[1].busy_power_w = 0.2
        fleet[1].latency_scale = 2.0  # slower, but far cheaper
        policy = make_policy("energy-aware")
        assert policy.choose(req(), fleet, 0.0) == 1

    def test_abandons_cheap_instance_once_backlog_costs_more(self):
        fleet = Fleet(2)
        fleet[0].busy_power_w = 1.0
        fleet[1].busy_power_w = 0.2
        fleet[1].latency_scale = 2.0
        # Joules saved on inst 1: 1.0*s - 0.2*2s = 0.6*s; priced at the
        # fleet's 1.0 W, any backlog beyond 0.6*s tips the choice back.
        fleet[1].busy_until = 10 * EDGE.per_image_seconds
        policy = make_policy("energy-aware")
        assert policy.choose(req(), fleet, 0.0) == 0


class TestFactory:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            make_policy("random")

    def test_known_names(self):
        for name in (
            "round-robin",
            "least-loaded",
            "affinity",
            "deadline-aware",
            "energy-aware",
        ):
            assert make_policy(name).name == name
