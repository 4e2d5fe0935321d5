"""Multi-tenant fleets: per-model SLOs, correlated traffic, spillover.

Covers the tenancy acceptance physics — per-model deadline routing,
conservation (admitted + shed == offered) per class, per model, and
end-to-end across spillover — plus deterministic replay: identical
reports *and* identical persistent-cache content keys for a repeated
:class:`MultiFleetScenario`.
"""

import dataclasses

import numpy as np
import pytest
from general_loop import force_general

from repro.control import (
    ControlScenario,
    MultiFleetScenario,
    SLOClass,
    multi_fleet_sweep,
    simulate_controlled,
    simulate_multi_fleet,
)
from repro.errors import ConfigError
from repro.parallel.cache import ResultCache, make_key

#: One tight class bound to the heavyweight model, one default tier.
TENANT_CLASSES = (
    SLOClass(
        "llm", deadline_ms=25.0, target=0.9,
        model="mobilenet-v1-224",
    ),
    SLOClass("default", deadline_ms=50.0, target=0.9, priority=1),
)


def _overloaded_pair(spillover="deadline", **kwargs):
    """Fleet 0 at rho >> 1 (single instance), fleet 1 with headroom."""
    defaults = dict(
        fleets=(
            ControlScenario(
                mix="v1-224",
                qps=2_500.0,
                requests=1_200,
                instances=1,
                max_batch=1,
                max_wait_ms=0.0,
                shedding="deadline",
                slo_classes=(
                    SLOClass("only", deadline_ms=40.0, target=0.9),
                ),
            ),
            ControlScenario(
                mix="mixed",
                qps=800.0,
                requests=1_200,
                instances=4,
                shedding="deadline",
            ),
        ),
        modulator="diurnal",
        period_s=5.0,
        amplitude=0.6,
        spillover=spillover,
        seed=11,
    )
    defaults.update(kwargs)
    return MultiFleetScenario(**defaults)


def _small_pair_fleets(requests=300):
    """The overloaded pair's members, cut to ``requests`` each."""
    return tuple(
        dataclasses.replace(fleet, requests=requests)
        for fleet in _overloaded_pair().fleets
    )


def _priority_three_fleets():
    """Two priority-shedding donors (rho > 1) and one receiver."""
    member = ControlScenario(
        requests=1_000, instances=2, shedding="priority"
    )
    return MultiFleetScenario(
        fleets=tuple(
            dataclasses.replace(member, qps=qps)
            for qps in (9_000.0, 9_000.0, 800.0)
        ),
        modulator="diurnal",
        period_s=0.05,
        spillover="deadline",
        seed=1,
    )


class TestPerModelSLOs:
    def test_bound_class_follows_the_model(self):
        """Every request of the bound model carries the bound class
        (and only those), so deadlines follow the tenant."""
        report = simulate_controlled(
            ControlScenario(
                requests=2_000, slo_classes=TENANT_CLASSES, seed=3
            )
        )
        llm, default = report.class_stats
        v1 = next(
            ms for ms in report.model_stats
            if ms.name == "mobilenet-v1-224"
        )
        assert llm.model == "mobilenet-v1-224"
        assert llm.offered == v1.offered
        assert llm.offered > 0
        # The other two mixed-traffic models all landed in the default
        # tier: class offereds partition the traffic.
        assert llm.offered + default.offered == 2_000

    def test_model_stats_partition_the_traffic(self):
        report = simulate_controlled(
            ControlScenario(
                requests=1_500, slo_classes=TENANT_CLASSES, seed=5
            )
        )
        assert len(report.model_stats) == 3  # the mixed zoo models
        assert sum(ms.offered for ms in report.model_stats) == 1_500
        for ms in report.model_stats:
            assert ms.offered == ms.completed + ms.shed
            assert ms.model == ms.name

    def test_unbound_specs_report_no_model_stats(self):
        """Without bindings the report shape is unchanged (parity with
        every pre-tenancy golden and cache entry)."""
        report = simulate_controlled(ControlScenario(requests=500))
        assert report.model_stats == ()

    def test_fully_bound_specs_need_full_model_cover(self):
        with pytest.raises(ConfigError, match="no applicable SLO"):
            simulate_controlled(
                ControlScenario(
                    requests=100,
                    slo_classes=(
                        SLOClass(
                            "only", deadline_ms=5.0,
                            model="mobilenet-v1-224",
                        ),
                    ),
                )
            )

    def test_binding_does_not_perturb_unbound_draws(self):
        """Binding a class to model A must not change which models the
        request stream draws (the uniform block is shared)."""
        unbound = simulate_controlled(
            ControlScenario(requests=1_000, seed=9)
        )
        bound = simulate_controlled(
            ControlScenario(
                requests=1_000, seed=9, slo_classes=TENANT_CLASSES
            )
        )
        assert unbound.per_model_counts == bound.per_model_counts


class TestMultiFleetConservation:
    def test_end_to_end_and_per_fleet_conservation(self):
        report = simulate_multi_fleet(_overloaded_pair())
        assert report.conserved
        assert (
            report.offered_requests
            == report.completed_requests + report.shed_requests
        )
        for fleet in report.fleets:
            assert (
                fleet.offered_requests
                == fleet.requests + fleet.shed_requests
            )
            for cs in fleet.class_stats:
                assert cs.offered == cs.completed + cs.shed
            # The per-class table partitions everything the fleet's
            # engine processed — including spill-ins carrying a class
            # the receiver does not define itself.
            assert (
                sum(cs.offered for cs in fleet.class_stats)
                == fleet.offered_requests
            )

    def test_receiver_reports_foreign_spill_in_classes(self):
        """The donor's 'only' class spills into a receiver defined
        with the default tiers: the receiver's report must grow a row
        for it instead of silently dropping those requests from its
        per-class view and attainment."""
        report = simulate_multi_fleet(_overloaded_pair())
        assert report.spilled_requests > 0
        receiver = report.fleets[1]
        names = [cs.name for cs in receiver.class_stats]
        assert "only" in names
        foreign = next(
            cs for cs in receiver.class_stats if cs.name == "only"
        )
        assert foreign.offered == report.spilled_requests

    def test_per_model_conservation_across_fleets(self):
        scenario = _overloaded_pair()
        scenario = dataclasses.replace(
            scenario,
            fleets=(
                scenario.fleets[0],
                dataclasses.replace(
                    scenario.fleets[1], slo_classes=TENANT_CLASSES
                ),
            ),
        )
        report = simulate_multi_fleet(scenario)
        for ms in report.fleets[1].model_stats:
            assert ms.offered == ms.completed + ms.shed

    def test_spillover_completes_work_the_donor_shed(self):
        spill = simulate_multi_fleet(_overloaded_pair())
        none = simulate_multi_fleet(
            _overloaded_pair(spillover="none")
        )
        assert spill.spilled_requests > 0
        assert spill.spill_completed > 0
        assert 0 < spill.spill_met <= spill.spill_completed
        assert none.spilled_requests == 0
        # Spillover strictly reduces terminal sheds and serves more.
        assert spill.shed_requests < none.shed_requests
        assert spill.completed_requests > none.completed_requests
        assert spill.attainment > none.attainment

    def test_spilled_requests_pay_the_hop(self):
        report = simulate_multi_fleet(
            _overloaded_pair(spillover_hop_ms=5.0)
        )
        # Receiver's engine saw home + spill-ins; its offered count
        # exceeds its home traffic by exactly the spill-ins.
        receiver = report.fleets[1]
        assert (
            receiver.offered_requests
            == 1_200 + report.spilled_requests
        )


class TestPreemptedVictimsSpill:
    def test_every_donor_shed_is_forwarded(self):
        """A priority-shedding donor preempts queued victims after
        their arrival; each is shed at home and must be forwarded like
        any arrival-time shed (the receiver serves every model and the
        donor's deadlines all survive the hop here).  The donor used
        to forward only the sheds of arrivals whose slice had not yet
        closed — 860 of 884."""
        scenario = MultiFleetScenario(
            fleets=(
                ControlScenario(
                    mix="v1-224", qps=2_500.0, requests=1_500,
                    instances=1, shedding="priority",
                ),
                ControlScenario(
                    mix="mixed", qps=800.0, requests=1_500,
                    instances=4, shedding="deadline",
                ),
            ),
            modulator="diurnal",
            period_s=0.05,
            spillover="deadline",
            seed=1,
        )
        report = simulate_multi_fleet(scenario)
        assert report.fleets[0].shed_requests > 0
        assert report.spilled_requests == report.fleets[0].shed_requests
        assert report.conserved


class TestMemberDispatch:
    def test_ungoverned_round_robin_members_take_the_fold(self):
        """Donors drain in one call and receivers run one merged
        arena, so ungoverned round-robin members — receiver included —
        take the event fold, with the report the general loop
        produces."""
        pair = _overloaded_pair()
        scenario = dataclasses.replace(
            pair,
            fleets=tuple(
                dataclasses.replace(member, policy="round-robin")
                for member in pair.fleets
            ),
        )
        report = simulate_multi_fleet(scenario)
        assert report.spilled_requests > 0
        assert [f.engine_dispatch for f in report.fleets] == [
            "fold", "fold"
        ]
        with force_general():
            general = simulate_multi_fleet(scenario)
        assert [f.engine_dispatch for f in general.fleets] == [
            "general", "general"
        ]
        assert report == general


class TestDeterministicReplay:
    def test_same_scenario_same_report_and_content_key(self):
        scenario = _overloaded_pair()
        a = simulate_multi_fleet(scenario)
        b = simulate_multi_fleet(_overloaded_pair())
        assert a == b
        assert make_key(
            "multi_fleet_point", args=(scenario,)
        ) == make_key("multi_fleet_point", args=(_overloaded_pair(),))

    def test_seed_changes_the_traffic(self):
        a = simulate_multi_fleet(_overloaded_pair())
        b = simulate_multi_fleet(_overloaded_pair(seed=12))
        assert a != b

    def test_sweep_rides_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        scenario = _overloaded_pair(
            fleets=(
                dataclasses.replace(
                    _overloaded_pair().fleets[0], requests=300
                ),
                dataclasses.replace(
                    _overloaded_pair().fleets[1], requests=300
                ),
            )
        )
        first = multi_fleet_sweep([scenario], cache=cache)
        assert cache.misses == 1
        warm = ResultCache(tmp_path)
        second = multi_fleet_sweep([scenario], cache=warm)
        assert warm.hits == 1 and warm.misses == 0
        assert first == second

    def test_sweep_jobs_fan_out_whole_scenarios(self):
        """``jobs`` fans whole scenarios out to workers; each report is
        the in-process one, in submission order."""
        scenarios = [
            _overloaded_pair(seed=seed, fleets=_small_pair_fleets())
            for seed in (11, 12)
        ]
        serial = [simulate_multi_fleet(s) for s in scenarios]
        assert multi_fleet_sweep(scenarios, jobs=2) == serial

    def test_sweep_cache_serves_any_job_count(self, tmp_path):
        """The job count never enters the content key: points a serial
        sweep cached serve a ``jobs=2`` sweep without recomputing."""
        scenarios = [
            _overloaded_pair(seed=seed, fleets=_small_pair_fleets())
            for seed in (11, 12)
        ]
        cold = ResultCache(tmp_path)
        first = multi_fleet_sweep(scenarios, jobs=1, cache=cold)
        assert cold.misses == 2
        warm = ResultCache(tmp_path)
        second = multi_fleet_sweep(scenarios, jobs=2, cache=warm)
        assert warm.hits == 2 and warm.misses == 0
        assert first == second


class TestScenarioValidation:
    def test_rejects_empty_fleets(self):
        with pytest.raises(ConfigError):
            MultiFleetScenario(fleets=())

    def test_rejects_unknown_spillover(self):
        with pytest.raises(ConfigError):
            _overloaded_pair(spillover="always")

    def test_rejects_trace_members(self):
        with pytest.raises(ConfigError, match="trace"):
            _overloaded_pair(
                fleets=(
                    ControlScenario(
                        arrival="trace", trace=(0.0, 1.0), requests=2
                    ),
                )
            )

    def test_rejects_full_swing_amplitude(self):
        with pytest.raises(ConfigError, match=r"\[0, 1\)"):
            _overloaded_pair(amplitude=1.0)

    @pytest.mark.parametrize(
        "hop_ms", [-1.0, float("nan"), float("inf")]
    )
    def test_rejects_negative_or_non_finite_hop(self, hop_ms):
        with pytest.raises(ConfigError, match="spillover_hop_ms"):
            _overloaded_pair(spillover_hop_ms=hop_ms)

    def test_rejects_spillover_without_any_shedding(self):
        """Only shed requests can spill; spillover over all-admitting
        fleets would silently forward nothing."""
        scenario = _overloaded_pair()
        with pytest.raises(ConfigError, match="shedding"):
            _overloaded_pair(
                fleets=tuple(
                    dataclasses.replace(member, shedding="none")
                    for member in scenario.fleets
                )
            )


class TestDonorExchange:
    """The serial drain: donors, the spillover exchange, receivers."""

    def test_priority_shedding_two_donors(self, monkeypatch):
        """Priority shedding preempts queued victims after their own
        arrival; every shed donor row that can still make its deadline
        at the receiver spills — preempted victims included — however
        many donors drain before the exchange."""
        import repro.control.tenancy as tenancy

        drained = []
        finalize = tenancy.finalize_controlled

        def capture(execution):
            drained.append(execution)
            return finalize(execution)

        monkeypatch.setattr(tenancy, "finalize_controlled", capture)
        scenario = _priority_three_fleets()
        report = simulate_multi_fleet(scenario)
        assert report.conserved
        *donors, receiver = drained
        assert len(donors) == 2
        service = {
            p.name: p.per_image_seconds for p in receiver.mix.profiles
        }
        hop_s = scenario.spillover_hop_ms * 1e-3
        forwardable = 0
        for execution in donors:
            arena = execution.requests
            for row in np.flatnonzero(arena.shed):
                model = arena.model_names[arena.model_idx[row]]
                forwardable += bool(
                    arena.arrival[row] + hop_s + service[model]
                    <= arena.deadline[row]
                )
        assert forwardable > 0
        assert report.spilled_requests == forwardable
