"""Governor/frontier sweeps, Pareto extraction, caching, rendering."""

import dataclasses

import pytest
from general_loop import force_general

from repro.control import (
    ControlScenario,
    SLOClass,
    control_sweep,
    governor_sweep,
    pareto_frontier,
    simulate_controlled,
    static_frontier_sweep,
)
from repro.errors import ConfigError, EvaluationError
from repro.eval import render_control_report, render_control_sweep
from repro.eval.control import report_to_dict
from repro.parallel.cache import ResultCache

BASE = ControlScenario(
    requests=300,
    qps=1_500.0,
    instances=2,
    slo_classes=(SLOClass("only", deadline_ms=100.0, target=0.9),),
    seed=2,
)


class TestSweeps:
    def test_static_frontier_grid_order_and_caching(self, tmp_path):
        cache = ResultCache(tmp_path)
        reports = static_frontier_sweep(
            BASE, voltages=[0.6, 0.8], fleet_sizes=[1, 2], cache=cache
        )
        assert len(reports) == 4
        # Row-major: (0.6,1), (0.6,2), (0.8,1), (0.8,2).
        assert [r.instances for r in reports] == [1, 2, 1, 2]
        assert cache.misses == 4 and cache.hits == 0
        again = static_frontier_sweep(
            BASE, voltages=[0.6, 0.8], fleet_sizes=[1, 2], cache=cache
        )
        assert cache.hits == 4
        assert again == reports

    def test_general_loop_cache_serves_the_fast_path(self, tmp_path):
        """Entries the forced general loop wrote are warm hits for the
        event fold: the cache key never names the execution path, and
        both paths produce equal reports."""
        base = ControlScenario(
            requests=800, qps=2500.0, instances=2,
            policy="round-robin", shedding="deadline", seed=3,
        )
        cold = ResultCache(tmp_path)
        with force_general():
            general = static_frontier_sweep(
                base, (0.6, 0.8), (1, 2), cache=cold
            )
        warm = ResultCache(tmp_path)
        fast = static_frontier_sweep(base, (0.6, 0.8), (1, 2), cache=warm)
        assert (warm.hits, warm.misses) == (4, 0)
        assert fast == general, "cached general entries diverge"

    def test_more_voltage_means_more_energy(self):
        lo, hi = static_frontier_sweep(
            BASE, voltages=[0.6, 0.8], fleet_sizes=[2]
        )
        assert lo.energy_joules < hi.energy_joules
        # f_max(0.6 V) < f_max(0.8 V): the slow fleet is tighter on SLOs.
        assert lo.latency_p99_s > hi.latency_p99_s

    def test_governor_sweep_labels_by_order(self):
        reports = governor_sweep(BASE, ["utilization", "dvfs"])
        assert len(reports) == 2
        assert all(r.energy_joules is not None for r in reports)

    def test_empty_grids_rejected(self):
        with pytest.raises(ConfigError):
            control_sweep([])
        with pytest.raises(ConfigError):
            static_frontier_sweep(BASE, [], [1])
        with pytest.raises(ConfigError):
            governor_sweep(BASE, [])


class TestPareto:
    def _fake(self, energy, attainment):
        report = simulate_controlled(
            dataclasses.replace(BASE, requests=20)
        )
        return dataclasses.replace(
            report,
            energy_joules=energy,
            class_stats=tuple(
                dataclasses.replace(
                    cs, met=int(attainment * cs.offered)
                )
                for cs in report.class_stats
            ),
        )

    def test_dominated_points_excluded(self):
        cheap_good = self._fake(1.0, 1.0)
        dear_good = self._fake(2.0, 1.0)  # dominated: more energy
        reports = [dear_good, cheap_good]
        assert pareto_frontier(reports) == [1]

    def test_frontier_trades_energy_for_attainment(self):
        a = self._fake(1.0, 0.5)
        b = self._fake(2.0, 0.9)
        c = self._fake(3.0, 0.7)  # dominated by b
        front = pareto_frontier([a, b, c])
        assert front == [0, 1]

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            pareto_frontier([])


class TestRendering:
    def test_control_report_renders_classes_and_energy(self):
        report = simulate_controlled(BASE)
        text = render_control_report(report)
        assert "Per-class SLO attainment" in text
        assert "energy (mJ)" in text
        assert "only" in text

    def test_sweep_render_marks_frontier(self):
        reports = static_frontier_sweep(
            BASE, voltages=[0.6, 0.8], fleet_sizes=[1]
        )
        frontier = pareto_frontier(reports)
        text = render_control_sweep(
            reports, ["lo", "hi"], frontier
        )
        assert "Pareto" in text and "lo" in text
        assert "*" in text

    def test_sweep_render_validates_inputs(self):
        reports = [simulate_controlled(BASE)]
        with pytest.raises(EvaluationError):
            render_control_sweep([])
        with pytest.raises(EvaluationError):
            render_control_sweep(reports, ["a", "b"])

    def test_report_to_dict_is_json_clean(self):
        import json

        report = simulate_controlled(BASE)
        payload = report_to_dict(report)
        text = json.dumps(payload)
        assert "slo_attainment" in payload
        assert payload["class_stats"][0]["name"] == "only"
        assert json.loads(text)["energy_joules"] == pytest.approx(
            report.energy_joules
        )
