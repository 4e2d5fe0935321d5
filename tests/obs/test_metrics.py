"""The derived metrics timeline and the Observability session wiring."""

import re

import numpy as np
import pytest

from repro.errors import ConfigError, ReproError
from repro.obs import Observability, derive
from repro.obs.derive import MAX_GRID
from repro.obs.metrics import (
    check_window,
    is_due,
    next_boundary,
    window_samples,
)
from repro.serve import Engine, make_policy
from repro.serve.arrival import PoissonArrivals
from repro.serve.engine import build_requests
from repro.serve.fleet import Fleet
from repro.serve.profile import build_mix


def _windows(t, offered, shed, instances=1):
    """Sample dicts for cumulative ``offered``/``shed`` counts at the
    times ``t`` (after a zero row at t = 0)."""
    n = len(t)
    zeros = np.zeros(n + 1, dtype=np.int64)
    return window_samples(
        np.array([0.0, *t]),
        {
            "offered": np.array([0, *offered]),
            "shed": np.array([0, *shed]),
            "served": zeros,
            "batches": zeros,
            "energy": np.zeros(n + 1),
            "busy": np.zeros((n + 1, instances)),
        },
        np.zeros((n, instances), dtype=np.int64),
        instances,
    )


def _observed_run(obs, pid, label, requests=40, seed=0):
    """One drained round-robin run registered with ``obs``."""
    rng = np.random.default_rng(seed)
    times = PoissonArrivals(400.0).times(requests, rng)
    arena = build_requests(build_mix("mixed"), times, rng)
    fleet = Fleet(2)
    policy = make_policy("round-robin")
    policy.reset()
    obs.observe(pid, label, fleet, arena)
    run = Engine(fleet, policy, max_batch=4, max_wait_s=0.002).run(arena)
    return arena, run


class TestTimeline:
    def test_rejects_non_positive_window(self):
        with pytest.raises(ConfigError):
            check_window(0.0)
        with pytest.raises(ConfigError):
            check_window(-1.0)

    def test_due_respects_boundary(self):
        assert not is_due(0.5, 0.4)
        assert is_due(0.5, 0.5)
        assert is_due(0.5, 0.5 - 1e-12)  # float-drift tolerance

    def test_next_boundary_skips_past_quiet_windows(self):
        """A late sample (no ticks fired for a while) advances the
        boundary past `now`, not just by one window."""
        assert next_boundary(0.5, 3.2, 0.5) == pytest.approx(3.5)
        assert next_boundary(1.0, 1.0 - 1e-12, 1.0) == pytest.approx(2.0)
        assert next_boundary(2.0, 1.0, 1.0) == 2.0

    def test_rates_are_window_deltas(self):
        first, second = _windows(
            [1.0, 2.0], offered=[100, 160], shed=[10, 30], instances=2
        )
        assert first["offered"] == 100 and second["offered"] == 60
        assert first["offered_qps"] == pytest.approx(100.0)
        assert first["shed_qps"] == pytest.approx(10.0)
        assert first["admitted_qps"] == pytest.approx(90.0)
        assert second["offered_qps"] == pytest.approx(60.0)
        assert second["shed_qps"] == pytest.approx(20.0)
        assert second["utilization"] == [0.0, 0.0]

    def test_zero_elapsed_window_is_finite(self):
        """Two samples at the same instant (degenerate run) must report
        0.0 rates, never inf/nan."""
        samples = _windows([0.0, 0.0], offered=[0, 5], shed=[0, 5])
        for sample in samples:
            for key, value in sample.items():
                if isinstance(value, float):
                    assert np.isfinite(value), (key, value)
        assert samples[1]["offered_qps"] == 0.0

    def test_cap_keeps_the_newest_samples_and_counts_drops(
        self, monkeypatch
    ):
        obs = Observability(metrics_every_s=0.001)
        _observed_run(obs, 0, "fleet 0")
        full = obs.metrics_payload()["timelines"][0]
        assert full["dropped_samples"] == 0 and len(full["samples"]) > 5
        monkeypatch.setattr(derive, "MAX_SAMPLES", 3)
        capped = obs.metrics_payload()["timelines"][0]
        assert capped["samples"] == full["samples"][-3:]
        assert capped["dropped_samples"] == len(full["samples"]) - 3

    @pytest.mark.parametrize("window", [float("nan"), float("inf")])
    def test_rejects_non_finite_window(self, window):
        with pytest.raises(ConfigError, match="finite"):
            check_window(window)

    def test_too_fine_window_names_the_smallest_accepted(self):
        obs = Observability(metrics_every_s=1e-12)
        _observed_run(obs, 0, "fleet 0")
        with pytest.raises(ConfigError, match="too fine") as info:
            obs.metrics_payload()
        smallest = float(
            re.search(r"at least (\S+) s", str(info.value)).group(1)
        )
        assert smallest > 1e-12
        obs.metrics_every_s = smallest
        timeline = obs.metrics_payload()["timelines"][0]
        total = len(timeline["samples"]) + timeline["dropped_samples"]
        assert 0.9 * MAX_GRID < total <= MAX_GRID + 1


class TestObservabilitySession:
    def test_inactive_session(self):
        obs = Observability()
        assert not obs.active
        assert obs.metrics_payload() is None
        with pytest.raises(ReproError):
            obs.write_trace("/tmp/never-written.json")

    def test_rejects_bad_metrics_interval(self):
        with pytest.raises(ConfigError):
            Observability(metrics_every_s=0.0)

    def test_rejects_non_finite_metrics_interval(self):
        for window in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="finite"):
                Observability(metrics_every_s=window)

    def test_observed_run_keeps_its_fast_path(self):
        """Observing only registers the stream: the engine runs with
        its own (here: no) hooks and keeps the ``rr`` kernel, and the
        derived spans cover every request."""
        obs = Observability(trace=True, metrics_every_s=0.01)
        arena, run = _observed_run(obs, 0, "fleet 0 (mixed)")
        assert run.dispatch == "rr"
        assert obs.counts()["completed"] == len(arena)
        assert obs.metrics_payload()["timelines"][0]["samples"]

    def test_per_fleet_timelines(self):
        obs = Observability(metrics_every_s=0.01)
        _observed_run(obs, 1, "fleet 1 (mixed)", seed=1)
        _observed_run(obs, 0, "fleet 0 (mixed)")
        payload = obs.metrics_payload()
        assert [t["pid"] for t in payload["timelines"]] == [0, 1]
        assert payload["timelines"][0]["label"] == "fleet 0 (mixed)"
        assert all(t["samples"] for t in payload["timelines"])

    def test_counts_aggregate_across_fleets(self):
        obs = Observability(trace=True)
        a, _ = _observed_run(obs, 0, "a", requests=10)
        b, _ = _observed_run(obs, 1, "b", requests=5, seed=3)
        b.shed[:2] = True
        b.start[:2] = b.finish[:2] = -1.0
        assert obs.counts() == {
            "offered": 15, "completed": 13, "shed": 2
        }


class TestCheckResume:
    def test_matching_specs_pass(self):
        obs = Observability(trace=True, metrics_every_s=0.5)
        Observability.check_resume(obs.spec(), obs)
        Observability.check_resume(None, None)

    def test_traced_checkpoint_needs_traced_resume(self):
        spec = Observability(trace=True).spec()
        with pytest.raises(ReproError, match="--trace"):
            Observability.check_resume(spec, None)

    def test_untraced_checkpoint_rejects_traced_resume(self):
        with pytest.raises(ReproError, match="no telemetry flags"):
            Observability.check_resume(None, Observability(trace=True))

    def test_window_mismatch_rejected(self):
        spec = Observability(metrics_every_s=0.5).spec()
        with pytest.raises(ReproError, match="metrics-every"):
            Observability.check_resume(
                spec, Observability(metrics_every_s=0.25)
            )


@pytest.mark.parametrize(
    "argv, fleets",
    [
        (
            ["control", "--requests", "600", "--qps", "12000",
             "--shedding", "deadline", "--policy", "round-robin"],
            1,
        ),
        (
            ["control", "--multi-fleet-qps", "4000,1500",
             "--modulator", "diurnal", "--diurnal-period", "0.2",
             "--spillover", "deadline", "--shedding", "deadline",
             "--autoscale", "predictive", "--requests", "400"],
            2,
        ),
    ],
)
def test_traced_metered_run_derives_each_fleet_once(
    argv, fleets, tmp_path, monkeypatch
):
    """Trace file, conservation counters, metrics table and --json all
    share one Schedule per fleet and one metrics payload."""
    import io

    from repro.cli import main

    built = []
    payloads = []

    class CountingSchedule(derive.Schedule):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    metrics_payload = Observability.metrics_payload

    def counting_payload(self):
        payloads.append(1)
        return metrics_payload(self)

    monkeypatch.setattr(derive, "Schedule", CountingSchedule)
    monkeypatch.setattr(Observability, "metrics_payload", counting_payload)
    code = main(
        [
            *argv,
            "--trace", str(tmp_path / "t.json"),
            "--metrics-every", "0.01",
            "--json", str(tmp_path / "r.json"),
        ],
        out=io.StringIO(),
    )
    assert code == 0
    assert len(built) == fleets
    assert len(payloads) == 1
