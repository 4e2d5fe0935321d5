"""MetricsTimeline and the Observability session wiring."""

import numpy as np
import pytest

from repro.errors import ConfigError, ReproError
from repro.obs import MetricsTimeline, Observability
from repro.serve import Engine, make_policy
from repro.serve.arrival import PoissonArrivals
from repro.serve.engine import build_requests
from repro.serve.fleet import Fleet
from repro.serve.profile import build_mix


def _counters(offered=0, shed=0, instances=1):
    return {
        "offered": offered,
        "shed": shed,
        "served": 0,
        "batches": 0,
        "energy": 0.0,
        "busy": [0.0] * instances,
    }


def _sample(timeline, now, offered=0, shed=0, instances=1):
    timeline.sample(
        now,
        _counters(offered, shed, instances),
        [0] * instances,
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
            MetricsTimeline(0.0)
        with pytest.raises(ConfigError):
            MetricsTimeline(-1.0)

    def test_due_respects_boundary(self):
        timeline = MetricsTimeline(0.5)
        assert not timeline.due(0.4)
        assert timeline.due(0.5)
        assert timeline.due(0.5 - 1e-12)  # float-drift tolerance

    def test_boundary_skips_past_quiet_windows(self):
        """A late sample (no ticks fired for a while) advances the
        boundary past `now`, not just by one window."""
        timeline = MetricsTimeline(0.5)
        _sample(timeline, 3.2, offered=10)
        assert timeline.next_sample_t == pytest.approx(3.5)

    def test_rates_are_window_deltas(self):
        timeline = MetricsTimeline(1.0)
        _sample(timeline, 1.0, offered=100, shed=10, instances=2)
        _sample(timeline, 2.0, offered=160, shed=30, instances=2)
        first, second = timeline.samples
        assert first["offered_qps"] == pytest.approx(100.0)
        assert first["shed_qps"] == pytest.approx(10.0)
        assert first["admitted_qps"] == pytest.approx(90.0)
        assert second["offered_qps"] == pytest.approx(60.0)
        assert second["shed_qps"] == pytest.approx(20.0)

    def test_zero_elapsed_window_is_finite(self):
        """Two samples at the same instant (degenerate run) must report
        0.0 rates, never inf/nan."""
        timeline = MetricsTimeline(1.0)
        _sample(timeline, 0.0)
        _sample(timeline, 0.0, offered=5, shed=5)
        for sample in timeline.samples:
            for key, value in sample.items():
                if isinstance(value, float):
                    assert np.isfinite(value), (key, value)

    def test_ring_buffer_bounds_memory_and_reports_drops(self):
        timeline = MetricsTimeline(1.0, maxlen=3)
        for i in range(1, 6):
            _sample(timeline, float(i), offered=i)
        payload = timeline.to_payload()
        assert len(payload["samples"]) == 3
        assert payload["dropped_samples"] == 2
        assert payload["samples"][0]["t"] == 3.0

    @pytest.mark.parametrize("window", [float("nan"), float("inf")])
    def test_rejects_non_finite_window(self, window):
        with pytest.raises(ConfigError, match="finite"):
            MetricsTimeline(window)


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
