"""Regressions for the overload-corner report bugs.

Two bugs rode the same blind spot — reports were only ever built from
runs where everything completed:

* an all-shed overload run (aggressive shedding, rho >> 1) left
  ``summarize_requests`` claiming a completed ``[0.0]`` latency, so
  reports carried fabricated zeros built from a phantom request (and a
  ``-inf`` makespan on the serve plane) instead of an explicit
  zero-admitted report;
* ``serve.simulator`` computed ``mean_batch_size`` from the *offered*
  count — shed requests never enter a batch, so any shedding hook made
  the stat overstate batch size (with ``max_batch=1`` it reported
  physically impossible batches > 1).
"""

import warnings

import numpy as np
import pytest
from arena_rows import arena_of

from repro.control import ControlScenario, SLOClass, simulate_controlled
from repro.eval.control import report_to_dict
from repro.serve import ServingScenario, simulate
from repro.serve.engine import EngineHooks, summarize_requests


def _drained(n=4, shed_all=True):
    """A hand-built request stream: every request offered, all shed."""
    return arena_of(
        *(
            dict(
                model="m", profile=None, arrival=0.1 * i, slo="only",
                shed=shed_all,
            )
            for i in range(n)
        )
    )


class TestAllShedSummary:
    def test_summary_is_honestly_empty(self):
        """Pre-fix: a ``[0.0]`` placeholder masqueraded as one
        completed request (``latencies.size != completed``)."""
        summary = summarize_requests(_drained(), track_classes=True)
        assert summary.completed == 0
        assert summary.latencies.size == 0
        assert summary.waits.size == 0
        assert summary.class_buckets["only"][0] == 4

    def test_all_shed_control_report_is_explicit_zero(self):
        """rho >> 1 with an infeasible deadline sheds everything; the
        report must say so without NaN or RuntimeWarning."""
        scenario = ControlScenario(
            mix="v1-224",
            qps=5_000.0,
            requests=300,
            instances=1,
            max_batch=1,
            max_wait_ms=0.0,
            slo_classes=(
                SLOClass("only", deadline_ms=1e-6, target=0.9),
            ),
            shedding="deadline",
            seed=5,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = simulate_controlled(scenario)
        assert report.requests == 0
        assert report.shed_requests == report.offered_requests == 300
        assert report.latency_mean_s == 0.0
        assert report.latency_p99_s == 0.0
        assert report.latency_max_s == 0.0
        assert report.sustained_qps == 0.0
        assert report.mean_batch_size == 0.0
        assert report.joules_per_request is None
        (cs,) = report.class_stats
        assert (cs.offered, cs.shed, cs.met) == (300, 300, 0)
        assert cs.attainment == 0.0
        payload = report_to_dict(report)
        for key, value in payload.items():
            if isinstance(value, float):
                assert np.isfinite(value), (key, value)

    def test_all_shed_serve_report_is_explicit_zero(self):
        """The serve plane with a shed-everything hook: pre-fix the
        makespan was ``-inf`` (no completion ever updated it)."""

        class ShedAll(EngineHooks):
            def on_arrival(self, request, instance, now, engine):
                return False

        report = simulate(
            ServingScenario(requests=50, instances=1, seed=2),
            hooks=ShedAll(),
        )
        assert report.requests == 0
        assert report.shed_requests == report.offered_requests == 50
        assert np.isfinite(report.makespan_s)
        assert report.makespan_s == 0.0
        assert report.latency_p99_s == 0.0
        assert report.utilization == (0.0,)


class TestPreExtensionCacheEntries:
    """Warm caches hold reports pickled before the per-model fields
    existed; unpickling must backfill the defaults instead of
    producing an instance that crashes the first ``asdict``."""

    def test_report_backfills_model_stats(self):
        from repro.serve.simulator import ServingReport

        report = simulate(ServingScenario(requests=50, instances=1))
        state = dict(report.__dict__)
        del state["model_stats"]  # as a pre-tenancy pickle stores it
        legacy = ServingReport.__new__(ServingReport)
        legacy.__setstate__(state)  # what pickle.load invokes
        assert legacy.model_stats == ()
        assert report_to_dict(legacy) == report_to_dict(report)

    def test_class_stats_backfill_model(self):
        report = simulate_controlled(ControlScenario(requests=100))
        cs = report.class_stats[0]
        state = dict(cs.__dict__)
        del state["model"]
        legacy = SLOClass.__new__(type(cs))
        legacy.__setstate__(state)
        assert legacy.model is None
        assert legacy == cs


class TestTelemetryOnDegenerateRuns:
    """The PR-5 honest-zero contract extended to the telemetry
    surfaces: metrics tables and timelines on all-shed / zero-admitted
    runs carry finite zeros, never inf/nan or a div-by-zero crash."""

    _ALL_SHED = ControlScenario(
        mix="v1-224",
        qps=5_000.0,
        requests=300,
        instances=1,
        max_batch=1,
        max_wait_ms=0.0,
        slo_classes=(
            SLOClass("only", deadline_ms=1e-6, target=0.9),
        ),
        shedding="deadline",
        seed=5,
    )

    def test_all_shed_metrics_are_finite(self):
        from repro.eval.obs import render_metrics_timeline
        from repro.obs import Observability

        obs = Observability(trace=True, metrics_every_s=0.005)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = simulate_controlled(self._ALL_SHED, obs=obs)
        assert report.requests == 0
        assert obs.counts() == {
            "offered": 300, "completed": 0, "shed": 300
        }
        metrics = obs.metrics_payload()
        assert metrics["timelines"], "no timeline was sampled"
        for timeline in metrics["timelines"]:
            for sample in timeline["samples"]:
                for key, value in sample.items():
                    values = (
                        value if isinstance(value, list) else [value]
                    )
                    for entry in values:
                        if isinstance(entry, float):
                            assert np.isfinite(entry), (key, entry)
        text = render_metrics_timeline(metrics)
        assert "inf" not in text and "nan" not in text

    def test_empty_timeline_renders(self):
        from repro.eval.obs import render_metrics_timeline

        payload = {
            "window_s": 1.0,
            "timelines": [
                {
                    "pid": 0,
                    "window_s": 1.0,
                    "samples": [],
                    "dropped_samples": 0,
                }
            ],
        }
        assert "no samples" in render_metrics_timeline(payload)

    def test_report_backfills_engine_counters(self):
        """Engine counters mirror the model_stats treatment: a report
        pickled before they existed unpickles to the defaults and
        produces the identical JSON payload."""
        from repro.serve.simulator import ServingReport

        report = simulate(ServingScenario(requests=50, instances=1))
        state = dict(report.__dict__)
        for key in (
            "engine_events", "engine_peak_heap", "engine_dispatch"
        ):
            del state[key]
        legacy = ServingReport.__new__(ServingReport)
        legacy.__setstate__(state)
        assert legacy.engine_dispatch == ""
        assert legacy.engine_events == 0
        assert report_to_dict(legacy) == report_to_dict(report)

    def test_engine_counters_stay_out_of_report_payload(self):
        """report_to_dict drops the counters unconditionally — they
        are execution telemetry, and leaking them would break the
        unregenerated parity goldens."""
        from repro.eval.obs import engine_counters_dict

        report = simulate(ServingScenario(requests=50, instances=1))
        payload = report_to_dict(report)
        assert "engine_events" not in payload
        assert "engine_peak_heap" not in payload
        assert "engine_dispatch" not in payload
        counters = engine_counters_dict(report)
        assert counters == {
            "events": report.engine_events,
            "dispatch": "fold",
        }

    def test_engine_counters_do_not_affect_equality(self):
        """compare=False: two physically identical runs stay == even
        if one took the fast path and one the general loop."""
        import dataclasses as dc

        scenario = ServingScenario(requests=100, instances=2, seed=4)
        report = simulate(scenario)
        relabeled = dc.replace(report, engine_dispatch="general")
        assert relabeled == report


class _ShedOddIndices(EngineHooks):
    """Deterministic 50% shedding: odd submission indices never admit."""

    def on_arrival(self, request, instance, now, engine):
        return request.index % 2 == 0


class TestMeanBatchSizeUnderShedding:
    def test_batch_size_counts_served_not_offered(self):
        """With ``max_batch=1`` every launched batch holds exactly one
        request, so the true mean batch size is exactly 1.0; the
        pre-fix offered-count formula reported ~2.0 under 50% shed —
        a physically impossible batch."""
        scenario = ServingScenario(
            requests=400,
            instances=2,
            max_batch=1,
            qps=1_000.0,
            seed=3,
        )
        report = simulate(scenario, hooks=_ShedOddIndices())
        assert report.shed_requests == 200
        assert report.requests == 200
        assert report.mean_batch_size == pytest.approx(1.0)
        assert report.mean_batch_size <= scenario.max_batch

    def test_sustained_qps_counts_served_not_offered(self):
        report = simulate(
            ServingScenario(
                requests=400, instances=2, qps=1_000.0, seed=3
            ),
            hooks=_ShedOddIndices(),
        )
        assert report.sustained_qps == pytest.approx(
            report.requests / report.makespan_s
        )

    def test_default_hooks_unchanged(self):
        """Without shedding the completed count equals the offered one,
        so the fixed formula reproduces every pre-fix report."""
        scenario = ServingScenario(requests=300, instances=2, seed=1)
        a = simulate(scenario)
        b = simulate(scenario, hooks=None)
        assert a == b
        assert a.requests == a.offered_requests == 300
        assert a.shed_requests == 0
