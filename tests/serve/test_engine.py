"""The shared discrete-event kernel: hook protocol and launch paths."""

import pytest
from arena_rows import arena_of
from general_loop import force_general

from repro.errors import ConfigError
from repro.serve import (
    Engine,
    EngineHooks,
    Fleet,
    make_policy,
    service_profile,
)

EDGE = service_profile("edge-tiny")


def _rows(count, gap=0.01, model="edge-tiny", profile=None):
    profile = profile if profile is not None else EDGE
    return [
        dict(model=model, profile=profile, arrival=gap * (i + 1))
        for i in range(count)
    ]


def _requests(count, **kwargs):
    return arena_of(*_rows(count, **kwargs))


def _engine(fleet, hooks=None, tick_s=None, **kwargs):
    policy = make_policy(kwargs.pop("policy", "least-loaded"))
    policy.reset()
    defaults = dict(max_batch=8, max_wait_s=0.0)
    defaults.update(kwargs)
    return Engine(fleet, policy, hooks=hooks, tick_s=tick_s, **defaults)


class TestKernel:
    def test_drains_every_request(self):
        requests = _requests(64)
        run = _engine(Fleet(2)).run(requests)
        assert all(r.finish >= 0 for r in requests)
        # One arrival event per request plus >= 1 completion per batch.
        assert run.events > len(requests)
        assert run.tick_actions == 0

    def test_validation(self):
        fleet = Fleet(1)
        policy = make_policy("round-robin")
        with pytest.raises(ConfigError):
            Engine(fleet, policy, max_batch=0, max_wait_s=0.0)
        with pytest.raises(ConfigError):
            Engine(fleet, policy, max_batch=1, max_wait_s=-1.0)
        with pytest.raises(ConfigError):
            Engine(fleet, policy, max_batch=1, max_wait_s=0.0, tick_s=0.0)


class TestBuildRequests:
    def test_matches_scalar_sampling_draw_for_draw(self):
        """The vectorized sampler must stay bit-identical to the
        scalar ScenarioMix.sample / per-request class-draw loop the
        legacy simulators used (same RNG stream, same boundaries)."""
        import numpy as np

        from repro.control.slo import DEFAULT_SLO_CLASSES
        from repro.serve.engine import build_requests
        from repro.serve.profile import build_mix

        mix = build_mix("mixed")
        times = np.linspace(0.001, 1.0, 500)

        vectorized = build_requests(
            mix, times, np.random.default_rng(17)
        )
        rng = np.random.default_rng(17)
        scalar = [mix.sample(rng) for _ in range(len(times))]
        assert [r.model for r in vectorized] == scalar

        classes = DEFAULT_SLO_CLASSES
        vectorized = build_requests(
            mix, times, np.random.default_rng(17), slo_classes=classes
        )
        rng = np.random.default_rng(17)
        total = sum(c.share for c in classes)
        scalar_pairs = []
        for _ in range(len(times)):
            model = mix.sample(rng)
            u = rng.random() * total
            acc = 0.0
            for cls in classes:
                acc += cls.share
                if u < acc:
                    break
            scalar_pairs.append((model, cls.name))
        assert [(r.model, r.slo) for r in vectorized] == scalar_pairs


class TestHooks:
    def test_on_arrival_sheds(self):
        class EveryOther(EngineHooks):
            def on_arrival(self, request, instance, now, engine):
                return request.index % 2 == 0

        requests = _requests(40)
        _engine(Fleet(1), hooks=EveryOther()).run(requests)
        shed = [r for r in requests if r.shed]
        assert len(shed) == 20
        assert all(r.index % 2 == 1 for r in shed)
        assert all(r.finish < 0 for r in shed)
        assert all(
            r.finish >= 0 for r in requests if not r.shed
        )

    def test_on_tick_fires_until_drain(self):
        ticks = []

        class Ticker(EngineHooks):
            def on_tick(self, now, engine):
                ticks.append(now)
                return 1

        requests = _requests(10, gap=0.005)
        run = _engine(Fleet(1), hooks=Ticker(), tick_s=0.004).run(requests)
        assert run.tick_actions == len(ticks)
        assert len(ticks) >= 10
        # Ticks stop once the offered traffic has drained.
        assert ticks[-1] <= requests[-1].finish + 2 * 0.004
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(gap == pytest.approx(0.004) for gap in gaps)

    def test_on_complete_sees_each_reexamination(self):
        seen = []

        class Watcher(EngineHooks):
            def on_complete(self, instance, now, engine):
                seen.append((instance.index, now))

        requests = _requests(12)
        _engine(Fleet(2), hooks=Watcher(), policy="round-robin").run(
            requests
        )
        assert len(seen) >= 2  # at least one completion per instance
        assert {index for index, _ in seen} == {0, 1}

    def test_routing_skips_inactive_instances_under_ticks(self):
        """With a tick scheduled, the policy sees only the active
        slice, so a powered-down instance receives no traffic."""
        fleet = Fleet(3)
        fleet[1].active = False
        requests = _requests(30)
        _engine(
            fleet, hooks=EngineHooks(), tick_s=1.0, policy="round-robin"
        ).run(requests)
        assert fleet[1].served == 0
        assert fleet[0].served + fleet[2].served == 30

    def test_hook_deactivation_respected_without_ticks(self):
        """Routing must honour an instance a *hook* (not a governor)
        powers down mid-run, even when no tick is scheduled."""

        class RetireAfterTen(EngineHooks):
            def on_arrival(self, request, instance, now, engine):
                if request.index == 10:
                    engine.fleet[0].active = False
                return True

        fleet = Fleet(2)
        requests = _requests(40)
        _engine(fleet, hooks=RetireAfterTen(), policy="round-robin").run(
            requests
        )
        served_late = [
            r for r in requests if r.index > 10 and r.finish >= 0
        ]
        assert len(served_late) == 29
        assert fleet[1].served >= 29  # instance 0 got none of them

    def test_tick_rearms_wake_after_busy_horizon_grows(self):
        """A tick that extends busy_until (e.g. a warm-up) must not
        swallow the pending completion: the engine re-arms a wake."""

        class Extender(EngineHooks):
            def __init__(self):
                self.extended = False

            def on_tick(self, now, engine):
                instance = engine.fleet[0]
                if not self.extended and instance.busy_until > now:
                    instance.busy_until += 0.05
                    self.extended = True
                    return 1
                return 0

        requests = _requests(6, gap=0.0002)
        run = _engine(Fleet(1), hooks=Extender(), tick_s=0.0005).run(
            requests
        )
        assert run.tick_actions == 1
        assert all(r.finish >= 0 for r in requests)


class TestFastPathParity:
    """A/B: the columnar fast paths equal the general loop exactly.

    The same workload runs through the dispatched kernel and the
    forced general heap loop — finishes, starts, events, and instance
    counters must be bit-identical.
    """

    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded"])
    def test_fast_equals_general(self, policy):
        import numpy as np

        from repro.serve.arrival import PoissonArrivals
        from repro.serve.engine import build_requests
        from repro.serve.profile import build_mix

        mix = build_mix("mixed")
        times = PoissonArrivals(400.0).times(
            4_000, np.random.default_rng(5)
        )

        def run():
            rng = np.random.default_rng(9)
            arena = build_requests(mix, times, rng)
            engine = _engine(Fleet(3), policy=policy, max_wait_s=0.01)
            run_info = engine.run(arena)
            return arena, run_info, engine.fleet

        fast_arena, fast_run, fast_fleet = run()
        with force_general():
            gen_arena, gen_run, gen_fleet = run()
        assert fast_run.dispatch != "general"
        assert gen_run.dispatch == "general"
        assert np.array_equal(fast_arena.finish, gen_arena.finish)
        assert np.array_equal(fast_arena.start, gen_arena.start)
        assert np.array_equal(fast_arena.instance, gen_arena.instance)
        # Event counts are NOT compared: the general heap loop counts
        # stale wake pops (provably no-ops) that the fast paths never
        # materialize, so its count is an upper bound.
        assert 0 < fast_run.events <= gen_run.events
        for fi, gi in zip(fast_fleet, gen_fleet):
            assert fi.busy_until == gi.busy_until
            assert fi.busy_seconds == gi.busy_seconds
            assert fi.served == gi.served
            assert fi.batches == gi.batches
            assert fi.setups == gi.setups
            assert fi.loaded_model == gi.loaded_model
