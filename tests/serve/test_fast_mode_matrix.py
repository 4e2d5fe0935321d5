"""Dispatch decision matrix for the engine's two kernels.

Each case starts from a configuration and flips exactly one
precondition: ``_fast_mode`` must land on the expected kernel.  The
rule is ``"rr"`` where the vectorized round-robin kernel resolves the
run exactly, else the event ``"fold"``, which serves every
configuration: several priorities, DVFS scales, busy power, degenerate
waits, a fleet that already ran, overridden or declared hooks, ticks,
per-instance profiles and every routing policy.  Governed runs —
ticks, autoscaling, DVFS ladders — take the fold whether they drain in
one call, in bounded slices or after a resume, and every migrated
configuration reports identically to the general loop (the oracle in
``tests/general_loop.py``).  Telemetry is derived from the drained
columns, so it never moves a run off its kernel.
"""

import pickle

import numpy as np
import pytest
from general_loop import force_general

from repro.control import ControlScenario, simulate_controlled
from repro.control.hetero import parse_fleet_spec
from repro.control.simulator import ControlHooks
from repro.control.slo import (
    DeadlineShedding,
    NoShedding,
    PriorityShedding,
    QueueDepthShedding,
)
from repro.serve import Engine, EngineHooks, Fleet, make_policy
from repro.serve.arrival import PoissonArrivals
from repro.serve.engine import build_requests
from repro.serve.profile import build_mix


def _arena(n=256, qps=400.0, tied=False):
    mix = build_mix("mixed")
    if tied:
        # Nondecreasing with exact duplicates: every timestamp shared
        # by two arrivals, the shape zero-wait batching can't vectorize.
        times = np.repeat(0.01 * np.arange(1, n), 2)[:n]
    else:
        times = PoissonArrivals(qps).times(n, np.random.default_rng(5))
    return build_requests(mix, times, np.random.default_rng(9))


def _engine(policy="round-robin", hooks=None, instances=3, **kwargs):
    p = make_policy(policy)
    p.reset()
    defaults = dict(max_batch=8, max_wait_s=0.01)
    defaults.update(kwargs)
    return Engine(Fleet(instances), p, hooks=hooks, **defaults)


def _ctl_engine(shedder=None, governor=None, **kwargs):
    hooks = ControlHooks(
        shedder if shedder is not None else DeadlineShedding(),
        governor=governor,
    )
    return _engine(hooks=hooks, **kwargs)


class TestServePlaneMatrix:
    """The hook-free serve-plane kernels and their disqualifiers."""

    def test_baseline_round_robin(self):
        assert _engine()._fast_mode(_arena()) == "rr"

    def test_baseline_least_loaded(self):
        engine = _engine(policy="least-loaded")
        assert engine._fast_mode(_arena()) == "fold"

    def test_tick_takes_the_fold(self):
        """A tick is a barrier inside the fold, not a reason to leave
        it; only ``"rr"`` (which has no ticks) gives way."""
        engine = _engine(tick_s=0.5)
        assert engine._fast_mode(_arena()) == "fold"

    def test_sub_nanosecond_wait_takes_the_fold(self):
        """Below the "rr" partition's resolution; the scalar fold is
        exact for any max_wait."""
        engine = _engine(max_wait_s=1e-10)
        assert engine._fast_mode(_arena()) == "fold"

    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded"])
    def test_several_priority_levels_take_the_fold(self, policy):
        """The "rr" kernel keeps FIFO queues, so a hook-free stream
        with several priority levels takes the fold's ordered queues."""
        arena = _arena()
        arena.priority[::3] = 1
        engine = _engine(policy=policy)
        assert engine._fast_mode(arena) == "fold"

    @pytest.mark.parametrize(
        "hook, override",
        [
            ("on_arrival", lambda self, request, instance, now, engine: True),
            ("on_complete", lambda self, instance, now, engine: None),
            ("on_tick", lambda self, now, engine: 0),
        ],
        ids=["on_arrival", "on_complete", "on_tick"],
    )
    def test_overridden_hook_takes_the_fold(self, hook, override):
        """An undeclared hook is called at a barrier of the fold; only
        ``"rr"`` (which calls no hook) gives way."""
        hooks = type("Overridden", (EngineHooks,), {hook: override})()
        engine = _engine(hooks=hooks)
        assert engine._fast_mode(_arena()) == "fold"
        assert _engine()._fast_mode(_arena()) == "rr"

    def test_dirty_instance_takes_the_fold(self):
        """The fold seeds itself from the instances — a warm, busy,
        counted fleet drains as the general loop drains it; ``"rr"``
        starts from an idle, cold fleet only."""

        def warm_run():
            engine = _engine()
            engine.fleet[0].busy_until = 0.2
            engine.fleet[1].loaded_model = "mobilenet-v1-224"
            engine.fleet[2].busy_seconds = 0.3
            arena = _arena()
            return engine, arena, engine.run(arena)

        engine, arena, run = warm_run()
        assert run.dispatch == "fold"
        with force_general():
            general, general_arena, _ = warm_run()
        for column in ("start", "finish", "instance"):
            np.testing.assert_array_equal(
                getattr(arena, column), getattr(general_arena, column)
            )
        for fi, gi in zip(engine.fleet, general.fleet):
            assert (fi.busy_until, fi.busy_seconds, fi.loaded_model) == (
                gi.busy_until, gi.busy_seconds, gi.loaded_model
            )

    def test_latency_scale_takes_the_fold(self):
        engine = _engine()
        engine.fleet[1].latency_scale = 1.2
        assert engine._fast_mode(_arena()) == "fold"

    def test_instance_profiles_take_the_fold(self):
        engine = _engine()
        engine.fleet[0].profiles = {}
        assert engine._fast_mode(_arena()) == "fold"

    def test_zero_wait_coincident_arrivals(self):
        """max_wait=0 vectorizes only for strictly increasing times;
        tied arrivals take the fold."""
        engine = _engine(max_wait_s=0.0)
        assert engine._fast_mode(_arena()) == "rr"
        engine = _engine(max_wait_s=0.0)
        assert engine._fast_mode(_arena(tied=True)) == "fold"

    def test_accumulated_counters_take_the_fold(self):
        engine = _engine(policy="least-loaded")
        engine.fleet[2].energy_joules = 1.0
        assert engine._fast_mode(_arena()) == "fold"


class TestControlPlaneMatrix:
    """Controlled runs on the ``"fold"`` kernel: which rules are
    declared, and what is called at a barrier."""

    @pytest.mark.parametrize(
        "shedder, kind",
        [
            (NoShedding(), "none"),
            (DeadlineShedding(), "deadline"),
            (QueueDepthShedding(16), "queue-depth"),
            (PriorityShedding(16), "priority"),
        ],
        ids=["none", "deadline", "queue-depth", "priority"],
    )
    def test_builtin_shedding_is_declared(self, shedder, kind):
        engine = _ctl_engine(shedder)
        assert engine.hooks.fast_admission()[0] == kind
        assert engine._fast_mode(_arena()) == "fold"

    def test_dvfs_instance_state_stays_eligible(self):
        """Latency scales, busy power and per-instance profiles all
        fold into the kernel."""
        engine = _ctl_engine()
        engine.fleet[0].latency_scale = 1.3
        engine.fleet[0].busy_power_w = 2.0
        assert engine._fast_mode(_arena()) == "fold"
        engine = _ctl_engine()
        engine.fleet[0].profiles = {}
        assert engine._fast_mode(_arena()) == "fold"

    def test_governor_takes_the_fold(self):
        from repro.control.autoscale import make_governor

        governor = make_governor("utilization", 0.01, 1, 3, 0.0)
        engine = _ctl_engine(governor=governor, tick_s=0.01)
        assert engine.hooks.fast_admission() == ("deadline", 0)
        assert engine._fast_mode(_arena()) == "fold"

    def test_priority_shedding_declares_its_own_rule(self):
        """PriorityShedding subclasses QueueDepthShedding but preempts
        queued victims: it declares ``"priority"``, never inheriting
        the queue-depth rule."""
        engine = _ctl_engine(PriorityShedding(16))
        assert engine.hooks.fast_admission() == ("priority", 16)
        assert engine._fast_mode(_arena()) == "fold"

    def test_overriding_deadline_subclass_keeps_its_own_rule(self):
        """Kernel eligibility is keyed on the shedder's exact type: a
        DeadlineShedding subclass that overrides ``admit`` must not
        inherit the parent's fused rule; the fold calls the subclass's
        own ``admit`` at a barrier and carries out its decisions."""

        class ShedOddRows(DeadlineShedding):
            def admit(self, request, instance, now):
                if request.i % 2:
                    return False, None
                return super().admit(request, instance, now)

        engine = _ctl_engine(ShedOddRows())
        assert engine.hooks.fast_admission() is None
        arena = _arena()
        run = engine.run(arena)
        assert run.dispatch == "fold"
        odd = np.arange(len(arena)) % 2 == 1
        # Odd rows shed by the override; even rows reach the parent's
        # deadline rule, which admits them (deadlines are unbounded).
        assert arena.shed.tolist() == odd.tolist()
        assert (arena.finish[~odd] > 0).all()

    def test_least_loaded_routing_takes_the_fold(self):
        engine = _ctl_engine(policy="least-loaded")
        assert engine._fast_mode(_arena()) == "fold"

    @pytest.mark.parametrize(
        "policy", ["affinity", "deadline-aware", "energy-aware"]
    )
    def test_other_routing_takes_the_fold(self, policy):
        engine = _ctl_engine(policy=policy)
        assert engine._fast_mode(_arena()) == "fold"

    def test_tick_takes_the_fold(self):
        engine = _ctl_engine(tick_s=0.01)
        assert engine._fast_mode(_arena()) == "fold"

    def test_telemetry_keeps_the_fold_bit_for_bit(self):
        from repro.obs import Observability

        scenario = ControlScenario(
            requests=1_500,
            qps=2_500.0,
            instances=2,
            policy="round-robin",
            shedding="deadline",
            seed=7,
        )
        reference = simulate_controlled(scenario)
        assert reference.engine_dispatch == "fold"
        traced = simulate_controlled(
            scenario,
            obs=Observability(trace=True, metrics_every_s=0.05),
        )
        assert traced.engine_dispatch == "fold"
        assert traced == reference


class TestMigratedConfigsMatchGeneral:
    """Configurations the general loop used to serve alone take the
    fold and report identically to the oracle."""

    @pytest.mark.parametrize(
        "policy, shedding",
        [
            ("round-robin", "priority"),
            ("least-loaded", "priority"),
            ("affinity", "deadline"),
            ("deadline-aware", "priority"),
            ("energy-aware", "queue-depth"),
        ],
    )
    def test_general_loop_bit_for_bit(self, policy, shedding):
        scenario = ControlScenario(
            requests=1_500,
            qps=2_500.0,
            instances=2,
            fleet=parse_fleet_spec("0.8,0.6"),
            policy=policy,
            seed=7,
            shedding=shedding,
            queue_threshold=8,
        )
        report = simulate_controlled(scenario)
        assert report.engine_dispatch == "fold"
        with force_general():
            forced = simulate_controlled(scenario)
        assert forced.engine_dispatch == "general"
        assert report == forced


#: Governed shapes: a sizing governor with warm-ups, and a DVFS ladder.
_GOVERNED = {
    "governor": {"autoscale": "utilization", "min_instances": 1},
    "dvfs-ladder": {"autoscale": "dvfs", "min_instances": 1},
}


def _governed(name):
    return ControlScenario(
        requests=1_500,
        qps=2_500.0,
        instances=2,
        policy="round-robin",
        seed=7,
        shedding="deadline",
        **_GOVERNED[name],
    )


def _governed_execution(scenario):
    from repro.control.simulator import _control_inputs, prepare_controlled
    from repro.power.dvfs import DVFSModel

    dvfs_model = DVFSModel()
    fleet, mix, capacity, qps, requests, _ = _control_inputs(
        scenario, dvfs_model
    )
    return prepare_controlled(
        scenario, fleet, mix, capacity, qps, requests,
        dvfs_model=dvfs_model,
    )


class TestGovernedRunsTakeTheFold:
    """Governed runs drain on the fold — in one call, in bounded
    slices, or resumed from a pickle — and match the general loop."""

    @pytest.mark.parametrize("name", sorted(_GOVERNED))
    def test_fold_matches_general_bit_for_bit(self, name):
        scenario = _governed(name)
        report = simulate_controlled(scenario)
        assert report.engine_dispatch == "fold"
        assert report.autoscale_events > 0
        with force_general():
            forced = simulate_controlled(scenario)
        assert forced.engine_dispatch == "general"
        assert report == forced

    @pytest.mark.parametrize("resume", [False, True], ids=["bounded", "resumed"])
    @pytest.mark.parametrize("name", sorted(_GOVERNED))
    def test_sliced_run_stays_on_the_fold(self, name, resume):
        from repro.control.simulator import finalize_controlled

        scenario = _governed(name)
        whole = _governed_execution(scenario)
        whole.engine.run_until(float("inf"))
        execution = _governed_execution(scenario)
        last = float(execution.requests.arrival[-1])
        for cut in (0.1 * last, 0.5 * last, last):
            run = execution.engine.run_until(cut)
            assert run.dispatch == "fold"
            assert not execution.engine.finished
            if resume:
                execution = pickle.loads(pickle.dumps(execution))
        run = execution.engine.run_until(float("inf"))
        assert run.dispatch == "fold"
        assert execution.engine.finished
        for column in ("start", "finish", "shed", "instance"):
            np.testing.assert_array_equal(
                getattr(execution.requests, column),
                getattr(whole.requests, column),
            )
        assert run == whole.engine.last_run
        assert finalize_controlled(execution) == finalize_controlled(whole)


class TestOneDispatchPoint:
    """``run_until`` is the engine's only dispatch point: ``run()`` is
    exactly ``begin`` + ``run_until(inf)``, every kernel leaves the
    state drained, and checkpointed serve runs without a cadence
    dispatch like :func:`~repro.serve.simulate`."""

    #: Shape -> (engine builder, the kernel it dispatches to).
    _BUILDERS = {
        "round-robin": (lambda: _engine(), "rr"),
        "least-loaded": (lambda: _engine(policy="least-loaded"), "fold"),
        "controlled-rr": (lambda: _ctl_engine(), "fold"),
        "controlled-ll": (
            lambda: _ctl_engine(policy="least-loaded"), "fold"
        ),
    }

    @pytest.mark.parametrize("shape", sorted(_BUILDERS))
    def test_run_is_begin_plus_run_until(self, shape):
        build, mode = self._BUILDERS[shape]
        ran, stepped = _arena(qps=2_000.0), _arena(qps=2_000.0)
        by_run = build()
        run = by_run.run(ran)
        by_step = build()
        by_step.begin(stepped)
        step = by_step.run_until(float("inf"))
        assert run.dispatch == step.dispatch == mode
        assert run == step
        for column in ("start", "finish", "shed", "instance"):
            np.testing.assert_array_equal(
                getattr(ran, column), getattr(stepped, column)
            )
        for engine, result in ((by_run, run), (by_step, step)):
            assert engine.finished
            assert engine.state.events == result.events
            assert engine.state.cursor == len(ran)
            assert engine.last_run is result

    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded"])
    def test_checkpointed_serve_without_cadence_dispatches(self, policy):
        from repro.checkpoint import run_serve_checkpointed
        from repro.serve import ServingScenario, simulate

        scenario = ServingScenario(
            requests=2_000, instances=3, policy=policy, seed=4
        )
        report = run_serve_checkpointed(scenario)
        expected = "rr" if policy == "round-robin" else "fold"
        assert report.engine_dispatch == expected
        reference = simulate(scenario)
        assert report == reference
        assert report.engine_events == reference.engine_events
