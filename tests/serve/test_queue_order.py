"""Instance queues stay in ``(priority, arena row)`` order.

Two checks of the one insertion rule (append unless the tail is
strictly lower priority, otherwise bisect on priority):

* a property over :meth:`Instance.enqueue` interleaved with
  :meth:`Instance.launch_head` pops and :class:`PriorityShedding`
  preemptions — mid-queue inserts and priority ties included;
* a generated differential: on multi-priority controlled scenarios
  under both routing rules, DVFS fleets included, the ``"fold"``
  kernel's inlined copy of the rule schedules exactly what the general
  loop's :meth:`Instance.enqueue` does.

A second generated differential pins hook-free least-loaded serving on
the same event fold against the general loop, and a third pins
governed runs — every governor, warm-ups a whole number of ticks long
so re-armed wakes tie with a tick, cut at random horizons with a
pickle round trip of the execution at each cut.  A governor sees the
same queues, as the same ``int`` arena rows, on both paths.
"""

import pickle

import numpy as np
from arena_rows import arena_of
from general_loop import force_general
from hypothesis import given, settings, strategies as st

from repro.control import ControlScenario, SLOClass, autoscale
from repro.control.hetero import parse_fleet_spec
from repro.control.simulator import (
    _control_inputs,
    finalize_controlled,
    prepare_controlled,
)
from repro.control.slo import PriorityShedding
from repro.obs import Observability
from repro.power.dvfs import DVFSModel
from repro.serve import ServingScenario, build_mix
from repro.serve.fleet import Instance
from repro.serve.simulator import finalize_serving, prepare_serving

PROFILES = build_mix("mixed").profiles[:2]

#: Per-instance counters a kernel writes back; each must equal the
#: general loop's after the drain.
_INSTANCE_COUNTERS = (
    "busy_until",
    "busy_seconds",
    "busy_seconds_window",
    "energy_joules",
    "queued_seconds",
    "served",
    "batches",
    "setups",
    "loaded_model",
)


def test_overtaking_arrival_lands_after_its_priority_ties():
    priorities = [2, 0, 1, 1, 0, 3, 1, 2]
    arena = arena_of(
        *(
            dict(model=PROFILES[0].name, profile=PROFILES[0], priority=p)
            for p in priorities
        )
    )
    instance = Instance(index=0)
    for request in arena:
        instance.enqueue(request)
    assert list(instance.queue) == [1, 4, 2, 3, 6, 0, 7, 5]


@st.composite
def _queue_ops(draw):
    """Rows (priority, model) plus an op script: ``"arrive"`` admits
    the next row through priority shedding, ``"launch"`` pops the head
    batch."""
    n = draw(st.integers(1, 40))
    rows = [
        dict(
            model=PROFILES[m].name,
            profile=PROFILES[m],
            priority=p,
        )
        for p, m in draw(
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 1)),
                min_size=n,
                max_size=n,
            )
        )
    ]
    ops = draw(
        st.lists(st.sampled_from(["arrive", "launch"]), max_size=3 * n)
    )
    threshold = draw(st.integers(1, 8))
    max_batch = draw(st.integers(1, 4))
    return rows, ops, threshold, max_batch


@settings(max_examples=200, deadline=None)
@given(_queue_ops())
def test_queue_is_always_priority_row_sorted(case):
    rows, ops, threshold, max_batch = case
    arena = arena_of(*rows)
    instance = Instance(index=0)
    shedder = PriorityShedding(threshold)
    nxt = 0
    now = 0.0
    for op in ops + ["arrive"] * len(rows):
        if op == "launch":
            if instance.queue:
                now = instance.launch_head(arena, max_batch, now)
        elif nxt < len(arena):
            request = arena[nxt]
            nxt += 1
            admitted, _ = shedder.admit(request, instance, now)
            if admitted:
                instance.enqueue(request)
        queue = list(instance.queue)
        assert queue == sorted(
            queue, key=lambda row: (arena.priority[row], row)
        )
        assert len(instance.queue) <= threshold


#: Zero-wait ties: every timestamp shared by two (or three) arrivals.
_TIED_TRACE = tuple(
    float(t) for t in np.repeat(2e-4 * np.arange(1, 201), [2, 3] * 100)
)


def _slo_classes(draw):
    """Two to four SLO classes, priorities drawn with repeats."""
    return tuple(
        SLOClass(
            f"c{k}",
            deadline_ms=draw(st.sampled_from([2.0, 5.0, 20.0, 80.0])),
            target=0.9,
            priority=draw(st.integers(0, 3)),
            share=draw(st.sampled_from([0.5, 1.0, 2.0])),
        )
        for k in range(draw(st.integers(2, 4)))
    )


@st.composite
def _multi_priority_scenario(draw):
    classes = _slo_classes(draw)
    tied = draw(st.booleans())
    shedding = draw(st.sampled_from(["none", "deadline", "queue-depth"]))
    fleet = draw(st.sampled_from([None, "0.8,0.6x2"]))
    return ControlScenario(
        requests=len(_TIED_TRACE) if tied else 400,
        arrival="trace" if tied else "poisson",
        trace=_TIED_TRACE if tied else None,
        qps=None if tied else draw(st.sampled_from([3_000.0, 9_000.0])),
        instances=draw(st.integers(1, 3)),
        fleet=None if fleet is None else parse_fleet_spec(fleet),
        policy=draw(st.sampled_from(["round-robin", "least-loaded"])),
        max_batch=draw(st.sampled_from([1, 2, 8])),
        max_wait_ms=0.0 if tied else draw(st.sampled_from([0.0, 2.0])),
        slo_classes=classes,
        shedding=shedding,
        queue_threshold=draw(st.integers(2, 16)),
        seed=draw(st.integers(0, 2**16)),
    )


def _assert_same_schedule(fast_run, general_run, columns):
    """The drained columns and every instance's counters agree."""
    a, b = fast_run.requests, general_run.requests
    for column in columns:
        assert np.array_equal(getattr(a, column), getattr(b, column))
    for fi, gi in zip(fast_run.fleet, general_run.fleet, strict=True):
        for counter in _INSTANCE_COUNTERS:
            assert getattr(fi, counter) == getattr(gi, counter), counter


def _control_detailed(scenario):
    dvfs_model = DVFSModel()
    fleet, mix, capacity, qps, requests, _ = _control_inputs(
        scenario, dvfs_model
    )
    execution = prepare_controlled(
        scenario, fleet, mix, capacity, qps, requests,
        dvfs_model=dvfs_model,
    )
    execution.engine.run_until(float("inf"))
    return finalize_controlled(execution), execution


@settings(max_examples=100, deadline=None)
@given(_multi_priority_scenario())
def test_fold_queue_order_matches_general_loop(scenario):
    fast, fast_run = _control_detailed(scenario)
    with force_general():
        general, general_run = _control_detailed(scenario)
    assert fast.engine_dispatch == "fold"
    assert general.engine_dispatch == "general"
    _assert_same_schedule(
        fast_run, general_run, ("start", "finish", "shed", "instance")
    )
    assert fast == general


@st.composite
def _least_loaded_scenario(draw):
    arrival = draw(st.sampled_from(["poisson", "bursty", "trace"]))
    tied = arrival == "trace"
    return ServingScenario(
        requests=len(_TIED_TRACE) if tied else 400,
        arrival=arrival,
        trace=_TIED_TRACE if tied else None,
        qps=None if tied else draw(st.sampled_from([None, 9_000.0])),
        instances=draw(st.integers(1, 4)),
        policy="least-loaded",
        max_batch=draw(st.sampled_from([1, 2, 8])),
        max_wait_ms=0.0 if tied else draw(st.sampled_from([0.0, 2.0])),
        seed=draw(st.integers(0, 2**16)),
    )


def _serve_detailed(scenario):
    execution = prepare_serving(scenario)
    execution.engine.run(execution.requests)
    return finalize_serving(execution), execution


@settings(max_examples=150, deadline=None)
@given(_least_loaded_scenario())
def test_ll_schedule_matches_general_loop(scenario):
    fast, fast_run = _serve_detailed(scenario)
    with force_general():
        general, general_run = _serve_detailed(scenario)
    assert fast_run.engine.last_run.dispatch == "fold"
    assert general_run.engine.last_run.dispatch == "general"
    _assert_same_schedule(
        fast_run, general_run, ("start", "finish", "instance")
    )
    assert fast == general


#: Per-instance state a governed run must agree on as well: power
#: intervals and what the governor moves.
_GOVERNED_COUNTERS = _INSTANCE_COUNTERS + (
    "powered_seconds",
    "powered_since",
    "active",
    "latency_scale",
    "busy_power_w",
)


@st.composite
def _governed_case(draw):
    """A governed control scenario, the warm-up in ticks, and the run's
    cut points as fractions of its last arrival."""
    tied = draw(st.booleans())
    arrival = "trace" if tied else draw(
        st.sampled_from(["poisson", "diurnal"])
    )
    scenario = ControlScenario(
        requests=len(_TIED_TRACE) if tied else 400,
        arrival=arrival,
        trace=_TIED_TRACE if tied else None,
        qps=None if tied else draw(st.sampled_from([3_000.0, 9_000.0])),
        diurnal_period_s=0.05,
        instances=draw(st.integers(2, 3)),
        policy=draw(st.sampled_from(["round-robin", "least-loaded"])),
        max_batch=draw(st.sampled_from([1, 2, 8])),
        max_wait_ms=0.0 if tied else draw(st.sampled_from([0.0, 2.0])),
        slo_classes=_slo_classes(draw),
        shedding=draw(st.sampled_from(["none", "deadline", "queue-depth"])),
        queue_threshold=draw(st.integers(2, 16)),
        autoscale=draw(
            st.sampled_from(
                ["utilization", "queue-delay", "predictive", "dvfs"]
            )
        ),
        min_instances=1,
        tick_ms=draw(st.sampled_from([1.0, 2.0, 5.0])),
        seed=draw(st.integers(0, 2**16)),
    )
    warmup_ticks = draw(st.integers(0, 3))
    cuts = sorted(draw(st.lists(st.floats(0.0, 1.3), max_size=3)))
    return scenario, warmup_ticks, cuts


def _governed_run(scenario, warmup_ticks, cuts=()):
    """Drain a governed scenario (metrics on, so the governor is
    observed), its warm-up set to ``warmup_ticks`` ticks, pickling the
    execution at every cut."""
    dvfs_model = DVFSModel()
    fleet, mix, capacity, qps, requests, _ = _control_inputs(
        scenario, dvfs_model
    )
    execution = prepare_controlled(
        scenario, fleet, mix, capacity, qps, requests,
        dvfs_model=dvfs_model,
        obs=Observability(metrics_every_s=2e-3 * scenario.tick_ms),
    )
    engine = execution.engine
    engine.hooks.governor.governor.warmup_s = warmup_ticks * engine.tick_s
    last = float(requests.arrival[-1])
    for cut in cuts:
        execution.engine.run_until(cut * last)
        execution = pickle.loads(pickle.dumps(execution))
    execution.engine.run_until(float("inf"))
    return execution


@settings(max_examples=60, deadline=None)
@given(_governed_case())
def test_governed_sliced_fold_matches_general_loop(case):
    scenario, warmup_ticks, cuts = case
    fold = _governed_run(scenario, warmup_ticks, cuts)
    with force_general():
        general = _governed_run(scenario, warmup_ticks)
    assert fold.engine.last_run.dispatch == "fold"
    assert general.engine.last_run.dispatch == "general"
    a, b = fold.requests, general.requests
    for column in ("start", "finish", "shed", "instance"):
        assert np.array_equal(getattr(a, column), getattr(b, column))
    for fi, gi in zip(fold.fleet, general.fleet, strict=True):
        for counter in _GOVERNED_COUNTERS:
            assert getattr(fi, counter) == getattr(gi, counter), counter
    assert (
        fold.engine.last_run.tick_actions
        == general.engine.last_run.tick_actions
    )
    fold_log = fold.engine.hooks.governor.log
    general_log = general.engine.hooks.governor.log
    assert fold_log.power == general_log.power
    assert fold_log.dvfs == general_log.dvfs
    assert fold_log.samples == general_log.samples
    assert finalize_controlled(fold) == finalize_controlled(general)


class _QueueLogGovernor(autoscale.UtilizationBandGovernor):
    """The utilization governor, logging every queue at each tick."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.queues = []

    def tick(self, fleet, now):
        self.queues.append([list(instance.queue) for instance in fleet])
        return super().tick(fleet, now)


def test_governor_sees_row_queues_on_every_path(monkeypatch):
    """``on_tick`` reads the same queues of ``int`` arena rows whether
    the fold or the general loop steps the run."""
    monkeypatch.setattr(
        autoscale, "UtilizationBandGovernor", _QueueLogGovernor
    )
    scenario = ControlScenario(
        requests=2_000, qps=9_000.0, instances=3,
        autoscale="utilization", tick_ms=1.0, seed=5,
    )
    _, fold = _control_detailed(scenario)
    with force_general():
        _, general = _control_detailed(scenario)
    assert fold.engine.last_run.dispatch == "fold"
    assert general.engine.last_run.dispatch == "general"
    fold_log = fold.engine.hooks.governor.queues
    general_log = general.engine.hooks.governor.queues
    assert fold_log == general_log
    rows = [row for tick in fold_log for queue in tick for row in queue]
    assert rows, "no tick saw a queued request"
    assert all(type(row) is int for tick in general_log
               for queue in tick for row in queue)
