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
the same event fold against the general loop.
"""

import numpy as np
from arena_rows import arena_of
from general_loop import force_general
from hypothesis import given, settings, strategies as st

from repro.control import ControlScenario, SLOClass
from repro.control.hetero import parse_fleet_spec
from repro.control.simulator import (
    _control_inputs,
    finalize_controlled,
    prepare_controlled,
)
from repro.control.slo import PriorityShedding
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


def _order_key(request):
    return (request.priority, request.i)


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
    assert [r.i for r in instance.queue] == [1, 4, 2, 3, 6, 0, 7, 5]


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
                now = instance.launch_head(max_batch, now)
        elif nxt < len(arena):
            request = arena[nxt]
            nxt += 1
            admitted, _ = shedder.admit(request, instance, now)
            if admitted:
                instance.enqueue(request)
        queue = list(instance.queue)
        assert queue == sorted(queue, key=_order_key)
        assert len(instance.queue) <= threshold


#: Zero-wait ties: every timestamp shared by two (or three) arrivals.
_TIED_TRACE = tuple(
    float(t) for t in np.repeat(2e-4 * np.arange(1, 201), [2, 3] * 100)
)


@st.composite
def _multi_priority_scenario(draw):
    count = draw(st.integers(2, 4))
    classes = tuple(
        SLOClass(
            f"c{k}",
            deadline_ms=draw(st.sampled_from([2.0, 5.0, 20.0, 80.0])),
            target=0.9,
            priority=draw(st.integers(0, 3)),
            share=draw(st.sampled_from([0.5, 1.0, 2.0])),
        )
        for k in range(count)
    )
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
