"""The general ``(time, seq)`` heap event loop: the engine's test oracle.

The engine serves every run with one of its two kernels — the
vectorized round-robin ``"rr"`` or the event fold — so the loop they
were both derived from lives here, outside the package, as the
reference they are checked against bit for bit.  It processes one
arrival, completion, wake or tick at a time from a heap ordered by
``(time, seq)``: at equal timestamps arrivals precede every scheduled
event, instance events pop in push order and the tick comes last.  It
calls every hook the engine's configuration binds, at every event,
and hands hooks and policies arena views.

:func:`force_general` patches :meth:`Engine.run_until` so a workload
steps this loop instead of the kernels; its runs report
``dispatch == "general"``.  :func:`enqueue` and :func:`launch_head`
are the loop's scalar queue rules, usable on any
:class:`~repro.serve.fleet.Instance`.
"""

from bisect import bisect_right
from heapq import heappop, heappush
from itertools import count
from unittest import mock

from repro.errors import ConfigError
from repro.serve.engine import (
    _EPS,
    _INF,
    _TICK,
    _TICK_SEQ,
    _WAKE,
    Engine,
    EngineRun,
)

#: A batch completion's event kind (the engine's kernels hold one
#: pending event per instance and need no separate kind).
_COMPLETE = 1


def enqueue(instance, request) -> None:
    """Queue ``request``'s row, keeping the queue in ``(priority,
    row)`` order: urgent classes batch first, FIFO within a priority
    (so a single-priority stream is plain FIFO).

    Arrivals carry the largest row so far, so bisecting on priority
    alone lands on the ``(priority, row)`` position.  A
    same-or-lower-priority arrival (the common case) appends in O(1);
    only an overtaking one pays a bisection and an insert.
    """
    queue = instance.queue
    priority = request.arena.priority
    p = priority[request.i]
    if queue and priority[queue[-1]] > p:
        queue.insert(
            bisect_right(queue, p, key=priority.__getitem__),
            request.i,
        )
    else:
        queue.append(request.i)
    instance.queued_seconds += request.profile.per_image_seconds


def launch_head(instance, arena, max_batch: int, now: float) -> float:
    """Launch the due head batch of ``arena`` rows queued on
    ``instance``; returns its completion time.

    The batch is the longest same-model run at the queue head, capped
    at ``max_batch`` (queue order is never violated — a different
    model behind the head waits its turn).  Images stream
    sequentially, so the i-th request of the batch finishes after
    ``setup + (i+1) * per_image`` — completion times inside a batch
    are staggered, not simultaneous; they are written to the arena's
    ``start``/``finish`` columns.  Service times come from the
    instance's own profile (heterogeneous fleets) when one is set,
    stretched by its DVFS ``latency_scale``.
    """
    queue = instance.queue
    if not queue:
        raise ConfigError("no queued requests to batch")
    model_idx = arena.model_idx
    m = model_idx[queue[0]]
    members = [queue.popleft()]
    while len(members) < max_batch and queue and model_idx[queue[0]] == m:
        members.append(queue.popleft())
    request_profile = arena.profiles[m]
    queued_seconds = instance.queued_seconds
    # One subtraction per member, as each enqueue added one.
    for _ in members:
        queued_seconds -= request_profile.per_image_seconds
    instance.queued_seconds = queued_seconds if queue else 0.0
    model = arena.model_names[m]
    cold = instance.loaded_model != model
    profile = instance.profile_for(model) or request_profile
    setup = profile.setup_seconds if cold else 0.0
    per_image = profile.per_image_seconds * instance.latency_scale
    base = now + setup
    start = arena.start
    finish = arena.finish
    n = 0
    for row in members:
        n += 1
        start[row] = now
        finish[row] = base + n * per_image
    service = setup + n * per_image
    instance.busy_until = now + service
    instance._accrue_busy(now, service)
    instance.served += n
    instance.batches += 1
    if cold:
        instance.setups += 1
    instance.loaded_model = model
    return instance.busy_until


def _maybe_launch(engine, instance, now: float, seq) -> None:
    """Launch the head batch if it is due, else schedule its timeout.
    A batch is due when the head request has waited out the fill
    window or a full same-model run is queued behind it."""
    if instance.busy_until > now or not instance.queue:
        return
    queue = instance.queue
    requests = engine._requests
    head = queue[0]
    max_batch = engine.max_batch
    deadline = requests.arrival.item(head) + engine.max_wait_s
    if now >= deadline - _EPS:
        due = True
    elif len(queue) >= max_batch:
        model_idx = requests.model_idx
        model = model_idx[head]
        n = 0
        for row in queue:
            if model_idx[row] != model:
                break
            n += 1
            if n == max_batch:
                break
        due = n == max_batch
    else:
        due = False
    heap = engine.state.heap
    if due:
        finish = launch_head(instance, requests, max_batch, now)
        heappush(heap, (finish, next(seq), _COMPLETE, instance.index))
    else:
        heappush(heap, (deadline, next(seq), _WAKE, instance.index))


def _run_general(engine, t: float) -> EngineRun:
    """The general event loop over ``engine.state``, through time
    ``t``.

    Execution state is loaded from the state on entry and written back
    on exit; the two horizon checks compare against ``t`` before
    consuming an arrival or popping a scheduled event, so sliced runs
    equal one drain.  Sequence numbers continue past every pending
    instance event (arrivals implicitly own ``1..n``), so entries pop
    in push order across slices and pickle round trips.
    """
    state = engine.state
    requests = engine._requests
    instances = engine.fleet.instances
    policy = engine.policy
    admit = engine._admit
    on_complete = engine._on_complete
    hooks = engine.hooks
    tick_s = engine.tick_s
    heap = state.heap
    n = len(requests)
    seq = count(
        max((e[1] for e in heap if e[2] != _TICK), default=n) + 1
    )
    i = state.cursor
    first = i
    # Routed instance per consumed arrival, written back to the
    # ``instance`` column when the slice returns.
    routed: list[int] = []
    route = routed.append
    events = state.events
    tick_actions = state.tick_actions
    now = state.clock
    next_arrival = requests[i].arrival if i < n else _INF
    while True:
        if i < n and (not heap or next_arrival <= heap[0][0]):
            if next_arrival > t:
                break
            request = requests[i]
            i += 1
            next_arrival = requests[i].arrival if i < n else _INF
            events += 1
            now = request.arrival
            active = [instance for instance in instances if instance.active]
            instance = active[policy.choose(request, active, now)]
            route(instance.index)
            if admit is not None and not admit(request, instance, now, engine):
                request.shed = True
                continue
            enqueue(instance, request)
            _maybe_launch(engine, instance, now, seq)
            continue
        if not heap:
            break
        if heap[0][0] > t:
            break
        now, _, kind, payload = heappop(heap)
        events += 1
        if kind == _TICK:
            before = [instance.busy_until for instance in instances]
            # The cursor is current at a tick (a forecasting governor
            # counts the arrivals since the last one).
            state.cursor = i
            tick_actions += hooks.on_tick(now, engine)
            # A tick may extend busy_until (e.g. a power-up warm-up)
            # without launching a batch, which would swallow the
            # instance's pending completion; re-arm a wake at any grown
            # horizon so its queue is re-examined (the loop invariant is
            # "busy implies an event at busy_until").
            for instance in instances:
                grown = instance.busy_until
                if grown > before[instance.index] and grown > now:
                    heappush(heap, (grown, next(seq), _WAKE, instance.index))
            if i < n or any(
                instance.queue or instance.busy_until > now + _EPS
                for instance in instances
            ):
                heappush(heap, (now + tick_s, _TICK_SEQ, _TICK, None))
        else:  # _COMPLETE and _WAKE both just re-examine the queue
            instance = instances[payload]
            _maybe_launch(engine, instance, now, seq)
            if on_complete is not None:
                on_complete(instance, now, engine)
    requests.instance[first:i] = routed
    state.cursor = i
    state.events = events
    state.tick_actions = tick_actions
    state.clock = now if t == _INF else t
    return EngineRun(events, tick_actions, "general")


def run_until(engine, t: float) -> EngineRun:
    """:meth:`Engine.run_until` on the general loop."""
    run = engine.last_run = _run_general(engine, t)
    return run


def force_general():
    """Context manager: every engine steps the general loop."""
    return mock.patch.object(Engine, "run_until", run_until)
