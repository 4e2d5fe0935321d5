"""The discrete-event kernel shared by every serving simulation.

One :class:`Engine` runs under both :func:`repro.serve.simulate` and
:func:`repro.control.simulate_controlled`: requests arrive in time
order, a scheduling policy places each one on an instance, per-instance
batching queues launch when full or timed out, and an optional periodic
tick drives a control loop.  The simulators differ only in the
:class:`EngineHooks` they plug in:

* ``on_arrival`` — admission control: shed or preempt at the chosen
  instance (the control plane's shedding policies).
* ``on_tick`` — a governor evaluated at a fixed interval (autoscaling,
  DVFS re-pointing).  Only scheduled when ``tick_s`` is set.
* ``on_complete`` — per-instance accounting after its queue was
  re-examined (the control plane closes drained power intervals).

Routing is a policy, not a hook: policies receive the *active* slice of
the fleet as a plain indexed sequence and return a position in it, so
the same policy objects serve both planes without adapter shims.

Three execution paths share one physics
---------------------------------------

Requests live in a columnar :class:`~repro.serve.arena.RequestArena`
(see that module) and the engine picks the fastest path that preserves
the event loop's observable behaviour *bit-for-bit*.  The choice is
made in one place, :meth:`Engine.run_until`: a pristine begun run
draining to infinity takes the kernel :meth:`Engine._fast_mode` picks;
everything else steps the general loop.  :meth:`Engine.run` is exactly
``begin`` + ``run_until(inf)``.

One eligibility rule admits a run to the columnar kernels: no tick, an
admission rule that is absent (no hook overridden) or declared by
:meth:`EngineHooks.fast_admission`, a pristine always-active fleet
without per-instance profiles or accumulated counters, and round-robin
or least-loaded routing.  Every such run can take the event fold; the
vectorized round-robin kernel is the faster choice for the hook-free,
single-priority, unscaled, unpowered runs it resolves exactly (below).

1. **General path** — the ``(time, seq)`` event loop below, processing
   one arrival/completion/wake/tick at a time.  Runs whatever the
   eligibility rule turns away, and bounded or resumed runs; iterates
   arena views, so hook clients still see ``Request`` objects.  Every
   request stream is a
   :class:`~repro.serve.arena.RequestArena` — multi-fleet receivers
   included, which merge their spill-ins as rows — so the stream's
   type never decides the path.
2. **Round-robin fast path** — round-robin striping makes each
   instance's request stream a predetermined slice ``arena[j::K]``, so
   the per-instance timeline is computed with vectorized batch
   partitioning plus a lean Python fold over *batches* (not events),
   with an exact scalar repair pass for batches that launch before
   they fill.  ~10-30x the PR-4 events/sec.  Dispatched as ``"rr"``.
3. **Event fold** — one scalar event loop over plain Python lists
   and a single event slot per instance (no heap, no objects),
   dispatched as ``"fold"`` for every other eligible run.  It routes
   by round-robin striping or an inlined least-loaded scan (the
   report's ``policy`` says which), and folds in the declared
   admission rule, several priorities, per-instance DVFS scales and
   busy-power energy.  The hook set opts in through
   :meth:`EngineHooks.fast_admission` rather than the engine
   importing the control plane.

Every instance queue is kept in ``(priority, arena row)`` order —
FIFO within a priority, so a single-priority stream is plain FIFO.
Rows are consumed in increasing order, so an arrival appends unless
the queue's tail is strictly lower priority, and otherwise bisects in
on priority alone (:meth:`Instance.enqueue`; the event fold inlines
the same rule).  The ``"rr"`` kernel keeps FIFO queues, so it serves
single-priority streams only.

Every path writes the same outcome columns — ``start``, ``finish``,
``shed``, and the routed ``instance`` — so telemetry is derived from
the drained arena (:mod:`repro.obs.derive`) instead of observing the
loop, and observing a run never changes which path serves it.

The fast paths are *exact*: they reproduce the general loop's floats
bit-for-bit (same operations in the same order), which
``tests/serve/test_engine_parity.py`` and the benchmark's equality
assertions pin.  The vectorized round-robin path assumes no arrival
timestamp coincides bit-exactly with a batching-timeout instant
(``a_head + max_wait_s``) — guaranteed for continuous arrival
processes, and degenerate cases (``max_wait_s == 0`` with tied trace
timestamps, sub-nanosecond waits) take the event fold, which has no
such restriction.

Event ordering is bit-for-bit the legacy ``(time, seq)`` heap order:
at equal timestamps arrivals precede every scheduled event (their
sequence numbers were seeded first) and scheduled events pop in push
order.

Statistics modes
----------------

:func:`summarize_requests` aggregates a drained arena either exactly
(numpy reductions over the columns — identical floats to the
object-era loop) or as ``stats="sketch"``: t-digest percentiles from
:mod:`repro.serve.sketch` with exact mean/max/count.  For round-robin
scenarios :func:`run_streaming_round_robin` goes further and streams
arrival chunks through the fast-path kernel, keeping memory flat in
request count (the million-request mode).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import islice
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from ..errors import ConfigError
from .arena import Request, RequestArena
from .fleet import Fleet, Instance
from .policies import (
    LeastLoadedPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
)
from .profile import ScenarioMix
from .sketch import StreamingLatencyStats, percentile

__all__ = [
    "EngineHooks",
    "Engine",
    "EngineRun",
    "EngineState",
    "RequestSummary",
    "StreamingSummary",
    "build_requests",
    "summarize_requests",
    "run_streaming_round_robin",
]

_COMPLETE, _WAKE, _TICK = 1, 2, 3
_EPS = 1e-12
_INF = float("inf")

#: Arrival chunk size of the streaming round-robin runner: large
#: enough to amortize numpy call overhead, small enough that resident
#: memory stays a few MB regardless of total request count.
_STREAM_CHUNK = 65_536


class EngineHooks:
    """Pluggable decision points of the kernel (default: no-ops).

    Subclass and override what the scenario needs; the engine skips the
    dispatch for hooks left at their base implementation, so unused
    hooks cost nothing on the per-event path.  Hooks receive
    :class:`~repro.serve.arena.Request` *views*: mutating one (e.g.
    ``request.shed = True``) writes through to the arena column every
    other reader sees.
    """

    def on_arrival(
        self,
        request: Request,
        instance: Instance,
        now: float,
        engine: "Engine",
    ) -> bool:
        """Admission decision at the instance the policy chose.

        Return ``False`` to shed ``request`` (the engine marks it);
        preempting a queued victim is the hook's own business.  The
        view's ``request.arena``/``request.i`` give hooks the whole
        stream's columns, so a hook can cache per-arena column tables
        instead of boxing one float per request.
        """
        return True

    def fast_admission(self) -> tuple[str, int] | None:
        """Declare this hook set's admission rule for the event fold.

        Return ``None`` (the default) to keep the general loop whenever
        a hook is overridden, or a ``(shedding_kind, queue_threshold)``
        pair with ``shedding_kind`` in ``{"none", "deadline",
        "queue-depth"}`` to let :meth:`Engine._fast_mode` fuse
        admission into the ``"fold"`` kernel under round-robin or
        least-loaded routing.  A hook set may only opt in when, under
        a static always-active fleet, (a) its ``on_arrival`` is
        exactly the declared shedding rule against the chosen
        instance, (b) its ``on_complete`` is a no-op, and (c) it
        observes nothing else per event (``on_tick`` never runs
        because ``tick_s is None`` is a path precondition).
        """
        return None

    def on_tick(self, now: float, engine: "Engine") -> int:
        """Periodic control-loop evaluation; returns actions taken."""
        return 0

    def on_complete(
        self, instance: Instance, now: float, engine: "Engine"
    ) -> None:
        """Accounting after ``instance``'s queue was re-examined."""


@dataclass(slots=True)
class EngineRun:
    """Outcome counters of one kernel run.

    Attributes:
        events: Events processed — the numerator of the events/sec
            kernel benchmark.  The general path counts arrivals +
            completions + wakes + ticks; the fast paths count the
            logically equivalent arrivals + batch launches (they
            process the same work without materializing wake events).
        tick_actions: Sum of the ``on_tick`` hook's action counts.
        peak_heap: Largest pending-event heap observed at an event
            boundary (general loop only; the fast paths never build a
            heap and report 0).
        dispatch: Which execution path served the run — ``"general"``,
            ``"rr"`` (vectorized round-robin), ``"fold"`` (the event
            fold, under either routing rule), or ``"streaming"``.
        fallback: When ``dispatch == "general"``, the *first failing*
            fast-path precondition (empty when a fast path ran, or
            when nothing recorded a reason) — what makes a fallback
            to the general loop diagnosable from ``--json``.
    """

    events: int
    tick_actions: int
    peak_heap: int = 0
    dispatch: str = "general"
    fallback: str = ""


@dataclass(slots=True)
class EngineState:
    """Explicit execution state of one general-loop run.

    Everything :meth:`Engine.run_until` needs to continue a paused run
    lives here rather than in loop locals: the pending ``(time, seq,
    kind, payload)`` event heap, the next sequence number, the arena
    cursor (arrivals consumed so far), the cumulative event counters,
    and the static-fleet flag computed at :meth:`Engine.begin`.
    Per-instance queues and in-flight batches live on the
    :class:`~repro.serve.fleet.Instance` objects themselves; a
    checkpoint pickles the engine with both (:mod:`repro.checkpoint`).
    """

    heap: list
    seq: int
    clock: float
    cursor: int
    events: int
    tick_actions: int
    peak_heap: int
    static_fleet: bool


class Engine:
    """One discrete-event loop over a fleet.

    Args:
        fleet: The instances (mutated in place during the run).
        policy: Scheduling policy; sees the active instances as an
            indexed sequence and returns a position in it.
        max_batch: Largest same-model batch an instance launches.
        max_wait_s: Longest a queue head waits for its batch to fill.
        hooks: Decision points (admission, ticks, accounting).
        tick_s: ``on_tick`` interval; ``None`` schedules no ticks.

    Instance queues are always in ``(priority, arena row)`` order
    (:meth:`Instance.enqueue`), so a single-priority stream is FIFO.
    """

    __slots__ = (
        "fleet",
        "policy",
        "max_batch",
        "max_wait_s",
        "hooks",
        "tick_s",
        "_admit",
        "_on_complete",
        "_on_tick_overridden",
        "_ctl_spec",
        "_fast_reason",
        "state",
        "last_run",
        "_requests",
    )

    def __init__(
        self,
        fleet: Fleet,
        policy: SchedulingPolicy,
        max_batch: int,
        max_wait_s: float,
        hooks: EngineHooks | None = None,
        tick_s: float | None = None,
    ) -> None:
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1 ({max_batch})")
        if not 0 <= max_wait_s < _INF:
            raise ConfigError(
                f"max_wait_s must be finite and >= 0 ({max_wait_s})"
            )
        if tick_s is not None and not 0 < tick_s < _INF:
            raise ConfigError(
                f"tick_s must be finite and positive ({tick_s})"
            )
        self.fleet = fleet
        self.policy = policy
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.hooks = hooks if hooks is not None else EngineHooks()
        self.tick_s = tick_s
        cls = type(self.hooks)
        # Bind overridden hooks only: the serve plane runs with all
        # of them at their base no-ops and pays zero dispatch for
        # them.  These bindings double as the hook-override probes,
        # computed once here instead of per _fast_mode call.
        self._admit = (
            self.hooks.on_arrival
            if cls.on_arrival is not EngineHooks.on_arrival
            else None
        )
        self._on_complete = (
            self.hooks.on_complete
            if cls.on_complete is not EngineHooks.on_complete
            else None
        )
        self._on_tick_overridden = (
            cls.on_tick is not EngineHooks.on_tick
        )
        # A hook set that declares its admission rule (see
        # EngineHooks.fast_admission) stays eligible for the event
        # fold; unknown kinds are ignored rather than trusted.
        spec = self.hooks.fast_admission()
        if spec is not None and spec[0] not in (
            "none",
            "deadline",
            "queue-depth",
        ):
            spec = None
        self._ctl_spec = spec
        self._fast_reason = ""
        self.state: EngineState | None = None
        self.last_run: EngineRun | None = None
        self._requests: RequestArena | None = None

    # ------------------------------------------------------------------
    # Fast-path dispatch
    # ------------------------------------------------------------------

    def _fall_back(self, reason: str) -> None:
        """Record the first failing fast-path precondition; the
        general loop surfaces it as :attr:`EngineRun.fallback`."""
        self._fast_reason = reason
        return None

    def _fast_mode(self, arena: RequestArena) -> str | None:
        """Which columnar kernel (if any) reproduces this run
        bit-for-bit under the module's one eligibility rule: ``"rr"``
        where :meth:`_vectorizes` holds, else ``"fold"``, or ``None``
        (general loop).

        As a side effect the *first failing precondition* is recorded
        and surfaced as :attr:`EngineRun.fallback`, so a fallback to
        the general loop is diagnosable from ``--json``.
        """
        self._fast_reason = ""
        if self.tick_s is not None:
            return self._fall_back("periodic tick scheduled (tick_s)")
        hook_free = self._ctl_spec is None
        if hook_free:
            if self._admit is not None:
                return self._fall_back("on_arrival hook overridden")
            if self._on_complete is not None:
                return self._fall_back("on_complete hook overridden")
            if self._on_tick_overridden:
                return self._fall_back("on_tick hook overridden")
        for inst in self.fleet.instances:
            if not inst.active:
                return self._fall_back(
                    f"instance {inst.index} inactive"
                )
            if (
                inst.busy_until != 0.0
                or inst.queue
                or inst.loaded_model is not None
                or inst.queued_seconds != 0.0
            ):
                return self._fall_back(
                    f"instance {inst.index} carries pre-run state"
                )
            if inst.profiles is not None:
                return self._fall_back(
                    f"instance {inst.index} has per-instance profiles"
                )
            if (
                inst.busy_seconds != 0.0
                or inst.busy_seconds_window != 0.0
                or inst.energy_joules != 0.0
            ):
                return self._fall_back(
                    f"instance {inst.index} carries accumulated "
                    "counters"
                )
        policy = self.policy
        if type(policy) is RoundRobinPolicy and policy._next == 0:
            if hook_free and self._vectorizes(arena):
                return "rr"
            return "fold"
        if type(policy) is LeastLoadedPolicy:
            return "fold"
        return self._fall_back(
            f"policy {type(policy).__name__} has no columnar path"
        )

    def _vectorizes(self, arena: RequestArena) -> bool:
        """Whether ``"rr"`` serves this hook-free round-robin run: one
        priority (FIFO queues), unscaled unpowered instances, and a
        ``max_wait`` its partition resolves — zero only with strictly
        increasing arrivals, else above a nanosecond."""
        priority = arena.priority
        if len(priority) and bool(np.any(priority != priority[0])):
            return False
        if any(
            inst.latency_scale != 1.0 or inst.busy_power_w != 0.0
            for inst in self.fleet.instances
        ):
            return False
        mw = self.max_wait_s
        if mw == 0.0:
            arr = arena.arrival
            return len(arr) < 2 or bool(np.all(arr[1:] > arr[:-1]))
        return mw > 1e-9

    def _run_round_robin(self, arena: RequestArena) -> EngineRun:
        """Decoupled per-instance kernel: round-robin striping fixes
        instance ``j``'s stream to ``arena[j::K]``, so each timeline is
        computed independently by :func:`_rr_feed`."""
        instances = self.fleet.instances
        K = len(instances)
        mb = self.max_batch
        mw = self.max_wait_s
        per_tab = arena.per_image
        setup_tab = arena.setup
        n = len(arena)
        arr = arena.arrival
        midx = arena.model_idx
        events = n
        for j, inst in enumerate(instances):
            a = np.ascontiguousarray(arr[j::K])
            m = np.ascontiguousarray(midx[j::K])
            (
                consumed,
                starts_m,
                fins_m,
                L_arr,
                svc_f,
                k_f,
                setups_count,
                nb,
                F_j,
                loaded_j,
            ) = _rr_feed(
                a, m, per_tab, setup_tab, mb, mw, 0.0, -1, True
            )
            arena.start[j::K] = starts_m
            arena.finish[j::K] = fins_m
            arena.instance[j::K] = j
            # builtins.sum over a float list is the same sequential
            # left fold as the general loop's per-batch ``+=`` chain,
            # bit-for-bit (np.sum is pairwise: close but not
            # identical); window contributions are never negative, and
            # adding 0.0 is a bitwise no-op, so the unfiltered sum
            # matches the loop that skipped empty contributions.
            busy = sum(svc_f.tolist())
            wend = inst.window_end
            if wend is not None and nb:
                fin_b = L_arr + svc_f
                contrib = np.minimum(fin_b, wend) - np.minimum(
                    L_arr, wend
                )
                inst.busy_seconds_window += sum(contrib.tolist())
            inst.busy_seconds += busy
            inst.busy_until = F_j
            inst.loaded_model = (
                arena.model_names[loaded_j] if loaded_j >= 0 else None
            )
            inst.served += consumed
            inst.batches += nb
            inst.setups += setups_count
            inst.queued_seconds = 0.0
            events += nb
        self.policy._next += n
        return EngineRun(events=events, tick_actions=0, dispatch="rr")

    def _run_event_fold(self, arena: RequestArena) -> EngineRun:
        """The exact ``"fold"`` kernel: one scalar event fold.

        Per-instance state lives in flat lists with one event slot per
        instance instead of a heap (a launch overwrites the slot, so
        the general loop's stale-wake pops — provably no-ops — never
        exist).  An arrival is routed by round-robin striping or an
        inlined least-loaded scan, passes the declared
        :meth:`EngineHooks.fast_admission` rule (which reads only the
        chosen instance), and takes :meth:`Instance.enqueue`'s
        position.  Examine and launch follow the general loop in
        :meth:`Instance.launch_head`'s float order.  A hook-free run
        admits everything, and an instance at scale 1.0 with zero busy
        power reduces bit-for-bit to the plain serve-plane operations
        (``x * 1.0`` and ``e + 0.0 * s`` are exact).
        """
        kind, threshold = self._ctl_spec or ("none", 0)
        instances = self.fleet.instances
        K = len(instances)
        mb = self.max_batch
        mw = self.max_wait_s
        n = len(arena)
        striped = type(self.policy) is RoundRobinPolicy
        a_l = arena.arrival.tolist()
        m_l = arena.model_idx.tolist()
        per_arr = arena.per_image
        per_tab = per_arr.tolist()
        setup_tab = arena.setup.tolist()
        start_l = [-1.0] * n
        fin_l = [-1.0] * n
        inst_l = None if striped else [-1] * n
        prio_l = arena.priority.tolist()
        prio_key = prio_l.__getitem__
        deadline_shed = kind == "deadline"
        depth_shed = kind == "queue-depth"
        # SLO deadlines are absolute; the vectorized + _EPS is
        # bit-identical to the shedder's scalar `deadline + _EPS`.
        dl_eps_l = (
            (arena.deadline + _EPS).tolist() if deadline_shed else None
        )
        scale_l = [inst.latency_scale for inst in instances]
        # Scaled per-image table per instance: the same IEEE products
        # as launch_head's `per_image_seconds * latency_scale`.
        per_s = [
            (per_arr * scale).tolist() if scale != 1.0 else per_tab
            for scale in scale_l
        ]
        # ``qj * 1.0 == qj``: an unscaled fleet's scan skips the product.
        scaled = any(scale != 1.0 for scale in scale_l)
        bpw_l = [inst.busy_power_w for inst in instances]
        wend_l = [inst.window_end for inst in instances]
        bu = [0.0] * K
        qs = [0.0] * K
        loaded = [-1] * K
        queues = [deque() for _ in range(K)]
        busy = [0.0] * K
        busyw = [0.0] * K
        energy = [0.0] * K
        served = [0] * K
        nbatches = [0] * K
        setups = [0] * K
        ev = [_INF] * K
        shed_ids: list[int] = []
        events = n

        i = 0
        ev_index = ev.index
        # ``tmin`` is always ``min(ev)``, maintained where the examine
        # below writes a slot; ``ev.index(tmin)`` (first minimum) picks
        # the instance of a non-arrival event.
        tmin = _INF
        nexta = a_l[0] if n else _INF
        while True:
            if nexta <= tmin:
                # Arrival first at ties, like the (time, seq) heap.
                # Arrivals exhausted and no event pending: done.
                if i >= n:
                    break
                now = nexta
                rid = i
                i += 1
                nexta = a_l[i] if i < n else _INF
                if striped:
                    j = rid % K
                else:
                    # Inlined LeastLoadedPolicy._least_loaded +
                    # Instance.pending_seconds.
                    j = 0
                    best_load = _INF
                    for jj in range(K):
                        dj = bu[jj] - now
                        load = dj if dj > 0.0 else 0.0
                        qj = qs[jj]
                        if qj > 0.0:
                            load += qj * scale_l[jj] if scaled else qj
                        if load < best_load:
                            best_load = load
                            j = jj
                    inst_l[rid] = j
                if deadline_shed:
                    # Inlined DeadlineShedding.admit (estimated
                    # completion = now + pending_seconds + own service).
                    pending = bu[j] - now
                    if pending < 0.0:
                        pending = 0.0
                    qj = qs[j]
                    if qj > 0.0:
                        pending += qj * scale_l[j]
                    cost = per_s[j][m_l[rid]]
                    if (now + pending) + cost > dl_eps_l[rid]:
                        shed_ids.append(rid)
                        continue
                elif depth_shed and len(queues[j]) >= threshold:
                    shed_ids.append(rid)
                    continue
                q = queues[j]
                # Instance.enqueue's rule: rows strictly increase, so
                # bisecting on priority alone gives the (priority, row)
                # position.
                p = prio_l[rid]
                if q and prio_l[q[-1]] > p:
                    q.insert(bisect_right(q, p, key=prio_key), rid)
                else:
                    q.append(rid)
                # The request's unscaled queue-load contribution.
                qs[j] += per_tab[m_l[rid]]
                if bu[j] > now:
                    continue
                at_min = ev[j] == tmin
            else:
                now = tmin
                j = ev_index(tmin)
                events += 1
                q = queues[j]
                at_min = True
            # Inlined ``examine`` (the general loop's rule): launch if
            # the head batch is due — wake deadline passed, or a full
            # same-model batch — else the slot holds the head's wake.
            x = _INF
            if q:
                head = q[0]
                # The general loop's wake deadline and due test.
                dl = a_l[head] + mw
                due = now >= dl - _EPS
                if not due and len(q) >= mb:
                    model = m_l[head]
                    count = 0
                    for rid2 in q:
                        if m_l[rid2] != model:
                            break
                        count += 1
                        if count == mb:
                            break
                    due = count == mb
                if not due:
                    x = dl
                else:
                    # Inlined ``launch_head``: scaled per-image for
                    # timing, unscaled for the queued-seconds ledger.
                    model = m_l[head]
                    if loaded[j] != model:
                        setup = setup_tab[model]
                        setups[j] += 1
                    else:
                        setup = 0.0
                    per = per_s[j][model]
                    peru = per_tab[model]
                    base = now + setup
                    count = 0
                    qsj = qs[j]
                    popleft = q.popleft
                    while True:
                        rid2 = popleft()
                        count += 1
                        start_l[rid2] = now
                        fin_l[rid2] = base + count * per
                        qsj -= peru
                        if count == mb or not q or m_l[q[0]] != model:
                            break
                    qs[j] = qsj if q else 0.0
                    service = setup + count * per
                    x = now + service
                    bu[j] = x
                    busy[j] += service
                    # Window clip; a batch starting at or past the
                    # window end contributes nothing.
                    w = wend_l[j]
                    if w is not None and now < w:
                        busyw[j] += (x if x < w else w) - now
                    energy[j] += bpw_l[j] * service
                    served[j] += count
                    nbatches[j] += 1
                    loaded[j] = model
            # Every other slot is >= tmin; only a slot that held the
            # minimum and moved up needs a rescan (a plain loop:
            # builtins.min costs about twice as much on a short list).
            ev[j] = x
            if x <= tmin:
                tmin = x
            elif at_min:
                tmin = x
                for t in ev:
                    if t < tmin:
                        tmin = t

        arena.start[:] = start_l
        arena.finish[:] = fin_l
        # Striping fixes the routed instance of every row, shed or not.
        arena.instance[:] = np.arange(n) % K if striped else inst_l
        if shed_ids:
            arena.shed[shed_ids] = True
        for j, inst in enumerate(instances):
            inst.busy_until = bu[j]
            inst.loaded_model = (
                arena.model_names[loaded[j]] if loaded[j] >= 0 else None
            )
            inst.busy_seconds += busy[j]
            inst.busy_seconds_window += busyw[j]
            inst.energy_joules += energy[j]
            inst.served += served[j]
            inst.batches += nbatches[j]
            inst.setups += setups[j]
            inst.queued_seconds = 0.0
        if striped:
            self.policy._next += n
        return EngineRun(events, 0, dispatch="fold")

    #: Fast-path name (see :meth:`_fast_mode`) -> its kernel.
    _kernels = {"rr": _run_round_robin, "fold": _run_event_fold}

    # ------------------------------------------------------------------
    # General event loop
    # ------------------------------------------------------------------

    def _maybe_launch(self, instance: Instance, now: float) -> None:
        """Launch the head batch if it is due, else schedule its
        timeout.  A batch is due when the head request has waited out
        the fill window or a full same-model run is queued behind it."""
        if instance.busy_until > now or not instance.queue:
            return
        queue = instance.queue
        head = queue[0]
        max_batch = self.max_batch
        deadline = head.arrival + self.max_wait_s
        if now >= deadline - _EPS:
            due = True
        elif len(queue) >= max_batch:
            model = head.model
            count = 0
            for queued in queue:
                if queued.model != model:
                    break
                count += 1
                if count == max_batch:
                    break
            due = count == max_batch
        else:
            due = False
        state = self.state
        state.seq += 1
        if due:
            finish = instance.launch_head(max_batch, now)
            heappush(
                state.heap,
                (finish, state.seq, _COMPLETE, instance.index),
            )
        else:
            heappush(
                state.heap,
                (deadline, state.seq, _WAKE, instance.index),
            )

    def begin(self, requests: RequestArena) -> EngineState:
        """Arm the general loop over ``requests`` without running it.

        Seeds a fresh :class:`EngineState` (tick scheduled, sequence
        counter past the arrivals' implicit numbers, cursor at zero)
        and remembers the request stream so repeated
        :meth:`run_until` calls can step the run in bounded slices.
        """
        n = len(requests)
        heap: list = []
        # Arrivals implicitly own sequence numbers 1..n, so at equal
        # timestamps they order before every scheduled event, exactly
        # as when the legacy loops seeded them into the heap first.
        seq = n
        tick_s = self.tick_s
        if tick_s is not None:
            seq += 1
            heappush(heap, (tick_s, seq, _TICK, None))
        # With no ticks and no custom hooks nothing can change instance
        # activity mid-run, so the active slice is the fleet itself
        # (skip per-arrival filtering).  Any hook — not just on_tick —
        # may power instances down, so their presence forces the
        # rebuild, exactly like the legacy control loop's per-arrival
        # active view.
        static_fleet = (
            tick_s is None
            and self._admit is None
            and self._on_complete is None
            and all(
                instance.active for instance in self.fleet.instances
            )
        )
        self._requests = requests
        self.state = EngineState(
            heap=heap,
            seq=seq,
            clock=0.0,
            cursor=0,
            events=0,
            tick_actions=0,
            peak_heap=0,
            static_fleet=static_fleet,
        )
        return self.state

    @property
    def finished(self) -> bool:
        """True once a begun run has consumed every arrival and
        drained its event heap (nothing left for ``run_until``)."""
        state = self.state
        return (
            state is not None
            and state.cursor >= len(self._requests)
            and not state.heap
        )

    def run_until(self, t: float) -> EngineRun:
        """Advance the begun run through every event at time <= ``t``.

        The loop body is the legacy general event loop verbatim, with
        execution state loaded from :attr:`state` on entry and written
        back on exit; the only additions are the two horizon checks,
        which compare against ``t`` before consuming an arrival or
        popping a scheduled event and are no-ops at ``t = inf`` — so
        ``run_until(inf)`` is bit-for-bit the legacy ``run()``.
        Returns the *cumulative* counters of the run so far.

        This is the engine's one dispatch point.  A *pristine* begun
        state (no arrivals consumed, no events processed) draining to
        infinity runs whichever columnar kernel :meth:`_fast_mode`
        picks — :meth:`_run_round_robin` for ``"rr"``,
        :meth:`_run_event_fold` for ``"fold"`` — exact
        by the parity pins, and the state is backfilled so the run
        reads as drained (:attr:`finished`, cumulative counters).  Bounded
        horizons and resumed runs always step the general loop.
        """
        state = self.state
        requests = self._requests
        fresh = (
            t == _INF
            and state.cursor == 0
            and state.events == 0
            and state.clock == 0.0
        )
        # Diagnose a run that cannot take a kernel at most once per
        # engine (the reason is sticky until _fast_mode reassesses):
        # the config-level precondition leads when one fails, which is
        # identical whether the run drains in one call, in bounded
        # checkpoint slices, or in a resumed process — tick_s and hook
        # checks precede fleet-state checks — so checkpointed reruns
        # report byte-identical telemetry.  Run mechanics are the
        # reason only when the config itself qualifies.
        if len(requests) and (fresh or not self._fast_reason):
            mode = self._fast_mode(requests)
            if mode is not None and fresh:
                run = self._kernels[mode](self, requests)
                state.cursor = len(requests)
                state.events = run.events
                # Where the general loop's clock ends: the last
                # arrival or completion.
                state.clock = max(
                    [float(requests.arrival[-1])]
                    + [inst.busy_until for inst in self.fleet.instances]
                )
                self.last_run = run
                return run
            if mode is not None:
                self._fast_reason = (
                    "bounded run_until horizon"
                    if t != _INF
                    else "run already in progress"
                )
        instances = self.fleet.instances
        policy = self.policy
        admit = self._admit
        on_complete = self._on_complete
        hooks = self.hooks
        tick_s = self.tick_s
        static_fleet = state.static_fleet
        heap = state.heap
        n = len(requests)
        i = state.cursor
        first = i
        # Routed instance per consumed arrival, written back to the
        # ``instance`` column when the slice returns (one list append
        # per arrival instead of a view write).
        routed: list[int] = []
        route = routed.append
        events = state.events
        tick_actions = state.tick_actions
        peak_heap = state.peak_heap
        now = state.clock
        next_arrival = requests[i].arrival if i < n else _INF
        while True:
            # Peak sampled at event boundaries only, so it is invariant
            # under run_until slicing (a boundary re-sample is a max
            # no-op) — resumed runs report the identical peak.
            if len(heap) > peak_heap:
                peak_heap = len(heap)
            if i < n and (
                not heap or next_arrival <= heap[0][0]
            ):
                if next_arrival > t:
                    break
                request = requests[i]
                i += 1
                next_arrival = (
                    requests[i].arrival if i < n else _INF
                )
                events += 1
                now = request.arrival
                active = (
                    instances
                    if static_fleet
                    else [
                        instance
                        for instance in instances
                        if instance.active
                    ]
                )
                instance = active[policy.choose(request, active, now)]
                route(instance.index)
                if admit is not None and not admit(
                    request, instance, now, self
                ):
                    request.shed = True
                    continue
                instance.enqueue(request)
                self._maybe_launch(instance, now)
                continue
            if not heap:
                break
            if heap[0][0] > t:
                break
            now, _, kind, payload = heappop(heap)
            events += 1
            if kind == _TICK:
                before = [
                    instance.busy_until for instance in instances
                ]
                tick_actions += hooks.on_tick(now, self)
                # A tick may extend busy_until (e.g. a power-up warm-up)
                # without launching a batch, which would swallow the
                # instance's pending completion; re-arm a wake at any
                # grown horizon so its queue is re-examined (the loop
                # invariant is "busy implies an event at busy_until").
                for instance in instances:
                    grown = instance.busy_until
                    if grown > before[instance.index] and grown > now:
                        state.seq += 1
                        heappush(
                            heap,
                            (grown, state.seq, _WAKE, instance.index),
                        )
                if i < n or any(
                    instance.queue or instance.busy_until > now + _EPS
                    for instance in instances
                ):
                    state.seq += 1
                    heappush(
                        heap, (now + tick_s, state.seq, _TICK, None)
                    )
            else:  # _COMPLETE and _WAKE both just re-examine the queue
                instance = instances[payload]
                self._maybe_launch(instance, now)
                if on_complete is not None:
                    on_complete(instance, now, self)
        requests.instance[first:i] = routed
        state.cursor = i
        state.events = events
        state.tick_actions = tick_actions
        state.peak_heap = peak_heap
        state.clock = now if t == _INF else t
        run = EngineRun(
            events=events,
            tick_actions=tick_actions,
            peak_heap=peak_heap,
            dispatch="general",
            fallback=self._fast_reason,
        )
        self.last_run = run
        return run

    def run(self, requests: RequestArena) -> EngineRun:
        """Play ``requests`` (non-decreasing arrival order) to drain:
        exactly :meth:`begin` + ``run_until(inf)``, so a columnar fast
        path runs when the configuration allows (see
        :meth:`_fast_mode`).  Outcomes are written to the arena's
        columns in place.
        """
        self.begin(requests)
        return self.run_until(_INF)


# ----------------------------------------------------------------------
# Round-robin columnar kernel
# ----------------------------------------------------------------------

_EMPTY_F = np.empty(0, dtype=np.float64)
_EMPTY_I = np.empty(0, dtype=np.int64)


def _rr_feed(
    a: np.ndarray,
    m: np.ndarray,
    per_tab: np.ndarray,
    setup_tab: np.ndarray,
    mb: int,
    mw: float,
    F: float,
    loaded: int,
    final: bool,
):
    """Advance one instance's timeline over a buffered stream stretch.

    ``a``/``m`` are the instance's arrival times and model ids (its
    round-robin slice), ``F`` its ``busy_until`` and ``loaded`` the
    resident model id carried from the previous feed (``-1`` = cold).
    With ``final=False`` (streaming) the feed stops before any batch
    whose membership could still change with future arrivals (an open
    trailing run shorter than ``mb``), deferring at most ``mb - 1``
    positions to the next feed.

    The kernel has three stages:

    1. *Canonical partition* (vectorized): maximal same-model runs are
       cut into ``mb``-sized canonical batches; per batch the wake
       deadline, full-batch trigger, cold-start flag, and service time
       are computed as numpy arrays.
    2. *Launch fold* (Python, per batch): ``L = max(F, due)`` with the
       general loop's epsilon rule; a canonical batch is accepted when
       its last member arrived by its launch (``lasta <= L``).
    3. *Split repair* (scalar, only when 2 rejects): an idle instance
       launched a partial batch — replay exact batches with
       ``bisect_right`` member counts until the cursor realigns with a
       canonical boundary.

    Returns ``(consumed, starts, fins, L_arr, svc, k, setups,
    n_batches, F, loaded)``: per-member start/finish arrays covering
    positions ``[0, consumed)`` in stream order, per-batch launch and
    service arrays in launch order, and the carried state.
    """
    nj = len(a)
    if nj == 0:
        return (
            0, _EMPTY_F, _EMPTY_F, _EMPTY_F, _EMPTY_F, _EMPTY_I,
            0, 0, F, loaded,
        )
    # -- stage 1: canonical partition --------------------------------
    if nj > 1:
        change = np.flatnonzero(m[1:] != m[:-1]) + 1
        run_starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), change)
        )
        run_ends = np.concatenate(
            (change, np.full(1, nj, dtype=np.int64))
        )
    else:
        run_starts = np.zeros(1, dtype=np.int64)
        run_ends = np.full(1, nj, dtype=np.int64)
    run_len = run_ends - run_starts
    nb_run = -(-run_len // mb)
    total_b = int(nb_run.sum())
    first_of_run = np.cumsum(nb_run) - nb_run
    s = np.repeat(run_starts - mb * first_of_run, nb_run) + mb * np.arange(
        total_b, dtype=np.int64
    )
    rend = np.repeat(run_ends, nb_run)
    e = np.minimum(s + mb, rend)
    k = e - s
    M = m[s]
    prev = np.empty(total_b, dtype=np.int64)
    prev[0] = loaded
    prev[1:] = M[:-1]
    cold = M != prev
    per_b = per_tab[M]
    setup_eff = np.where(cold, setup_tab[M], 0.0)
    svc = setup_eff + k * per_b
    heada = a[s]
    wake = heada + mw
    lasta = a[e - 1]
    due = np.where(k == mb, np.minimum(wake, lasta), wake)
    if final:
        stop_t = total_b
    else:
        unsafe = (rend == nj) & (s + mb > nj)
        idx = np.flatnonzero(unsafe)
        stop_t = int(idx[0]) if idx.size else total_b

    # -- stage 2: launch fold ----------------------------------------
    due_l = due.tolist()
    svc_l = svc.tolist()
    lasta_l = lasta.tolist()
    heada_l = heada.tolist()
    # Repair-path lookups are materialized lazily: most feeds accept
    # every canonical batch, and these conversions would otherwise
    # rival the fold itself.
    s_l = rend_l = M_l = None
    a_list = m_list = per_tab_l = setup_tab_l = None
    L_list: list[float] = []
    append_L = L_list.append
    pieces: list[tuple] = []
    sc_k: list[int] = []
    sc_setup: list[float] = []
    sc_per: list[float] = []
    sc_svc: list[float] = []
    scalar_setups = 0
    t = 0
    canon_from = 0
    F_ = F
    consumed = None
    # One persistent iterator consumed strictly forward: repairs that
    # replay canonical batches discard the replayed span instead of
    # re-skimming from the start.
    fold = zip(
        islice(due_l, stop_t),
        islice(lasta_l, stop_t),
        islice(svc_l, stop_t),
    )
    pos = 0
    while t < stop_t:
        if t > pos:
            for _ in islice(fold, t - pos):
                pass
            pos = t
        rejected = False
        for i, (d, lasta_t, svc_t) in enumerate(fold, pos):
            if d <= F_:
                # Busy at the deadline: launch at the completion F.
                if lasta_t <= F_:
                    append_L(F_)
                    F_ += svc_t
                    continue
                L = F_
            else:
                # The general loop launches at a completion F when the
                # head's wake deadline (head arrival + max-wait) is
                # within _EPS at or below F and the head has arrived.
                hd = heada_l[i]
                if hd + mw - F_ <= _EPS and hd <= F_:
                    L = F_
                else:
                    L = d
                if lasta_t <= L:
                    append_L(L)
                    F_ = L + svc_t
                    continue
            t = i
            pos = i + 1
            rejected = True
            break
        if not rejected:
            t = stop_t
            break
        # -- stage 3: split repair -----------------------------------
        if a_list is None:
            s_l = s.tolist()
            rend_l = rend.tolist()
            M_l = M.tolist()
            a_list = a.tolist()
            m_list = m.tolist()
            per_tab_l = per_tab.tolist()
            setup_tab_l = setup_tab.tolist()
        if t > canon_from:
            pieces.append(("c", canon_from, t))
        c = s_l[t]
        run_end_c = rend_l[t]
        loaded_c = M_l[t - 1] if t > 0 else loaded
        tt = t + 1
        x0 = len(sc_k)
        while True:
            if not final and run_end_c == nj and c + mb > nj:
                consumed = c
                break
            cap = c + mb
            if cap > run_end_c:
                cap = run_end_c
            wake_c = a_list[c] + mw
            if cap - c == mb:
                t_full = a_list[cap - 1]
                d_c = t_full if t_full < wake_c else wake_c
            else:
                d_c = wake_c
            if d_c > F_:
                if wake_c - F_ <= _EPS and a_list[c] <= F_:
                    L = F_
                else:
                    L = d_c
            else:
                L = F_
            k_real = bisect_right(a_list, L, c, cap) - c
            model_c = m_list[c]
            cold_c = loaded_c != model_c
            setup_c = setup_tab_l[model_c] if cold_c else 0.0
            per_c = per_tab_l[model_c]
            svc_c = setup_c + k_real * per_c
            append_L(L)
            sc_k.append(k_real)
            sc_setup.append(setup_c)
            sc_per.append(per_c)
            sc_svc.append(svc_c)
            if cold_c:
                scalar_setups += 1
            F_ = L + svc_c
            loaded_c = model_c
            c += k_real
            while tt < total_b and s_l[tt] < c:
                tt += 1
            if tt < total_b:
                if s_l[tt] == c:
                    t = tt
                    break
                run_end_c = rend_l[tt - 1]
            else:
                if c >= nj:
                    t = total_b
                    break
                run_end_c = rend_l[total_b - 1]
        if len(sc_k) > x0:
            pieces.append(("x", x0, len(sc_k)))
        canon_from = t
        if consumed is not None:
            break
    if t > canon_from:
        pieces.append(("c", canon_from, t))
    if consumed is None:
        consumed = int(s[stop_t]) if stop_t < total_b else nj

    # -- assembly ----------------------------------------------------
    nb = len(L_list)
    if nb == 0:
        return (
            0, _EMPTY_F, _EMPTY_F, _EMPTY_F, _EMPTY_F, _EMPTY_I,
            0, 0, F_, loaded,
        )
    L_arr = np.array(L_list, dtype=np.float64)
    if len(pieces) == 1 and pieces[0][0] == "c":
        t0, t1 = pieces[0][1], pieces[0][2]
        k_f = k[t0:t1]
        setup_f = setup_eff[t0:t1]
        per_f = per_b[t0:t1]
        svc_f = svc[t0:t1]
        setups_count = int(np.count_nonzero(cold[t0:t1]))
    else:
        sck = np.asarray(sc_k, dtype=np.int64)
        scsetup = np.asarray(sc_setup, dtype=np.float64)
        scper = np.asarray(sc_per, dtype=np.float64)
        scsvc = np.asarray(sc_svc, dtype=np.float64)
        parts_k, parts_setup, parts_per, parts_svc = [], [], [], []
        setups_count = scalar_setups
        for kind, x0, x1 in pieces:
            if kind == "c":
                parts_k.append(k[x0:x1])
                parts_setup.append(setup_eff[x0:x1])
                parts_per.append(per_b[x0:x1])
                parts_svc.append(svc[x0:x1])
                setups_count += int(np.count_nonzero(cold[x0:x1]))
            else:
                parts_k.append(sck[x0:x1])
                parts_setup.append(scsetup[x0:x1])
                parts_per.append(scper[x0:x1])
                parts_svc.append(scsvc[x0:x1])
        k_f = np.concatenate(parts_k)
        setup_f = np.concatenate(parts_setup)
        per_f = np.concatenate(parts_per)
        svc_f = np.concatenate(parts_svc)
    members = int(k_f.sum())
    base = L_arr + setup_f
    starts_m = np.repeat(L_arr, k_f)
    offsets = np.cumsum(k_f) - k_f - 1
    ranks = np.arange(members, dtype=np.int64) - np.repeat(offsets, k_f)
    fins_m = np.repeat(base, k_f) + ranks * np.repeat(per_f, k_f)
    loaded_out = int(m[consumed - 1]) if consumed else loaded
    return (
        consumed,
        starts_m,
        fins_m,
        L_arr,
        svc_f,
        k_f,
        setups_count,
        nb,
        F_,
        loaded_out,
    )


# ----------------------------------------------------------------------
# Request-stream construction and summarization
# ----------------------------------------------------------------------


def build_requests(
    mix: ScenarioMix,
    times: np.ndarray,
    rng: np.random.Generator,
    slo_classes: tuple | None = None,
) -> RequestArena:
    """Materialize the request stream for one run as a columnar arena.

    Draws each request's model from the mix's weights (and, when
    ``slo_classes`` is given, its SLO class from the class shares,
    interleaved model-then-class per request — the draw order the
    legacy per-request sampling loops used, so fixed seeds reproduce).
    The inverse-CDF draws are vectorized: one uniform block replaces
    2 x n Python-level generator calls on the same bit stream.

    A class bound to a model (``SLOClass.model``) applies only to that
    model's requests: each model draws its class from the classes bound
    to it, falling back to the unbound (tenant-default) classes when
    none are.  The uniform block is identical either way, so adding a
    binding never perturbs another model's draws.

    Returns a :class:`~repro.serve.arena.RequestArena`; iterate or
    index it for object-style :class:`~repro.serve.arena.Request`
    views.

    Raises:
        ConfigError: If bindings leave some mix model with no
            applicable class.
    """
    return RequestArena.build(mix, times, rng, slo_classes)


@dataclass(slots=True)
class RequestSummary:
    """Aggregate of a drained request stream.

    Attributes:
        completed: Requests that finished (offered minus shed).
        latencies: Arrival-to-completion seconds, arrival order
            (``stats="exact"`` only; ``None`` in sketch mode) —
            genuinely *empty* when nothing completed (an all-shed
            overload run); report builders must special-case
            ``completed == 0`` instead of feeding the array to
            ``mean``/``percentile`` (NaN + RuntimeWarning).
        waits: Arrival-to-launch seconds, same shape (exact only).
        model_counts: Sorted ``(model, completed)`` pairs.
        max_finish: Latest completion (``-inf`` when none).
        class_buckets: SLO-class name -> ``[offered, met, latencies]``
            (``None`` unless class tracking was requested); the
            latencies entry is a list/array in exact mode and a
            :class:`~repro.serve.sketch.StreamingLatencyStats` in
            sketch mode.
        model_buckets: Model name -> ``[offered, met, latencies]``
            over *all* of the model's requests including shed ones
            (``None`` unless model tracking was requested) — the
            per-tenant view behind per-model SLO reporting.
        stats: ``"exact"`` or ``"sketch"``.
        latency_sketch: Sketch-mode latency aggregates (mean/max exact,
            percentiles from the t-digest).
        wait_mean_value: Sketch-mode mean wait.

    Report builders should read latency statistics through
    :meth:`latency_mean` / :meth:`latency_percentile` /
    :meth:`latency_max` / :meth:`wait_mean`, which dispatch on the
    mode; in exact mode they reproduce the legacy
    ``float(np.percentile(...))`` calls bit-for-bit.
    """

    completed: int
    latencies: np.ndarray | None
    waits: np.ndarray | None
    model_counts: tuple
    max_finish: float
    class_buckets: dict | None
    model_buckets: dict | None = None
    stats: str = "exact"
    latency_sketch: StreamingLatencyStats | None = None
    wait_mean_value: float = 0.0

    def latency_mean(self) -> float:
        if self.stats == "sketch":
            return self.latency_sketch.mean
        return float(self.latencies.mean())

    def latency_percentile(self, pct: float) -> float:
        if self.stats == "sketch":
            return self.latency_sketch.quantile(pct / 100.0)
        return percentile(self.latencies, pct)

    def latency_max(self) -> float:
        if self.stats == "sketch":
            return self.latency_sketch.max
        return float(self.latencies.max())

    def wait_mean(self) -> float:
        if self.stats == "sketch":
            return self.wait_mean_value
        return float(self.waits.mean())


def _sketch_of(values) -> StreamingLatencyStats:
    stats = StreamingLatencyStats()
    stats.add(np.asarray(values, dtype=np.float64))
    return stats


def _finish_summary(
    completed: int,
    latencies: np.ndarray,
    waits: np.ndarray,
    model_counts: tuple,
    max_finish: float,
    buckets: dict | None,
    model_buckets: dict | None,
    stats: str,
) -> RequestSummary:
    if stats == "exact":
        return RequestSummary(
            completed=completed,
            latencies=latencies,
            waits=waits,
            model_counts=model_counts,
            max_finish=max_finish,
            class_buckets=buckets,
            model_buckets=model_buckets,
        )
    for bucket_map in (buckets, model_buckets):
        if bucket_map is not None:
            for bucket in bucket_map.values():
                bucket[2] = _sketch_of(bucket[2])
    return RequestSummary(
        completed=completed,
        latencies=None,
        waits=None,
        model_counts=model_counts,
        max_finish=max_finish,
        class_buckets=buckets,
        model_buckets=model_buckets,
        stats="sketch",
        latency_sketch=_sketch_of(latencies),
        wait_mean_value=(
            float(np.asarray(waits).mean()) if completed else 0.0
        ),
    )


def summarize_requests(
    arena: RequestArena,
    track_classes: bool = False,
    track_models: bool = False,
    stats: str = "exact",
) -> RequestSummary:
    """Aggregate a drained run with numpy reductions over the arena
    columns (exact floats: the same subtractions/comparisons the
    object-era loop performed); ``stats="sketch"`` swaps latency
    retention for t-digest sketches (see :class:`RequestSummary`).

    Raises:
        ConfigError: If any admitted request never completed — the
            event loop's drain invariant was violated.
    """
    shed = arena.shed
    finish = arena.finish
    arrival = arena.arrival
    not_shed = ~shed
    done = not_shed & (finish >= 0.0)
    unserved = int(np.count_nonzero(not_shed & (finish < 0.0)))
    if unserved:
        raise ConfigError(
            f"simulation ended with {unserved} unserved requests"
        )
    latencies = finish[done] - arrival[done]
    waits = arena.start[done] - arrival[done]
    completed = int(latencies.size)
    if completed:
        counts = np.bincount(
            arena.model_idx[done], minlength=len(arena.model_names)
        ).tolist()
        model_counts = tuple(
            sorted(
                (name, int(count))
                for name, count in zip(arena.model_names, counts)
                if count
            )
        )
        max_finish = float(finish[done].max())
    else:
        model_counts = ()
        max_finish = float("-inf")
    buckets = None
    model_buckets = None
    if track_classes or track_models:
        met = done & (finish <= arena.deadline)
        if track_classes:
            buckets = {}
            ci = arena.class_idx
            # The sorted distinct ids (-1 included) without np.unique,
            # which imports numpy.ma.
            for cid in (np.flatnonzero(np.bincount(ci + 1)) - 1).tolist():
                cmask = ci == cid
                name = "" if cid < 0 else arena.slo_names[cid]
                sel = cmask & done
                buckets[name] = [
                    int(np.count_nonzero(cmask)),
                    int(np.count_nonzero(cmask & met)),
                    finish[sel] - arrival[sel],
                ]
        if track_models:
            model_buckets = {}
            mi = arena.model_idx
            for mid in np.flatnonzero(np.bincount(mi)).tolist():
                mmask = mi == mid
                sel = mmask & done
                model_buckets[arena.model_names[mid]] = [
                    int(np.count_nonzero(mmask)),
                    int(np.count_nonzero(mmask & met)),
                    finish[sel] - arrival[sel],
                ]
    return _finish_summary(
        completed,
        latencies,
        waits,
        model_counts,
        max_finish,
        buckets,
        model_buckets,
        stats,
    )


# ----------------------------------------------------------------------
# Streaming round-robin runner (flat memory in request count)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class StreamingSummary(RequestSummary):
    """What :func:`run_streaming_round_robin` hands the report builder:
    a sketch-mode :class:`RequestSummary` (same latency reads) plus the
    stream's busy-window end and kernel event count.  Fleet counters
    (busy seconds, served, batches, setups, window busy time) were
    written to the instances in place, exactly like an engine run.
    """

    window_end: float = 0.0
    events: int = 0


def run_streaming_round_robin(
    fleet: Fleet,
    mix: ScenarioMix,
    arrivals,
    n: int,
    rng: np.random.Generator,
    max_batch: int,
    max_wait_s: float,
    chunk: int = _STREAM_CHUNK,
) -> StreamingSummary:
    """Round-robin serve-plane run with O(chunk) resident memory.

    Pulls arrival timestamps chunk-at-a-time (see
    :func:`repro.serve.arrival.iter_arrival_times`), draws each
    chunk's model ids, and advances every instance's timeline with the
    same :func:`_rr_feed` kernel the exact fast path uses — only
    deferring the few trailing positions (< ``max_batch``) whose batch
    membership could still change.  Completed latencies are folded
    into a t-digest and discarded, so memory stays flat in ``n``: the
    million-request mode.

    The simulated *physics* per processed stream are the engine's
    exactly; the stream itself differs bit-wise from exact mode
    because times and model draws interleave chunk-by-chunk on the
    RNG (documented in ``ServingScenario.stats``), so sketch-mode
    scenarios carry a distinct cache key.
    """
    instances = fleet.instances
    K = len(instances)
    per_tab = np.array(
        [p.per_image_seconds for p in mix.profiles], dtype=np.float64
    )
    setup_tab = np.array(
        [p.setup_seconds for p in mix.profiles], dtype=np.float64
    )
    cum_weights = np.cumsum(
        np.asarray(mix.weights, dtype=np.float64)
    )
    nmodels = len(mix.profiles)
    latency = StreamingLatencyStats()
    wait_sum = 0.0
    counts = np.zeros(nmodels, dtype=np.int64)
    max_finish = float("-inf")
    F = [0.0] * K
    loaded = [-1] * K
    buf_a: list[list[np.ndarray]] = [[] for _ in range(K)]
    buf_m: list[list[np.ndarray]] = [[] for _ in range(K)]
    busy = [0.0] * K
    busyw = [0.0] * K
    served = [0] * K
    nbatches = [0] * K
    setups = [0] * K
    # Batches whose finish may straddle the (yet unknown) busy-window
    # end: flushed to busyw once the arrival horizon passes them.
    pend: list[list[tuple[float, float, float]]] = [
        [] for _ in range(K)
    ]
    offset = 0
    last_arrival = 0.0
    events = 0

    def absorb(j: int, final: bool) -> None:
        nonlocal wait_sum, max_finish, events
        chunks_a = buf_a[j]
        if not chunks_a:
            return
        a = (
            np.concatenate(chunks_a)
            if len(chunks_a) > 1
            else chunks_a[0]
        )
        m = (
            np.concatenate(buf_m[j])
            if len(buf_m[j]) > 1
            else buf_m[j][0]
        )
        (
            consumed,
            starts_m,
            fins_m,
            L_arr,
            svc_f,
            _k_f,
            setups_count,
            nb,
            F_j,
            loaded_j,
        ) = _rr_feed(
            a, m, per_tab, setup_tab, max_batch, max_wait_s,
            F[j], loaded[j], final,
        )
        F[j] = F_j
        loaded[j] = loaded_j
        if consumed < len(a):
            buf_a[j] = [a[consumed:]]
            buf_m[j] = [m[consumed:]]
        else:
            buf_a[j] = []
            buf_m[j] = []
        events += nb
        if not consumed:
            return
        a_done = a[:consumed]
        latency.add(fins_m - a_done)
        wait_sum += float((starts_m - a_done).sum())
        counts_j = np.bincount(m[:consumed], minlength=nmodels)
        np.add(counts, counts_j, out=counts)
        tail = float(fins_m[-1])
        if tail > max_finish:
            max_finish = tail
        served[j] += consumed
        nbatches[j] += nb
        setups[j] += setups_count
        busy[j] += float(svc_f.sum())
        fin_b = L_arr + svc_f
        inside = fin_b <= last_arrival
        busyw[j] += float(svc_f[inside].sum())
        for L_val, fin_val, svc_val in zip(
            L_arr[~inside].tolist(),
            fin_b[~inside].tolist(),
            svc_f[~inside].tolist(),
        ):
            pend[j].append((L_val, fin_val, svc_val))

    from .arrival import iter_arrival_times

    for times in iter_arrival_times(arrivals, n, rng, chunk):
        cn = len(times)
        u = rng.random(cn)
        midx = np.minimum(
            np.searchsorted(
                cum_weights, u * cum_weights[-1], side="right"
            ),
            nmodels - 1,
        ).astype(np.int64)
        last_arrival = float(times[cn - 1])
        events += cn
        for j in range(K):
            first = (j - offset) % K
            a_new = times[first::K]
            if len(a_new):
                buf_a[j].append(np.ascontiguousarray(a_new))
                buf_m[j].append(np.ascontiguousarray(midx[first::K]))
            absorb(j, final=False)
            # Flush window-pending batches the horizon has passed.
            if pend[j]:
                keep = []
                for L_val, fin_val, svc_val in pend[j]:
                    if fin_val <= last_arrival:
                        busyw[j] += svc_val
                    else:
                        keep.append((L_val, fin_val, svc_val))
                pend[j] = keep
        offset = (offset + cn) % K
    for j in range(K):
        absorb(j, final=True)
    window_end = last_arrival
    for j, inst in enumerate(instances):
        for L_val, fin_val, svc_val in pend[j]:
            s0 = L_val if L_val < window_end else window_end
            e0 = fin_val if fin_val < window_end else window_end
            d0 = e0 - s0
            if d0 > 0.0:
                busyw[j] += d0
        inst.busy_until = F[j]
        inst.loaded_model = (
            mix.profiles[loaded[j]].name if loaded[j] >= 0 else None
        )
        inst.busy_seconds += busy[j]
        inst.busy_seconds_window += busyw[j]
        inst.served += served[j]
        inst.batches += nbatches[j]
        inst.setups += setups[j]
        inst.window_end = window_end
    model_counts = tuple(
        sorted(
            (p.name, int(c))
            for p, c in zip(mix.profiles, counts.tolist())
            if c
        )
    )
    return StreamingSummary(
        completed=int(sum(served)),
        latencies=None,
        waits=None,
        model_counts=model_counts,
        max_finish=max_finish,
        class_buckets=None,
        stats="sketch",
        latency_sketch=latency,
        wait_mean_value=wait_sum / n if n else 0.0,
        window_end=window_end,
        events=events,
    )
