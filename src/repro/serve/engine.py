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

Two kernels share one physics
-----------------------------

Requests live in a columnar :class:`~repro.serve.arena.RequestArena`
(see that module) and the engine serves every run with one of two
kernels that produce the same schedule *bit-for-bit*.  The choice is
made in one place, :meth:`Engine.run_until`, by one rule for fresh,
bounded and resumed calls alike (:meth:`Engine._fast_mode`):
:meth:`Engine.run` is exactly ``begin`` + ``run_until(inf)``.

1. **Event fold** — one scalar event loop over plain Python lists and
   a single event slot per instance (no heap, no objects), dispatched
   as ``"fold"``.  It serves every configuration: it routes by
   round-robin striping or an inlined least-loaded scan and calls any
   other policy's ``choose`` over the active instances; it folds in
   the declared admission rule (:meth:`EngineHooks.fast_admission`),
   several priorities, per-instance service profiles and DVFS scales,
   busy-power energy and governor ticks; and it resumes from the
   state a bounded slice or a checkpoint left.  Its per-instance
   lists are the fleet's own (:class:`~repro.serve.fleet.Fleet` is
   the one store of instance state, each
   :class:`~repro.serve.fleet.Instance` a write-through view of it),
   so a policy, a tick or an undeclared hook reads and writes what
   the fold does; after a tick or a hook the fold only refreshes
   what it derives from the lists (the active instances, the scaled
   flag and the service tables), re-arms grown horizons and
   re-stripes.  Every request stream is an arena — multi-fleet
   receivers included, which merge their spill-ins as rows — so the
   stream's type never decides the path.
2. **Round-robin fast path** — round-robin striping makes each
   instance's request stream a predetermined slice ``arena[j::K]``, so
   the per-instance timeline is computed with vectorized batch
   partitioning plus a lean Python fold over *batches* (not events),
   with an exact scalar repair pass for batches that launch before
   they fill.  Dispatched as ``"rr"`` for a call that drains a
   hook-free, tick-free, single-priority, unscaled, unpowered,
   uniform-profile stream whole from a pristine fleet, when it
   resolves the wait exactly (below).

Every instance queue is a deque of arena rows, kept in ``(priority,
row)`` order — FIFO within a priority, so a single-priority stream is
plain FIFO.  Rows are consumed in increasing order, so an arrival
appends unless the queue's tail is strictly lower priority, and
otherwise bisects in on priority alone.  The ``"rr"`` kernel keeps
FIFO queues, so it serves single-priority streams only.

Both kernels write the same outcome columns — ``start``, ``finish``,
``shed``, and the routed ``instance`` — so telemetry is derived from
the drained arena (:mod:`repro.obs.derive`) instead of observing the
loop, and observing a run never changes which path serves it.

Both kernels are *exact*: they reproduce the general ``(time, seq)``
heap loop they were derived from — kept as the test oracle in
``tests/general_loop.py`` — float for float (same operations in the
same order), which ``tests/serve/test_engine_parity.py``, the
generated differentials and the benchmark's equality assertions pin.
That holds for traces too, whose timestamps can tie with a
batching-timeout instant (``a_head + max_wait_s``, within ``_EPS``) or
with a completion: the round-robin kernel replays such batches event
by event (``tests/serve/test_rr_feed.py``).  Degenerate waits
(``max_wait_s == 0`` with tied timestamps, sub-nanosecond waits) take
the event fold.

Event ordering is the heap loop's ``(time, seq)`` order: at equal
timestamps arrivals precede every scheduled event and the tick comes
last (:data:`_TICK_SEQ`), so a governor sees everything due at its
instant.  Instance events due at one instant each touch only their
own instance, so the fold takes them in instance order.

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

from bisect import bisect_left, bisect_right
from itertools import islice
from dataclasses import dataclass
from heapq import heapify
from sys import float_info

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

_WAKE, _TICK = 2, 3
_EPS = 1e-12
_INF = float("inf")
_FINITE_MAX = float_info.max
#: The tick's heap sequence number: past every instance event's, so at
#: equal timestamps the tick runs after everything else due then.
_TICK_SEQ = 1 << 62

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

    :class:`~repro.serve.fleet.Instance` arguments are views of the
    fleet's lists, the store the event fold itself reads and writes,
    so a hook sees the run's current per-instance state and its
    writes are the run's.

    A hook set that does not declare its rule
    (:meth:`fast_admission` returns ``None``) has each overridden hook
    called at a barrier of the event fold: after the call the fold
    re-derives the active instances, the scaled flag and the service
    tables of any instance whose operating point or profiles changed,
    re-arms an event at every grown ``busy_until`` and re-stripes
    round-robin routing over the active instances.  The arena's
    outcome columns (``start``, ``finish``, ``shed``, ``instance``)
    are written when the slice returns.
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
        preempting a queued victim is the hook's own business
        (:meth:`Instance.remove` keeps ``queued_seconds`` in step).
        The view's ``request.arena``/``request.i`` give hooks the whole
        stream's columns, which is also how they read the rows queued
        on ``instance`` (``request.arena.priority[row]``).
        """
        return True

    def fast_admission(self) -> tuple[str, int] | None:
        """Declare this hook set's admission rule, fused into the
        event fold.

        Return ``None`` (the default) to have every overridden hook
        called at a barrier (see the class docstring), or a
        ``(shedding_kind, queue_threshold)`` pair naming one of four
        declared kinds, which the fold inlines instead of calling
        ``on_arrival``: ``"none"`` (admit everything), ``"deadline"``
        (shed an arrival whose first-order completion estimate misses
        its deadline), ``"queue-depth"`` (shed an arrival that finds
        ``queue_threshold`` or more rows queued) and ``"priority"``
        (at that depth, preempt the queue's tail if it is strictly
        less urgent than the arrival, else shed the arrival).  A hook
        set may only declare a kind when (a) its ``on_arrival`` is
        exactly that rule against the chosen instance, (b) its
        ``on_complete`` at most closes the powered interval of an
        inactive instance with an empty queue that is idle, and (c)
        its ``on_tick`` reads the instances' counters, operating
        points, activity and queues (arena rows) plus the state's
        cursor, and changes only activity, warm-up horizons, resident
        models, operating points and busy counters — never a queue.
        """
        return None

    def on_tick(self, now: float, engine: "Engine") -> int:
        """Periodic control-loop evaluation; returns actions taken."""
        return 0

    def on_complete(
        self, instance: Instance, now: float, engine: "Engine"
    ) -> None:
        """Accounting after ``instance``'s queue was re-examined.

        Called once per instance event — a batch completion, or the
        wake of a head batch whose fill window ran out — and never for
        a superseded wake (an instance holds one pending event).
        """


#: The admission kinds a hook set may declare (see
#: :meth:`EngineHooks.fast_admission`).
_DECLARED = ("none", "deadline", "queue-depth", "priority")


@dataclass(slots=True)
class EngineRun:
    """Outcome counters of one kernel run.

    Attributes:
        events: Events processed — the numerator of the events/sec
            kernel benchmark: arrivals, instance events (batch
            completions and head-batch wakes) and ticks.  The
            ``"rr"`` kernel counts the logically equivalent arrivals +
            batch launches (it processes the same work without
            materializing wake events).
        tick_actions: Sum of the ``on_tick`` hook's action counts.
        dispatch: Which kernel served the run — ``"fold"`` (the event
            fold, which serves every configuration), ``"rr"``
            (vectorized round-robin, for a pristine hook-free stream it
            resolves exactly) or ``"streaming"`` (the round-robin
            kernel fed chunk by chunk).
    """

    events: int
    tick_actions: int
    dispatch: str


@dataclass(slots=True)
class EngineState:
    """Explicit execution state of one run, on any path.

    Everything :meth:`Engine.run_until` needs to continue a paused run
    lives here rather than in loop locals: the pending ``(time, seq,
    kind, payload)`` events (one per busy or waiting instance, plus
    the tick, kept as a heap), the arena cursor (arrivals consumed so
    far) and the cumulative event counters.  Per-instance queues
    (arena rows) and in-flight batches live in the
    :class:`~repro.serve.fleet.Fleet`'s lists; a checkpoint pickles
    the engine with both (:mod:`repro.checkpoint`).
    """

    heap: list
    clock: float
    cursor: int
    events: int
    tick_actions: int


class _FoldRows:
    """The event fold's per-row lists over one arena, built once per
    run: the inputs it reads (arrival, model, priority, and the
    shedding deadline) and the outputs it writes (start, finish, and
    the scanned or chosen route).  A slice writes back only the rows
    it consumed or carried, so the ``-1`` seeds never reach the arena.
    """

    __slots__ = (
        "arrival",
        "model",
        "priority",
        "deadline",
        "start",
        "finish",
        "instance",
    )

    def __init__(self, arena: RequestArena, deadline: bool, striped: bool):
        n = len(arena)
        self.arrival = arena.arrival.tolist()
        self.model = arena.model_idx.tolist()
        self.priority = arena.priority.tolist()
        # SLO deadlines are absolute; the vectorized + _EPS is
        # bit-identical to the shedder's scalar `deadline + _EPS`.
        self.deadline = (
            (arena.deadline + _EPS).tolist() if deadline else None
        )
        self.start = [-1.0] * n
        self.finish = [-1.0] * n
        self.instance = None if striped else [-1] * n


class _Derived:
    """What the event fold derives from the fleet's lists, refreshed
    by :meth:`refresh` after every barrier: the active indices and
    their views, whether any instance is DVFS-scaled, and each
    instance's service tables.

    ``per[j]``/``setup[j]`` are instance ``j``'s tables indexed by the
    arena's model index: its own profile of each model when it has
    per-instance profiles, else the request's, with per-image times
    stretched by its DVFS ``latency_scale`` (the same IEEE products as
    ``profile.per_image_seconds * latency_scale``).  Entry ``j`` is
    rebuilt only when that instance's scale or ``profiles`` object
    changed, and always in place, so the fold's bound lists stay
    current.
    """

    __slots__ = (
        "fleet", "arena", "built", "per", "setup", "act", "act_instances",
        "scaled",
    )

    def __init__(self, fleet: Fleet, arena: RequestArena) -> None:
        K = len(fleet)
        self.fleet = fleet
        self.arena = arena
        # The (scale, profiles) each table was built for.
        self.built = [(None, None)] * K
        self.per = [None] * K
        self.setup = [None] * K
        self.refresh()

    def refresh(self) -> None:
        """Re-derive everything from the fleet's lists."""
        fleet = self.fleet
        arena = self.arena
        built = self.built
        scales = fleet.latency_scale
        for j, (scale, profiles) in enumerate(zip(scales, fleet.profiles)):
            built_scale, built_profiles = built[j]
            if scale == built_scale and profiles is built_profiles:
                continue
            built[j] = scale, profiles
            own = [
                p if profiles is None else profiles.get(name) or p
                for name, p in zip(arena.model_names, arena.profiles)
            ]
            # ``x * 1.0 == x``: an unscaled table keeps its floats.
            self.per[j] = (
                np.array(
                    [0.0 if p is None else p.per_image_seconds for p in own]
                )
                * scale
            ).tolist()
            self.setup[j] = [
                0.0 if p is None else p.setup_seconds for p in own
            ]
        self.act = fleet.active_indices()
        self.act_instances = [fleet.instances[j] for j in self.act]
        self.scaled = any(scale != 1.0 for scale in scales)

    def call(self, ev: list, now: float, hook, *args):
        """A barrier: call ``hook(*args)``, re-arm instance ``j``'s
        event slot ``ev[j]`` at a ``busy_until`` the hook grew past
        ``now`` (a warm-up extends it without launching), and
        refresh.  Returns the hook's result."""
        bu = self.fleet.busy_until
        before = bu[:]
        result = hook(*args)
        for j, grown in enumerate(bu):
            if grown > before[j] and grown > now:
                ev[j] = grown
        self.refresh()
        return result


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

    Instance queues are always in ``(priority, arena row)`` order, so
    a single-priority stream is FIFO.
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
        "state",
        "last_run",
        "_requests",
        "_rows",
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
        # EngineHooks.fast_admission) has it inlined; unknown kinds
        # are ignored rather than trusted, so the hooks are called.
        spec = self.hooks.fast_admission()
        if spec is not None and spec[0] not in _DECLARED:
            spec = None
        self._ctl_spec = spec
        self.state: EngineState | None = None
        self.last_run: EngineRun | None = None
        self._requests: RequestArena | None = None
        self._rows: _FoldRows | None = None

    def __getstate__(self):
        """Pickle every slot but the fold's per-row lists, which the
        next slice rebuilds from the arena (a checkpoint stays the size
        of the run's state, not of its inputs)."""
        return None, {
            name: getattr(self, name)
            for name in self.__slots__
            if name != "_rows"
        }

    def __setstate__(self, state) -> None:
        self._rows = None
        for name, value in state[1].items():
            setattr(self, name, value)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _fast_mode(self, arena: RequestArena) -> str:
        """Which kernel serves this engine: ``"rr"`` where
        :meth:`_vectorizes` holds, else the event fold (``"fold"``),
        which serves every configuration.  The choice depends on the
        configuration alone, so fresh, sliced and resumed runs of one
        engine never change kernels."""
        return "rr" if self._vectorizes(arena) else "fold"

    def _vectorizes(self, arena: RequestArena) -> bool:
        """Whether ``"rr"`` serves this run: exact round-robin
        routing, no hook overridden or declared and no tick, striping
        from the first row over an always-active fleet that is idle,
        cold, empty and uncounted; one priority (FIFO queues),
        unscaled unpowered instances without per-instance profiles,
        and a ``max_wait`` its partition resolves — zero only with
        strictly increasing arrivals, else above a nanosecond."""
        if (
            type(self.policy) is not RoundRobinPolicy
            or self._ctl_spec is not None
            or self._admit is not None
            or self._on_complete is not None
            or self._on_tick_overridden
            or self.tick_s is not None
            or self.policy._next
        ):
            return False
        fleet = self.fleet
        # ``any`` over floats is ``!= 0.0`` for each.
        if (
            not all(fleet.active)
            or any(fleet.busy_until)
            or any(fleet.queue)
            or any(m is not None for m in fleet.loaded_model)
            or any(fleet.busy_seconds)
            or any(fleet.busy_seconds_window)
            or any(scale != 1.0 for scale in fleet.latency_scale)
            or any(fleet.busy_power_w)
            or any(p is not None for p in fleet.profiles)
        ):
            return False
        priority = arena.priority
        if len(priority) and bool(np.any(priority != priority[0])):
            return False
        mw = self.max_wait_s
        if mw == 0.0:
            arr = arena.arrival
            return len(arr) < 2 or bool(np.all(arr[1:] > arr[:-1]))
        return mw > 1e-9

    def _run_round_robin(self, arena: RequestArena, t: float) -> EngineRun:
        """Decoupled per-instance kernel: round-robin striping fixes
        instance ``j``'s stream to ``arena[j::K]``, so each timeline is
        computed independently by :func:`_rr_feed`.  Drains the whole
        stream (``t`` is infinite) and leaves the state drained."""
        fleet = self.fleet
        K = len(fleet)
        mb = self.max_batch
        mw = self.max_wait_s
        per_tab = arena.per_image
        setup_tab = arena.setup
        n = len(arena)
        arr = arena.arrival
        midx = arena.model_idx
        events = n
        for j in range(K):
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
            # left fold as the event fold's per-batch ``+=`` chain,
            # bit-for-bit (np.sum is pairwise: close but not
            # identical); window contributions are never negative, and
            # adding 0.0 is a bitwise no-op, so the unfiltered sum
            # matches the loop that skipped empty contributions.
            busy = sum(svc_f.tolist())
            wend = fleet.window_end[j]
            if wend is not None and nb:
                fin_b = L_arr + svc_f
                contrib = np.minimum(fin_b, wend) - np.minimum(
                    L_arr, wend
                )
                fleet.busy_seconds_window[j] += sum(contrib.tolist())
            fleet.busy_seconds[j] += busy
            fleet.busy_until[j] = F_j
            fleet.loaded_model[j] = (
                arena.model_names[loaded_j] if loaded_j >= 0 else None
            )
            fleet.served[j] += consumed
            fleet.batches[j] += nb
            fleet.setups[j] += setups_count
            fleet.queued_seconds[j] = 0.0
            events += nb
        self.policy._next += n
        state = self.state
        state.cursor = n
        state.events = events
        # Where the event fold's clock ends: the last arrival or
        # completion.
        state.clock = max(
            [float(arr[-1]) if n else 0.0] + fleet.busy_until
        )
        return EngineRun(events=events, tick_actions=0, dispatch="rr")

    def _run_event_fold(self, arena: RequestArena, t: float) -> EngineRun:
        """The exact ``"fold"`` kernel: one scalar event fold that
        serves every configuration and resumes where the state left
        off.

        Per-instance state is the fleet's own lists (the one store;
        see :class:`~repro.serve.fleet.Fleet`), bound to locals once,
        with one event slot per instance instead of a heap: a launch
        or a new head wake overwrites the slot, so superseded wakes
        never exist.  The slots are seeded from the state's pending
        events on entry and written back on exit, so one call drains
        a run, or a bounded ``run_until(t)`` stops at ``t`` and a
        later call (in this process or, via a checkpoint, another)
        carries on; the per-row lists are built once per run
        (:class:`_FoldRows`) and what the fold derives from the
        fleet's lists — the active list, the scaled flag and the
        service tables — by :class:`_Derived`.

        An arrival is routed over the active instances by round-robin
        striping, an inlined least-loaded scan, or — for any other
        policy — ``policy.choose``, whose views read the same lists
        the fold writes (policies only read).  It then passes the
        declared :meth:`EngineHooks.fast_admission` rule, inlined
        against the chosen instance, or an undeclared ``on_arrival``
        at a barrier, and joins the queue at its ``(priority, row)``
        position.  An
        idle instance's queue is then examined: its head batch
        launches when the head has waited out ``max_wait`` or a full
        same-model batch is queued, else the slot holds the head's
        wake.  Service times come from the instance's own tables
        (per-instance profiles, DVFS scale); the queued-seconds ledger
        that least-loaded routing and deadline shedding read stays on
        the request's profile.  A hook-free run admits everything,
        and an instance at scale 1.0 with zero busy power reduces
        bit-for-bit to the plain serve-plane operations (``x * 1.0``
        and ``e + 0.0 * s`` are exact).

        A tick is a barrier: the fold runs every arrival and instance
        event at or before it, calls ``on_tick``, re-arms grown
        horizons, refreshes the derived state (:meth:`_Derived.call`)
        and reschedules the tick.  An undeclared ``on_complete`` is
        the same barrier after each instance event.  Under a declared
        rule a retired instance closes its powered interval at its
        first event that finds it drained, which is the declared
        ``on_complete``.
        """
        spec = self._ctl_spec
        kind, threshold = spec or ("none", 0)
        admit = None if spec else self._admit
        complete = None if spec else self._on_complete
        closes = spec is not None and self._on_complete is not None
        state = self.state
        fleet = self.fleet
        instances = fleet.instances
        K = len(fleet)
        mb = self.max_batch
        mw = self.max_wait_s
        n = len(arena)
        policy = self.policy
        striped = type(policy) is RoundRobinPolicy
        scan = type(policy) is LeastLoadedPolicy
        choose = policy.choose
        deadline_shed = kind == "deadline"
        bounded = kind in ("queue-depth", "priority")
        preempt = kind == "priority"
        rows = self._rows
        if rows is None:
            rows = self._rows = _FoldRows(arena, deadline_shed, striped)
        a_l = rows.arrival
        m_l = rows.model
        prio_l = rows.priority
        prio_key = prio_l.__getitem__
        dl_eps_l = rows.deadline
        start_l = rows.start
        fin_l = rows.finish
        inst_l = rows.instance
        # The queued-seconds ledger: each request's own profile.
        per_tab = arena.per_image.tolist()
        names = arena.model_names
        tick_s = self.tick_s
        on_tick = self.hooks.on_tick

        on = fleet.active
        bu = fleet.busy_until
        qs = fleet.queued_seconds
        busy = fleet.busy_seconds
        busyw = fleet.busy_seconds_window
        energy = fleet.energy_joules
        served = fleet.served
        nbatches = fleet.batches
        setups = fleet.setups
        loaded = fleet.loaded_model
        bpw_l = fleet.busy_power_w
        wend_l = fleet.window_end
        queues = fleet.queue
        scale_l = fleet.latency_scale
        derived = _Derived(fleet, arena)
        per_s = derived.per
        setup_s = derived.setup
        act = derived.act
        act_inst = derived.act_instances
        na = len(act)
        # ``qj * 1.0 == qj``: an unscaled fleet's scan skips the
        # product.
        scaled = derived.scaled
        retired = closes and na < K
        # Rows queued on entry launch in this slice or stay queued;
        # either way they are written back with the consumed rows.
        carried = [r for q in queues for r in q]
        # The pending events: one slot per instance plus the tick.
        ev = [_INF] * K
        tick_t = _INF
        for x, _, event, j in state.heap:
            if event == _TICK:
                tick_t = x
            elif x < ev[j]:
                ev[j] = x
        ev_index = ev.index
        shed_ids: list[int] = []
        i = i0 = state.cursor
        # Striping: row ``rid`` goes to active position ``(rid +
        # rr_off) % na`` (the policy counter moves with the cursor),
        # and ``segments`` holds the active list from each row on.
        rr_off = policy._next - i0 if striped else 0
        segments = [(i0, act)]
        events = state.events
        tick_actions = state.tick_actions
        now = state.clock
        # No comprehension below may name a hot local: in a nested
        # scope it would turn that local into a slower cell variable.
        while True:
            # ``tmin`` is always ``min(ev)``, maintained where the
            # examine below writes a slot; ``ev.index(tmin)`` (first
            # minimum) picks the instance of a non-arrival event.
            tmin = min(ev)
            # Everything at or before ``lim`` runs before the tick or
            # the horizon; the finite cap also stops the loop once
            # arrivals and events are exhausted.
            lim = min(t, tick_t, _FINITE_MAX)
            nexta = a_l[i] if i < n else _INF
            while True:
                if nexta <= tmin:
                    # Arrival first at ties, like the (time, seq) heap.
                    if nexta > lim:
                        break
                    now = nexta
                    rid = i
                    i += 1
                    nexta = a_l[i] if i < n else _INF
                    if striped:
                        j = act[(rid + rr_off) % na]
                    else:
                        if scan:
                            # Inlined LeastLoadedPolicy._least_loaded +
                            # Instance.pending_seconds.
                            best_load = _INF
                            for jj in act:
                                dj = bu[jj] - now
                                load = dj if dj > 0.0 else 0.0
                                qj = qs[jj]
                                if qj > 0.0:
                                    load += qj * scale_l[jj] if scaled else qj
                                if load < best_load:
                                    best_load = load
                                    j = jj
                        else:
                            j = act[choose(arena[rid], act_inst, now)]
                        inst_l[rid] = j
                    if admit is not None:
                        admitted = derived.call(
                            ev, now, admit, arena[rid], instances[j], now,
                            self,
                        )
                        act, act_inst = derived.act, derived.act_instances
                        na, scaled = len(act), derived.scaled
                        if striped and segments[-1][1] != act:
                            segments.append((i, act))
                        tmin = min(ev)
                        if not admitted:
                            shed_ids.append(rid)
                            continue
                    q = queues[j]
                    if deadline_shed:
                        # Inlined DeadlineShedding.admit (estimated
                        # completion = now + pending_seconds + own
                        # service).
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
                    elif bounded and len(q) >= threshold:
                        # Inlined QueueDepthShedding.admit, and
                        # PriorityShedding.admit's preemption of a
                        # strictly less urgent tail (Instance.remove).
                        victim = q[-1]
                        if not preempt or prio_l[victim] <= prio_l[rid]:
                            shed_ids.append(rid)
                            continue
                        q.pop()
                        qsj = qs[j] - per_tab[m_l[victim]]
                        qs[j] = qsj if q else 0.0
                        shed_ids.append(victim)
                    # Rows strictly increase, so bisecting on priority
                    # alone gives the (priority, row) position.
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
                    if tmin > lim:
                        break
                    now = tmin
                    j = ev_index(tmin)
                    events += 1
                    q = queues[j]
                    at_min = True
                    rid = -1  # an instance event
                # Examine: launch if the head batch is due — wake
                # deadline passed, or a full same-model batch — else
                # the slot holds the head's wake.
                x = _INF
                if q:
                    head = q[0]
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
                        # Launch: the instance's own (scaled) service
                        # times for timing, the request's unscaled
                        # per-image for the queued-seconds ledger.
                        model = m_l[head]
                        name = names[model]
                        if loaded[j] != name:
                            setup = setup_s[j][model]
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
                            if (
                                count == mb
                                or not q
                                or m_l[q[0]] != model
                            ):
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
                        loaded[j] = name
                elif retired and not on[j] and bu[j] <= now:
                    # Retired and drained (arrivals only reach active
                    # instances, so this is an instance event).
                    instances[j].close_power_interval(now)
                # Every other slot is >= tmin; only a slot that held
                # the minimum and moved up needs a rescan (a plain
                # loop: builtins.min costs about twice as much on a
                # short list).
                ev[j] = x
                if x <= tmin:
                    tmin = x
                elif at_min:
                    tmin = x
                    for y in ev:
                        if y < tmin:
                            tmin = y
                if complete is not None and rid < 0:
                    derived.call(ev, now, complete, instances[j], now, self)
                    act, act_inst = derived.act, derived.act_instances
                    na, scaled = len(act), derived.scaled
                    if striped and segments[-1][1] != act:
                        segments.append((i, act))
                    tmin = min(ev)
            if lim != tick_t:
                break
            now = tick_t
            events += 1
            # The cursor is current at a tick (a forecasting governor
            # counts the arrivals since the last one).
            state.cursor = i
            tick_actions += derived.call(ev, now, on_tick, now, self)
            act, act_inst = derived.act, derived.act_instances
            na, scaled = len(act), derived.scaled
            retired = closes and na < K
            if striped and segments[-1][1] != act:
                segments.append((i, act))
            tick_t = _INF
            for j in range(K):
                if i < n or queues[j] or bu[j] > now + _EPS:
                    tick_t = now + tick_s
                    break

        arena.start[i0:i] = start_l[i0:i]
        arena.finish[i0:i] = fin_l[i0:i]
        if carried:
            arena.start[carried] = list(map(start_l.__getitem__, carried))
            arena.finish[carried] = list(map(fin_l.__getitem__, carried))
        # The routed instance of every consumed row, shed or not.
        if striped:
            ends = [s for s, _ in segments[1:]] + [i]
            for (s, a), e in zip(segments, ends):
                if e > s:
                    arena.instance[s:e] = np.asarray(a)[
                        (np.arange(s, e) + rr_off) % len(a)
                    ]
            policy._next += i - i0
        else:
            arena.instance[i0:i] = inst_l[i0:i]
        if shed_ids:
            arena.shed[shed_ids] = True
        heap = [(x, j, _WAKE, j) for j, x in enumerate(ev) if x < _INF]
        if tick_t < _INF:
            heap.append((tick_t, _TICK_SEQ, _TICK, None))
        heapify(heap)
        state.heap = heap
        state.cursor = i
        state.events = events = events + i - i0
        state.tick_actions = tick_actions
        state.clock = now if t == _INF else t
        if i >= n and not heap:
            self._rows = None  # drained: free the per-row lists
        return EngineRun(events, tick_actions, "fold")

    #: Kernel name (see :meth:`_fast_mode`) -> its kernel.
    _kernels = {"rr": _run_round_robin, "fold": _run_event_fold}

    def begin(self, requests: RequestArena) -> EngineState:
        """Arm a run over ``requests`` without running it.

        Seeds a fresh :class:`EngineState` (tick scheduled, cursor at
        zero) and remembers the request stream so repeated
        :meth:`run_until` calls can step the run in bounded slices.
        """
        tick_s = self.tick_s
        heap = [] if tick_s is None else [(tick_s, _TICK_SEQ, _TICK, None)]
        self._requests = requests
        self._rows = None
        self.state = EngineState(
            heap=heap, clock=0.0, cursor=0, events=0, tick_actions=0
        )
        return self.state

    @property
    def finished(self) -> bool:
        """True once a begun run has consumed every arrival and
        drained its pending events (nothing left for ``run_until``)."""
        state = self.state
        return (
            state is not None
            and state.cursor >= len(self._requests)
            and not state.heap
        )

    def run_until(self, t: float) -> EngineRun:
        """Advance the begun run through every event at time <= ``t``.

        This is the engine's one dispatch point, and it applies one
        rule to fresh, bounded and resumed calls alike:
        :meth:`_run_round_robin` (``"rr"``) when :meth:`_fast_mode`
        picks it and the call drains the stream whole, else
        :meth:`_run_event_fold` (``"fold"``).  Both continue from
        :attr:`state` and the fleet's lists, and advance them in
        place.  Returns the *cumulative* counters of the run so far.
        """
        requests = self._requests
        mode = self._fast_mode(requests)
        if mode == "rr" and t != _INF:
            mode = "fold"
        run = self._kernels[mode](self, requests, t)
        self.last_run = run
        return run

    def run(self, requests: RequestArena) -> EngineRun:
        """Play ``requests`` (non-decreasing arrival order) to drain:
        exactly :meth:`begin` + ``run_until(inf)``.  Outcomes are
        written to the arena's columns in place.
        """
        self.begin(requests)
        return self.run_until(_INF)


# ----------------------------------------------------------------------
# Round-robin columnar kernel
# ----------------------------------------------------------------------

_EMPTY_F = np.empty(0, dtype=np.float64)
_EMPTY_I = np.empty(0, dtype=np.int64)


def _near_deadline(
    a: np.ndarray,
    ahead: np.ndarray,
    unknown_from: float,
    wake: np.ndarray,
    trip: np.ndarray,
) -> np.ndarray:
    """Which deadlines ``wake`` (``trip = wake - _EPS``) have an arrival
    in ``[trip, wake]``, among ``a`` and then ``ahead``, or lie past
    ``unknown_from``, where arrivals not yet known may land."""
    at = np.searchsorted(a, trip)
    near = a[np.minimum(at, len(a) - 1)]
    hit = (near >= trip) & (near <= wake)
    beyond = np.flatnonzero(at == len(a))
    if beyond.size and (len(ahead) or unknown_from < _INF):
        w = wake[beyond]
        later = np.append(ahead, _INF)[np.searchsorted(ahead, trip[beyond])]
        hit[beyond] = (later <= w) | (w > unknown_from)
    return hit


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
    ahead: np.ndarray = _EMPTY_F,
    unknown_from: float = _INF,
):
    """Advance one instance's timeline over a buffered stream stretch.

    ``a``/``m`` are the instance's arrival times and model ids (its
    round-robin slice), ``F`` its ``busy_until`` and ``loaded`` the
    resident model id carried from the previous feed (``-1`` = cold).
    With ``final=False`` (streaming) the feed stops before any batch
    whose membership could still change with future arrivals (an open
    trailing run shorter than ``mb``), deferring at most ``mb - 1``
    positions to the next feed.  ``ahead`` holds the instance's next
    arrivals (events that can trigger a launch, never members of this
    feed's batches), and every arrival after them comes at or after
    ``unknown_from``; a batch that would wait for a deadline past it
    is deferred too, since an unknown arrival could launch it first.

    The kernel has three stages and an assembly:

    1. *Canonical partition* (vectorized): maximal same-model runs are
       cut into ``mb``-sized canonical batches; per batch the wake
       deadline, full-batch trigger, cold-start flag, and service time
       are computed as numpy arrays.
    2. *Launch fold* (Python, per batch): ``L = max(F, due)`` with the
       event fold's epsilon rule; a canonical batch is accepted when
       its last member arrived by its launch (``lasta <= L``).  A
       batch whose launch could tie with an arrival is never accepted
       (``lasta`` = inf): two members at one instant, or a full
       batch's early member within ``_EPS`` of its deadline, marked in
       stage 1; an arrival within ``_EPS`` of the deadline a batch was
       launched at, found after the fold, which then runs once more
       with every such batch marked.
    3. *Split repair* (scalar, only when 2 rejects): replay exact
       batches until the cursor realigns with a canonical boundary.
       Each launches at the event the general loop launches it at —
       the first arrival at or after ``F`` at which the batch is due,
       else the completion at ``F``, else the wake at the deadline —
       with the members queued by that event.  Its lookups read
       ``memoryview``s of the stage-1 arrays, so a feed converts only
       the positions it replays.

    The assembly gathers the launched batches' ``k``/setup/per-image/
    service values with one index array over ``[canonical; scalar]``
    batches (a range per accepted stretch or repair), then expands
    them to per-member starts and finishes.

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
    # The event loops launch at the first *event* at which a batch is
    # due, so an arrival tied with that event and behind it waits for
    # the next batch, while stage 2 counts every arrival up to the
    # launch instant.  Checking deadlines after the fold keeps the
    # searches to the batches launched at one.
    trip = wake - _EPS
    if nj > 1 and bool(np.any(a[1:] == a[:-1])):
        lasta[(k > 1) & (a[np.maximum(e - 2, s)] == lasta)] = _INF
    if mb > 1:
        fulls = np.flatnonzero(k == mb)
        lasta[fulls[a[e[fulls] - 2] >= trip[fulls]]] = _INF
    if final:
        stop_t = total_b
    else:
        unsafe = (rend == nj) & (s + mb > nj)
        idx = np.flatnonzero(unsafe)
        stop_t = int(idx[0]) if idx.size else total_b

    # -- stage 2: launch fold ----------------------------------------
    due_l = due.tolist()
    svc_l = svc.tolist()
    # Sparse reads (the fold's epsilon rule, split repair) go through
    # memoryviews: a feed reads a few hundred of their positions, and
    # whole-array ``.tolist()`` copies would rival the fold itself.
    heada_l = memoryview(heada)
    s_l = memoryview(s)
    rend_l = memoryview(rend)
    M_l = memoryview(M)
    a_list = memoryview(np.ascontiguousarray(a))
    m_list = memoryview(np.ascontiguousarray(m))
    ahead_l = memoryview(np.ascontiguousarray(ahead))
    per_tab_l = per_tab.tolist()
    setup_tab_l = setup_tab.tolist()
    flagged = False
    while True:
        lasta_l = lasta.tolist()
        L_list: list[float] = []
        append_L = L_list.append
        # Launched batches as ``[lo, hi)`` ranges over ``[canonical;
        # scalar]``: canonical batch ``t`` is ``t``, scalar batch ``x`` is
        # ``total_b + x``.
        piece_lo: list[int] = []
        piece_hi: list[int] = []
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
                    # The event fold launches at a completion F when the
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
            if t > canon_from:
                piece_lo.append(canon_from)
                piece_hi.append(t)
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
                # The general loop's launch event: the first arrival from
                # the head on while idle (at or after F) at which the batch
                # is due, the completion at F, or the wake at the deadline.
                # Arrivals at an instant precede the completion or wake
                # there, and each arrival re-examines the queue.
                head_c = a_list[c]
                wake_c = head_c + mw
                trip_c = wake_c - _EPS
                idle = bisect_left(a_list, F_, c)
                p = bisect_left(a_list, trip_c, idle)
                full = cap - c == mb
                if full and cap - 1 < p:
                    p = cap - 1 if cap - 1 > idle else idle
                if p < nj:
                    a_p = a_list[p]
                else:
                    # Past the buffer the batch is full or waits for its
                    # deadline; later arrivals are events, never members.
                    q = bisect_left(
                        ahead_l, F_ if full or F_ > trip_c else trip_c
                    )
                    a_p = ahead_l[q] if q < len(ahead_l) else _INF
                if (
                    F_ > head_c
                    and a_p > F_
                    and (F_ >= trip_c or (full and a_list[cap - 1] <= F_))
                ):
                    L = F_
                    k_real = bisect_right(a_list, L, c, cap) - c
                elif a_p <= wake_c or a_p <= F_:
                    L = a_p
                    k_real = (p + 1 if p < cap else cap) - c
                elif unknown_from < wake_c:
                    # An arrival not yet known may still come first.
                    consumed = c
                    break
                else:
                    L = wake_c
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
                piece_lo.append(total_b + x0)
                piece_hi.append(total_b + len(sc_k))
            canon_from = t
            if consumed is not None:
                break
        if t > canon_from:
            piece_lo.append(canon_from)
            piece_hi.append(t)
        if consumed is None:
            # ``t``, not ``stop_t``: a split repair may run past the first
            # deferred canonical batch and end exactly at ``nj``.
            consumed = int(s[t]) if t < total_b else nj

        # -- check launches at a deadline ----------------------------
        nb = len(L_list)
        if nb == 0:
            return (
                0, _EMPTY_F, _EMPTY_F, _EMPTY_F, _EMPTY_F, _EMPTY_I,
                0, 0, F_, loaded,
            )
        L_arr = np.array(L_list, dtype=np.float64)
        if sc_k:
            lo = np.array(piece_lo, dtype=np.int64)
            span = np.array(piece_hi, dtype=np.int64) - lo
            idx = np.repeat(lo - (np.cumsum(span) - span), span)
            idx += np.arange(nb, dtype=np.int64)
            is_canon = idx < total_b
            canon = idx[is_canon]
            at_wake = canon[L_arr[is_canon] == wake[canon]]
        else:
            # No split repair launched a batch: the accepted canonical
            # batches are the prefix ``[0, nb)``.
            at_wake = np.flatnonzero(L_arr == wake[:nb])
        if flagged or not _near_deadline(
            a, ahead, unknown_from, wake[at_wake], trip[at_wake]
        ).any():
            break
        lasta[_near_deadline(a, ahead, unknown_from, wake, trip)] = _INF
        flagged = True

    # -- assembly ----------------------------------------------------
    if not sc_k:
        k_f = k[:nb]
        setup_f = setup_eff[:nb]
        per_f = per_b[:nb]
        svc_f = svc[:nb]
        setups_count = int(np.count_nonzero(cold[:nb]))
    else:
        k_f = np.concatenate((k, np.array(sc_k, dtype=np.int64)))[idx]
        setup_f = np.concatenate(
            (setup_eff, np.array(sc_setup, dtype=np.float64))
        )[idx]
        per_f = np.concatenate(
            (per_b, np.array(sc_per, dtype=np.float64))
        )[idx]
        svc_f = np.concatenate(
            (svc, np.array(sc_svc, dtype=np.float64))
        )[idx]
        setups_count = scalar_setups + int(np.count_nonzero(cold[canon]))
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
    written to the fleet's lists in place, exactly like an engine run.
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
    membership could still change.  Each chunk is fed once the next is
    drawn, whose arrivals may launch a batch waiting for its deadline
    (a batch waiting past the next chunk is deferred too).  Completed
    latencies are folded
    into a t-digest and discarded, so memory stays flat in ``n``: the
    million-request mode.

    The simulated *physics* per processed stream are the engine's
    exactly; the stream itself differs bit-wise from exact mode
    because times and model draws interleave chunk-by-chunk on the
    RNG (documented in ``ServingScenario.stats``), so sketch-mode
    scenarios carry a distinct cache key.
    """
    K = len(fleet)
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

    def absorb(
        j: int, final: bool, ahead: np.ndarray = _EMPTY_F,
        unknown_from: float = _INF,
    ) -> None:
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
            F[j], loaded[j], final, ahead, unknown_from,
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

    def draw_models(times: np.ndarray) -> np.ndarray:
        u = rng.random(len(times))
        return np.minimum(
            np.searchsorted(cum_weights, u * cum_weights[-1], side="right"),
            nmodels - 1,
        ).astype(np.int64)

    # Each chunk is fed once the next one is drawn (its times after this
    # chunk's models: the RNG stream's order), so a launch at a wake
    # deadline sees the arrivals that could still come first.  Arrivals
    # past the next chunk come at or after its last timestamp
    # (``unknown_from``; infinite once the stream is drawn whole).
    chunks = iter_arrival_times(arrivals, n, rng, chunk)
    times = next(chunks, None)
    midx = draw_models(times) if times is not None else None
    drawn = len(times) if times is not None else 0
    while times is not None:
        nxt = next(chunks, None)
        nxt_midx = None
        if nxt is not None:
            nxt_midx = draw_models(nxt)
            drawn += len(nxt)
        unknown_from = (
            float(nxt[-1]) if nxt is not None and drawn < n else _INF
        )
        cn = len(times)
        last_arrival = float(times[cn - 1])
        events += cn
        nxt_offset = (offset + cn) % K
        for j in range(K):
            first = (j - offset) % K
            a_new = times[first::K]
            if len(a_new):
                buf_a[j].append(np.ascontiguousarray(a_new))
                buf_m[j].append(np.ascontiguousarray(midx[first::K]))
            ahead = (
                nxt[(j - nxt_offset) % K::K] if nxt is not None else _EMPTY_F
            )
            absorb(j, False, ahead, unknown_from)
            # Flush window-pending batches the horizon has passed.
            if pend[j]:
                keep = []
                for L_val, fin_val, svc_val in pend[j]:
                    if fin_val <= last_arrival:
                        busyw[j] += svc_val
                    else:
                        keep.append((L_val, fin_val, svc_val))
                pend[j] = keep
        offset = nxt_offset
        times, midx = nxt, nxt_midx
    for j in range(K):
        absorb(j, final=True)
    window_end = last_arrival
    for j in range(K):
        for L_val, fin_val, svc_val in pend[j]:
            s0 = L_val if L_val < window_end else window_end
            e0 = fin_val if fin_val < window_end else window_end
            d0 = e0 - s0
            if d0 > 0.0:
                busyw[j] += d0
        fleet.busy_until[j] = F[j]
        fleet.loaded_model[j] = (
            mix.profiles[loaded[j]].name if loaded[j] >= 0 else None
        )
        fleet.busy_seconds[j] += busy[j]
        fleet.busy_seconds_window[j] += busyw[j]
        fleet.served[j] += served[j]
        fleet.batches[j] += nbatches[j]
        fleet.setups[j] += setups[j]
        fleet.window_end[j] = window_end
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
