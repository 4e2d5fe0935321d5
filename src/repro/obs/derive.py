"""Telemetry derived from a drained run's arena columns.

Every execution path — the general loop, the ``rr``/``ll`` kernels,
and the fused ``rr-ctl`` fold — writes the same ``start``/``finish``/
``shed``/``instance`` columns, bit for bit.  This module turns those
columns (plus the few control-side facts a governed run's
:class:`~repro.obs.governor.ControlLog` recorded at its ticks) into the
trace spans and the metrics timeline *after* the engine drained, so
observing a run never changes how it executes.

Reconstruction rules (the general loop's semantics, exactly):

* a *batch* is the set of rows sharing ``(instance, start)``; its
  members are listed in stream order and batches are numbered in
  launch order (start time, then fleet, then instance);
* a batch's service time is ``setup + k * (per_image * scale)`` with
  the setup paid when the instance's resident model differs (cold at
  the first launch and after every power-up), the instance's own
  profile when it has one, and the DVFS scale in force at launch;
* per-instance busy time and busy energy are the sequential fold
  (``np.cumsum``, the same left fold as the live ``+=``) of batch
  services and warm-ups in event order;
* at a tick time ``t``, everything that happened at or before ``t``
  has happened — arrivals at ``t`` precede the tick, and a governor
  action at ``t`` applies to launches after ``t``.  (A launch at
  exactly a tick instant that the live loop scheduled *after* the tick
  is a measure-zero tie this rule does not reproduce.)

Admission under priority preemption marks a queued victim shed after
it was enqueued; the columns record only the final verdict, so the
derived telemetry counts such a victim as shed at its arrival (and
never queued), consistent with the report's ``shed_requests``.
"""

from __future__ import annotations

import numpy as np

from ..serve.arena import RequestArena
from ..serve.engine import _EPS
from . import trace
from .metrics import MetricsTimeline

__all__ = ["Columns", "Schedule", "columns", "trace_events", "timeline"]

_INF = float("inf")
_FIELDS = (
    "arrival",
    "start",
    "finish",
    "shed",
    "instance",
    "deadline",
    "per_image",
    "setup",
    "model_idx",
    "class_idx",
    "model_names",
    "slo_names",
)


class Columns:
    """One engine stream's outcome columns, in stream order.

    ``model_idx`` indexes the ``model_names`` table and ``class_idx``
    the ``slo_names`` table (``-1``: no SLO class, outside the control
    plane); ``per_image``/``setup`` are each row's own service
    profile."""

    __slots__ = _FIELDS

    def __len__(self) -> int:
        return len(self.arrival)


def columns(arena: RequestArena) -> Columns:
    """The outcome columns of an engine stream (multi-fleet receivers
    included: their spill-ins are rows of the merged arena)."""
    cols = Columns()
    cols.arrival = arena.arrival
    cols.start = arena.start
    cols.finish = arena.finish
    cols.shed = arena.shed
    cols.instance = arena.instance
    cols.deadline = arena.deadline
    midx = arena.model_idx
    cols.model_idx = midx
    cols.class_idx = arena.class_idx
    cols.model_names = arena.model_names
    cols.slo_names = arena.slo_names
    cols.per_image = arena.per_image[midx]
    cols.setup = arena.setup[midx]
    return cols


class Schedule:
    """The batches of one drained stream and each instance's busy and
    energy fold.

    Batch arrays (``inst``, ``start``, ``size``, ``model``, ``service``,
    ``first``) are sorted by ``(instance, start)``; ``rows`` lists the
    started rows in that order, so batch ``b``'s members are
    ``rows[first[b]:first[b] + size[b]]``.  ``fold[j]`` is instance
    ``j``'s ``(times, busy, energy)`` cumulative fold.
    """

    def __init__(self, cols: Columns, fleet, initial, log) -> None:
        started = np.flatnonzero(cols.start >= 0.0)
        order = np.lexsort(
            (started, cols.start[started], cols.instance[started])
        )
        rows = started[order]
        inst = cols.instance[rows]
        start = cols.start[rows]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (inst[1:] != inst[:-1]) | (start[1:] != start[:-1])
        first = np.flatnonzero(new)
        self.rows = rows
        self.first = first
        self.size = np.diff(np.append(first, len(rows)))
        self.inst = inst[first]
        self.start = start[first]
        head = rows[first]
        self.model = np.array(cols.model_names, dtype=object)[
            cols.model_idx[head]
        ]
        per = cols.per_image[head]
        setup = cols.setup[head]
        instances = fleet.instances
        K = len(instances)
        bounds = np.searchsorted(self.inst, np.arange(K + 1))
        self.service = np.empty(len(first), dtype=np.float64)
        self.fold = []
        for j, instance in enumerate(instances):
            lo, hi = int(bounds[j]), int(bounds[j + 1])
            launch = self.start[lo:hi]
            model = self.model[lo:hi]
            per_j = per[lo:hi]
            setup_j = setup[lo:hi]
            if instance.profiles:
                per_j = per_j.copy()
                setup_j = setup_j.copy()
                for name, profile in instance.profiles.items():
                    mask = model == name
                    per_j[mask] = profile.per_image_seconds
                    setup_j[mask] = profile.setup_seconds
            scale, power = initial[j]
            changes = (
                [e for e in log.dvfs if e[1] == j] if log is not None else ()
            )
            if changes:
                at = np.searchsorted(
                    np.array([e[0] for e in changes]), launch, "left"
                )
                scale = np.array([scale] + [e[2] for e in changes])[at]
                power = np.array([power] + [e[3] for e in changes])[at]
            cold = np.ones(hi - lo, dtype=bool)
            cold[1:] = model[1:] != model[:-1]
            ups = (
                [e for e in log.power if e[1] == j and e[2]]
                if log is not None
                else ()
            )
            if ups:
                # A power-up unloads the weights: the next launch pays
                # the setup even for the resident model.
                seen = np.searchsorted(
                    np.array([e[0] for e in ups]), launch, "left"
                )
                cold[1:] |= seen[1:] > seen[:-1]
            svc = np.where(cold, setup_j, 0.0) + self.size[lo:hi] * (
                per_j * scale
            )
            self.service[lo:hi] = svc
            # Warm-ups join the fold at their tick; the stable sort
            # keeps a launch at the tick instant ahead of the tick.
            warm = [e for e in ups if e[3] > 0]
            times = np.concatenate((launch, [e[0] for e in warm]))
            by_time = np.argsort(times, kind="stable")
            busy = np.concatenate((svc, [e[3] for e in warm]))
            joules = np.concatenate((power * svc, [e[4] for e in warm]))
            self.fold.append(
                (
                    times[by_time],
                    np.cumsum(busy[by_time]),
                    np.cumsum(joules[by_time]),
                )
            )
        self.bounds = bounds


def trace_events(pid: int, cols: Columns, sched: Schedule, ids):
    """The stream's trace events as ``(ts_us, texts)`` in list order:
    shed instants, then each batch span followed by its members'
    request spans (stream order), batches in ``ids`` (launch) order.

    Each kind is one :mod:`~repro.obs.trace` template filled from the
    columns; names come from per-table encodings indexed by
    ``model_idx``/``class_idx``.
    """
    model = trace.encoded(cols.model_names)
    # class_idx -1 (no SLO class) picks the trailing "".
    slo = trace.encoded((*cols.slo_names, ""))
    shed = np.flatnonzero(cols.shed)
    order = np.argsort(ids, kind="stable")
    size = sched.size[order]
    # Member rows batch by batch in launch order.
    offsets = np.cumsum(size) - size
    members = sched.rows[
        np.repeat(sched.first[order] - offsets, size)
        + np.arange(int(size.sum()))
    ]
    n_shed, n_batch, n_req = len(shed), len(order), len(members)
    total = n_shed + n_batch + n_req
    ts = np.empty(total)
    texts = np.empty(total, dtype=object)

    shed_ts = trace.Number(cols.arrival[shed] * 1e6, 3)
    ts[:n_shed] = shed_ts.values
    texts[:n_shed] = trace.fill(
        trace.SHED,
        shed_ts,
        np.full(n_shed, pid),
        cols.instance[shed],
        model[cols.model_idx[shed]],
        slo[cols.class_idx[shed]],
    )

    # Batch b sits after the sheds, the b batches before it and their
    # members; each member after its own batch.
    at = n_shed + offsets + np.arange(n_batch)
    start = sched.start[order]
    batch_ts = trace.Number(start * 1e6, 3)
    ts[at] = batch_ts.values
    texts[at] = trace.fill(
        trace.BATCH,
        trace.encoded([f"batch:{name}" for name in cols.model_names])[
            cols.model_idx[members[offsets]]
        ],
        batch_ts,
        trace.Number(((start + sched.service[order]) - start) * 1e6, 3),
        np.full(n_batch, pid),
        sched.inst[order],
        ids[order],
        size,
    )

    at = n_shed + np.arange(n_req) + np.repeat(
        np.arange(1, n_batch + 1), size
    )
    arrival = cols.arrival[members]
    finish = cols.finish[members]
    deadline = cols.deadline[members]
    request_ts = trace.Number(arrival * 1e6, 3)
    ts[at] = request_ts.values
    fields = (
        model[cols.model_idx[members]],
        request_ts,
        trace.Number((finish - arrival) * 1e6, 3),
        np.full(n_req, pid),
        cols.instance[members],
        np.repeat(ids[order], size),
        slo[cols.class_idx[members]],
        trace.Number((cols.start[members] - arrival) * 1e3, 6),
    )
    # Rows with a finite deadline also carry their slack.
    slack = np.isfinite(deadline)
    for template, rows in (
        (trace.REQUEST_SLACK, np.flatnonzero(slack)),
        (trace.REQUEST, np.flatnonzero(~slack)),
    ):
        if not len(rows):
            continue
        columns = [field[rows] for field in fields]
        if template is trace.REQUEST_SLACK:
            columns.append(
                trace.Number((deadline[rows] - finish[rows]) * 1e3, 6)
            )
        texts[at[rows]] = trace.fill(template, *columns)
    return ts, texts


def timeline(
    cols: Columns,
    sched: Schedule,
    window_s: float,
    active: int,
    log,
) -> MetricsTimeline:
    """The fleet's metrics timeline, sampled where the live loop
    sampled it: at a governed run's recorded sample ticks, else on the
    metrics-cadence grid ``t += window_s`` that runs until no arrival,
    queued request, or in-flight batch remains."""
    K = len(sched.fold)
    arrival = cols.arrival
    shed_cum = np.cumsum(cols.shed)
    admitted = ~cols.shed
    queued_from = [
        arrival[admitted & (cols.instance == j)] for j in range(K)
    ]
    # Started rows are sorted by (instance, start): per-instance
    # slices of their starts, and of the batches, are sorted in time.
    row_start = cols.start[sched.rows]
    row_bounds = np.searchsorted(
        cols.instance[sched.rows], np.arange(K + 1)
    ).tolist()
    member_starts = [
        row_start[row_bounds[j]:row_bounds[j + 1]] for j in range(K)
    ]
    launched = np.sort(row_start)
    launches = np.sort(sched.start)
    finish = sched.start + sched.service
    bounds = sched.bounds.tolist()
    busy_end = [
        (
            sched.start[bounds[j]:bounds[j + 1]],
            finish[bounds[j]:bounds[j + 1]],
        )
        for j in range(K)
    ]

    def at(times, values, t, default):
        k = int(np.searchsorted(times, t, "right")) - 1
        return values[k].item() if k >= 0 else default

    def depth(t: float) -> list:
        return [
            int(np.searchsorted(queued_from[j], t, "right"))
            - int(np.searchsorted(member_starts[j], t, "right"))
            for j in range(K)
        ]

    def counters(t: float) -> dict:
        offered = int(np.searchsorted(arrival, t, "right"))
        return {
            "offered": offered,
            "shed": int(shed_cum[offered - 1]) if offered else 0,
            "served": int(np.searchsorted(launched, t, "right")),
            "batches": int(np.searchsorted(launches, t, "right")),
            "energy": sum(
                at(times, energy, t, 0.0)
                for times, _, energy in sched.fold
            ),
            "busy": [
                at(times, busy, t, 0.0) for times, busy, _ in sched.fold
            ],
        }

    result = MetricsTimeline(window_s)
    if log is not None:
        for t, active_t, forecast in log.samples:
            result.sample(t, counters(t), depth(t), active_t, forecast)
        return result
    last_arrival = float(arrival[-1]) if len(arrival) else -_INF
    t = window_s
    while True:
        queue = depth(t)
        if result.due(t):
            result.sample(t, counters(t), queue, active)
        if not (
            last_arrival > t
            or any(queue)
            or any(
                at(starts, ends, t, 0.0) > t + _EPS
                for starts, ends in busy_end
            )
        ):
            return result
        t = t + window_s
