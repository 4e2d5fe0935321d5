"""Telemetry derived from a drained run's arena columns.

Both engine kernels — the vectorized ``rr`` kernel and the event
``fold`` — write the same ``start``/``finish``/``shed``/``instance``
columns, bit for bit.  This module turns those
columns (plus the few control-side facts a governed run's
:class:`~repro.obs.governor.ControlLog` recorded at its ticks) into the
trace spans and the metrics timeline *after* the engine drained, so
observing a run never changes how it executes.

Reconstruction rules (the engine's event semantics, exactly):

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
  has happened — arrivals and instance events at ``t`` precede the
  tick (it sorts last at its instant), and a governor action at ``t``
  applies to launches after ``t``.

The metrics timeline is one function of the sample times (a governed
run's logged ticks, else the grid ``t += window``): counters at every
retained time by one ``np.searchsorted`` per column, then
:func:`~repro.obs.metrics.window_samples` — no per-sample sampler.

Admission under priority preemption marks a queued victim shed after
it was enqueued; the columns record only the final verdict, so the
derived telemetry counts such a victim as shed at its arrival (and
never queued), consistent with the report's ``shed_requests``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..serve.arena import RequestArena
from ..serve.engine import _EPS
from . import trace
from .metrics import _DRIFT, MAX_SAMPLES, window_samples

__all__ = ["MAX_GRID", "Schedule", "trace_events", "timeline"]

_INF = float("inf")

#: Most sample times an ungoverned timeline derives: a finer window is
#: rejected up front instead of sampling for ever.
MAX_GRID = 1_000_000


class Schedule:
    """The batches of one drained stream and each instance's busy and
    energy fold.

    Batch arrays (``inst``, ``start``, ``size``, ``model``, ``service``,
    ``first``) are sorted by ``(instance, start)``; ``rows`` lists the
    started rows in that order, so batch ``b``'s members are
    ``rows[first[b]:first[b] + size[b]]``.  ``fold[j]`` is instance
    ``j``'s ``(times, busy, energy)`` cumulative fold.
    """

    def __init__(self, arena: RequestArena, fleet, initial, log) -> None:
        started = np.flatnonzero(arena.start >= 0.0)
        order = np.lexsort(
            (started, arena.start[started], arena.instance[started])
        )
        rows = started[order]
        inst = arena.instance[rows]
        start = arena.start[rows]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (inst[1:] != inst[:-1]) | (start[1:] != start[:-1])
        first = np.flatnonzero(new)
        self.rows = rows
        self.first = first
        self.size = np.diff(np.append(first, len(rows)))
        self.inst = inst[first]
        self.start = start[first]
        # The service profile is gathered at batch heads only.
        head_model = arena.model_idx[rows[first]]
        self.model = np.array(arena.model_names, dtype=object)[head_model]
        per = arena.per_image[head_model]
        setup = arena.setup[head_model]
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


def trace_events(pid: int, arena: RequestArena, sched: Schedule, ids):
    """The stream's trace events as ``(ts_us, texts)`` in list order:
    shed instants, then each batch span followed by its members'
    request spans (stream order), batches in ``ids`` (launch) order.

    Each kind is one :mod:`~repro.obs.trace` template filled from the
    arena columns; names come from per-table encodings indexed by
    ``model_idx``/``class_idx``.
    """
    model = trace.encoded(arena.model_names)
    # class_idx -1 (no SLO class) picks the trailing "".
    slo = trace.encoded((*arena.slo_names, ""))
    shed = np.flatnonzero(arena.shed)
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

    shed_ts = trace.Number(arena.arrival[shed] * 1e6, 3)
    ts[:n_shed] = shed_ts.values
    texts[:n_shed] = trace.fill(
        trace.SHED,
        shed_ts,
        np.full(n_shed, pid),
        arena.instance[shed],
        model[arena.model_idx[shed]],
        slo[arena.class_idx[shed]],
    )

    # Batch b sits after the sheds, the b batches before it and their
    # members; each member after its own batch.
    at = n_shed + offsets + np.arange(n_batch)
    start = sched.start[order]
    batch_ts = trace.Number(start * 1e6, 3)
    ts[at] = batch_ts.values
    texts[at] = trace.fill(
        trace.BATCH,
        trace.encoded([f"batch:{name}" for name in arena.model_names])[
            arena.model_idx[members[offsets]]
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
    arrival = arena.arrival[members]
    finish = arena.finish[members]
    deadline = arena.deadline[members]
    request_ts = trace.Number(arrival * 1e6, 3)
    ts[at] = request_ts.values
    fields = (
        model[arena.model_idx[members]],
        request_ts,
        trace.Number((finish - arrival) * 1e6, 3),
        np.full(n_req, pid),
        arena.instance[members],
        np.repeat(ids[order], size),
        slo[arena.class_idx[members]],
        trace.Number((arena.start[members] - arrival) * 1e3, 6),
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


def _at(times: np.ndarray, values: np.ndarray, t: np.ndarray):
    """``values`` of the last of ``times`` at or before each ``t``
    (``0.0`` before the first)."""
    return np.concatenate(([0.0], values))[
        np.searchsorted(times, t, "right")
    ]


def timeline(
    arena: RequestArena,
    sched: Schedule,
    window_s: float,
    active: int,
    log,
) -> dict:
    """The fleet's metrics timeline payload, sampled where the live
    loop sampled it: at a governed run's recorded sample ticks, else on
    the metrics-cadence grid ``t += window_s`` that runs until no
    arrival, queued request, or in-flight batch remains.  Counters are
    read off the columns at every retained sample time at once."""
    K = len(sched.fold)
    arrival = arena.arrival
    admitted = ~arena.shed
    queued_from = [
        arrival[admitted & (arena.instance == j)] for j in range(K)
    ]
    # Started rows are sorted by (instance, start): per-instance
    # slices of their starts, and of the batches, are sorted in time.
    row_start = arena.start[sched.rows]
    row_bounds = np.searchsorted(
        arena.instance[sched.rows], np.arange(K + 1)
    ).tolist()
    member_starts = [
        row_start[row_bounds[j]:row_bounds[j + 1]] for j in range(K)
    ]

    def depth(t: np.ndarray) -> np.ndarray:
        return np.stack([
            np.searchsorted(q, t, "right") - np.searchsorted(m, t, "right")
            for q, m in zip(queued_from, member_starts)
        ], axis=1)

    forecast = None
    if log is not None:
        times = np.array([s[0] for s in log.samples], dtype=np.float64)
        active = np.array([s[1] for s in log.samples], dtype=np.int64)
        forecast = [s[2] for s in log.samples]
    else:
        times = _grid(arena, sched, window_s, depth)
    # The newest MAX_SAMPLES samples, led by the one before them (or
    # by zero counters at t = 0).
    first = max(len(times) - MAX_SAMPLES, 0)
    t = np.concatenate(
        ([times[first - 1] if first else 0.0], times[first:])
    )
    offered = np.searchsorted(arrival, t, "right")
    counters = {
        "offered": offered,
        "shed": np.concatenate(([0], np.cumsum(arena.shed)))[offered],
        "served": np.searchsorted(np.sort(row_start), t, "right"),
        "batches": np.searchsorted(np.sort(sched.start), t, "right"),
        "energy": np.zeros(len(t)),
        "busy": np.empty((len(t), K)),
    }
    for j, (fold_t, busy, energy) in enumerate(sched.fold):
        # The live sum over instances, as the same left fold.
        counters["energy"] = counters["energy"] + _at(fold_t, energy, t)
        counters["busy"][:, j] = _at(fold_t, busy, t)
    if not first:
        for values in counters.values():
            values[0] = 0
    return {
        "window_s": window_s,
        "samples": window_samples(
            t,
            counters,
            depth(t[1:]),
            active if log is None else active[first:],
            forecast and forecast[first:],
        ),
        "dropped_samples": first,
    }


def _grid(arena, sched, window_s: float, depth) -> np.ndarray:
    """An ungoverned run's sample times ``t += window_s`` (sequential
    adds) through the first with no arrival to come, no request queued
    and no batch in flight.  A window needing over :data:`MAX_GRID`
    samples, or within the drift tolerance of a boundary (where the
    live sampler skipped grid times), is rejected before any is built.
    """
    finish = sched.start + sched.service
    last_arrival = float(arena.arrival[-1]) if len(arena) else -_INF
    horizon = max(last_arrival, finish.max(initial=0.0))
    smallest = max(horizon / MAX_GRID, 2 * _DRIFT)
    if window_s < smallest:
        digits = 10.0 ** (np.floor(np.log10(smallest)) - 2)
        raise ConfigError(
            f"metrics window {window_s:g} s is too fine for this "
            f"{horizon:.6g} s run (at most {MAX_GRID} samples): use a "
            f"window of at least "
            f"{np.ceil(smallest / digits) * digits:.3g} s"
        )
    bounds = sched.bounds.tolist()
    busy_end = [
        (sched.start[lo:hi], finish[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    step = np.full(MAX_SAMPLES, window_s)
    blocks = [np.zeros(1)]
    while True:
        block = np.cumsum(np.concatenate((blocks[-1][-1:], step)))[1:]
        running = (last_arrival > block) | depth(block).any(axis=1)
        for starts, ends in busy_end:
            running |= _at(starts, ends, block) > block + _EPS
        stop = np.flatnonzero(~running)
        if len(stop):
            blocks.append(block[:stop[0] + 1])
            return np.concatenate(blocks[1:])
        blocks.append(block)
