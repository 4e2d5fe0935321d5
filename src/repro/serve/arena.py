"""Columnar request storage: one arena of numpy columns per run.

PR 4's engine allocated one Python ``Request`` object per request —
fine at 10^4 requests, ruinous at 10^6 (a day-long diurnal trace at
production QPS).  This module stores the whole request stream as a
:class:`RequestArena` of parallel numpy columns (arrival, start,
finish, deadline, priority, class/model ids, shed flags, routed
instance) plus small interned side tables (model names, service
profiles, SLO class names), so per-request state is 8-byte column slots instead of ~400-byte
Python objects and the engine's fast paths can process it with
vectorized kernels.

The object API did not go away: :class:`Request` is now a *view* — a
two-slot proxy holding ``(arena, i)`` whose attribute reads and writes
go straight through to the columns.  Hooks (shedding, governors)
receive views and mutate ``request.shed`` / read ``request.deadline``
as before.  There is no free-standing request: every view belongs to
an arena, and its ``index`` *is* its row ``i``.  Multi-fleet spillover
forwards donor rows as rows too — :meth:`RequestArena.merge` folds
them into the receiver's home arena as one arrival-ordered stream.

Invariants:

* A view *writes through*: mutating a view mutates its arena, and
  every view of the same row observes the write.
* :meth:`RequestArena.build` is RNG-draw-identical to the object-era
  ``build_requests`` loop: same uniform block, same inverse-CDF
  boundaries, same model-then-class interleave — fixed seeds reproduce
  the PR-4 streams bit-for-bit (pinned by
  ``tests/serve/test_engine_parity.py``).
* Getters return plain Python scalars (``float``/``int``/``bool``),
  never numpy scalars, so identity checks (``request.shed is False``)
  and JSON serialization behave exactly as the dataclass era did.
"""

from __future__ import annotations

import numpy as np

from .profile import ScenarioMix, ServiceProfile

__all__ = ["Request", "RequestArena"]

_INF = float("inf")


class RequestArena:
    """Column store for one request stream.

    Columns (length ``n``, one slot per request):

    ``arrival``/``start``/``finish``/``deadline``
        float64 timestamps; ``start``/``finish`` are ``-1.0`` until
        served, ``deadline`` is ``inf`` without an SLO class.
    ``priority``/``model_idx``/``class_idx``
        int64; ``model_idx`` indexes the side tables, ``class_idx`` is
        ``-1`` for requests outside the control plane (``slo == ""``).
    ``shed``
        bool; set by admission hooks through views.
    ``instance``
        int64; the fleet index the request was routed to (admitted or
        shed there), ``-1`` until the engine routes it.  Every
        execution path writes it, so telemetry can be derived from the
        drained columns.

    Side tables (length = distinct models / classes, shared by every
    row): ``model_names``, ``profiles``, ``per_image``, ``setup``,
    ``slo_names``.
    """

    __slots__ = (
        "arrival",
        "start",
        "finish",
        "deadline",
        "priority",
        "model_idx",
        "class_idx",
        "shed",
        "instance",
        "model_names",
        "profiles",
        "per_image",
        "setup",
        "slo_names",
    )

    def __init__(
        self,
        n: int,
        model_names: tuple[str, ...],
        profiles: tuple[ServiceProfile, ...],
        slo_names: tuple[str, ...] = (),
    ) -> None:
        self.arrival = np.zeros(n, dtype=np.float64)
        self.start = np.full(n, -1.0, dtype=np.float64)
        self.finish = np.full(n, -1.0, dtype=np.float64)
        self.deadline = np.full(n, _INF, dtype=np.float64)
        self.priority = np.zeros(n, dtype=np.int64)
        self.model_idx = np.zeros(n, dtype=np.int64)
        self.class_idx = np.full(n, -1, dtype=np.int64)
        self.shed = np.zeros(n, dtype=bool)
        self.instance = np.full(n, -1, dtype=np.int64)
        self.model_names = model_names
        self.profiles = profiles
        # A None profile is legal for summary-only request streams
        # (the dataclass era never enforced one either); such rows can
        # not reach the engine's fast paths, which read these tables.
        self.per_image = np.array(
            [0.0 if p is None else p.per_image_seconds for p in profiles],
            dtype=np.float64,
        )
        self.setup = np.array(
            [0.0 if p is None else p.setup_seconds for p in profiles],
            dtype=np.float64,
        )
        self.slo_names = slo_names

    @classmethod
    def build(
        cls,
        mix: ScenarioMix,
        times: np.ndarray,
        rng: np.random.Generator,
        slo_classes: tuple | None = None,
    ) -> "RequestArena":
        """Vectorized request-stream construction (columns, no loop).

        Consumes the RNG exactly like the object-era builder: one
        ``rng.random(n)`` block for model draws, or one
        ``rng.random(2 * n)`` block interleaving model-then-class
        draws when ``slo_classes`` is given.
        """
        n = len(times)
        weights = np.asarray(mix.weights, dtype=np.float64)
        cum_weights = np.cumsum(weights)
        if slo_classes is None:
            u_model = rng.random(n)
            u_class = None
        else:
            u = rng.random(2 * n)
            u_model = u[0::2]
            u_class = u[1::2]
        model_idx = np.minimum(
            np.searchsorted(
                cum_weights, u_model * cum_weights[-1], side="right"
            ),
            len(cum_weights) - 1,
        ).astype(np.int64)

        slo_names = (
            tuple(c.name for c in slo_classes) if slo_classes else ()
        )
        arena = cls(
            n,
            model_names=tuple(p.name for p in mix.profiles),
            profiles=tuple(mix.profiles),
            slo_names=slo_names,
        )
        arena.arrival[:] = times
        arena.model_idx[:] = model_idx

        if slo_classes is None:
            return arena

        if any(getattr(c, "model", None) for c in slo_classes):
            pools = _class_pools(mix, slo_classes)
            class_arr = np.empty(n, dtype=np.int64)
            for position, profile in enumerate(mix.profiles):
                members, cum = pools[profile.name]
                mask = model_idx == position
                if not mask.any():
                    continue
                drawn = np.minimum(
                    np.searchsorted(
                        cum, u_class[mask] * cum[-1], side="right"
                    ),
                    len(members) - 1,
                )
                class_arr[mask] = np.asarray(members)[drawn]
        else:
            shares = np.asarray(
                [c.share for c in slo_classes], dtype=np.float64
            )
            cum_shares = np.cumsum(shares)
            class_arr = np.minimum(
                np.searchsorted(
                    cum_shares, u_class * cum_shares[-1], side="right"
                ),
                len(cum_shares) - 1,
            ).astype(np.int64)
        arena.class_idx[:] = class_arr
        arena.priority[:] = np.asarray(
            [c.priority for c in slo_classes], dtype=np.int64
        )[class_arr]
        # Same float op as the scalar era: arrival + cls.deadline_s.
        arena.deadline[:] = arena.arrival + np.asarray(
            [c.deadline_s for c in slo_classes], dtype=np.float64
        )[class_arr]
        return arena

    def __len__(self) -> int:
        return len(self.arrival)

    def view(self, i: int) -> "Request":
        """A write-through view of row ``i`` (no bounds translation)."""
        request = Request.__new__(Request)
        request.arena = self
        request.i = i
        return request

    def __getitem__(self, i: int) -> "Request":
        n = len(self.arrival)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        return self.view(i)

    def __iter__(self):
        for i in range(len(self.arrival)):
            yield self.view(i)

    def shed_indices(self) -> list:
        """Row indices of shed requests, ascending — after a drain, the
        rows a multi-fleet donor forwards (priority preemption sheds a
        queued victim after its arrival, so only the drained column is
        complete)."""
        return np.flatnonzero(self.shed).tolist()

    def merge(
        self, donors, hop_s: float
    ) -> tuple["RequestArena", np.ndarray]:
        """This arena plus rows forwarded from other arenas, as one
        arrival-ordered stream with fresh outcome columns.

        ``donors`` lists ``(arena, rows)`` pairs in forwarding order.
        Each donor row arrives ``hop_s`` later than at its source and
        keeps its priority and deadline; its model and SLO class are
        re-pointed at this arena's side tables by name (a donor class
        this arena lacks is appended to the merged class table, in
        first-forwarded order).  Rows are ordered by a stable arrival
        sort over this arena's rows followed by the donor rows, so
        home rows come first at equal arrivals.

        Returns ``(merged, where)``: ``where[s]`` is the merged row of
        source row ``s``, counting this arena's rows first and then
        the donor rows in the order given, so outcomes copy back as
        ``merged.finish[where]``.
        """
        models = {name: k for k, name in enumerate(self.model_names)}
        classes: dict[str, int] = {}
        for k, name in enumerate(self.slo_names):
            classes.setdefault(name, k)
        slo_names = list(self.slo_names)
        arrival = [self.arrival]
        deadline = [self.deadline]
        priority = [self.priority]
        model_idx = [self.model_idx]
        class_idx = [self.class_idx]
        for arena, rows in donors:
            rows = np.asarray(rows, dtype=np.int64)
            midx = arena.model_idx[rows]
            cidx = arena.class_idx[rows]
            model_map = np.zeros(len(arena.model_names), dtype=np.int64)
            for m in np.unique(midx).tolist():
                model_map[m] = models[arena.model_names[m]]
            # Trailing -1 keeps class-less rows class-less.
            class_map = np.full(len(arena.slo_names) + 1, -1, np.int64)
            for c in dict.fromkeys(cidx.tolist()):
                if c >= 0:
                    name = arena.slo_names[c]
                    if name not in classes:
                        classes[name] = len(slo_names)
                        slo_names.append(name)
                    class_map[c] = classes[name]
            arrival.append(arena.arrival[rows] + hop_s)
            deadline.append(arena.deadline[rows])
            priority.append(arena.priority[rows])
            model_idx.append(model_map[midx])
            class_idx.append(class_map[cidx])
        arrival = np.concatenate(arrival)
        order = np.argsort(arrival, kind="stable")
        merged = RequestArena(
            len(order), self.model_names, self.profiles, tuple(slo_names)
        )
        merged.arrival[:] = arrival[order]
        merged.deadline[:] = np.concatenate(deadline)[order]
        merged.priority[:] = np.concatenate(priority)[order]
        merged.model_idx[:] = np.concatenate(model_idx)[order]
        merged.class_idx[:] = np.concatenate(class_idx)[order]
        where = np.empty_like(order)
        where[order] = np.arange(len(order))
        return merged, where


def _class_pools(mix: ScenarioMix, slo_classes: tuple) -> dict:
    """Per-model class-draw pools for model-bound SLO classes.

    Each mix model maps to ``(class positions, cumulative shares)``:
    the classes bound to it when any are, else the unbound defaults.
    """
    from ..errors import ConfigError

    unbound = [
        i
        for i, c in enumerate(slo_classes)
        if not getattr(c, "model", None)
    ]
    pools: dict[str, tuple[list[int], np.ndarray]] = {}
    for name in mix.model_names:
        members = [
            i
            for i, c in enumerate(slo_classes)
            if getattr(c, "model", None) == name
        ] or unbound
        if not members:
            raise ConfigError(
                f"model {name!r} has no applicable SLO class: every "
                "class is bound to another model — bind one with "
                "model= or add an unbound default class"
            )
        pools[name] = (
            members,
            np.cumsum(
                [slo_classes[i].share for i in members],
                dtype=np.float64,
            ),
        )
    return pools


class Request:
    """A write-through view of one arena row.

    Presents the object-era dataclass API — ``index``, ``model``,
    ``profile``, ``arrival``, ``start``, ``finish``, ``slo``,
    ``priority``, ``deadline``, ``shed`` — over ``(arena, i)``.
    Views come from their arena (``arena[i]``, iteration, or
    :meth:`RequestArena.view`); ``index`` is the row ``i``.

    Equality is identity (the dataclass era's value-``__eq__`` made
    requests unhashable and was never relied on: queue membership
    tests compare the very objects the engine enqueued).
    """

    __slots__ = ("arena", "i")

    # -- identity ----------------------------------------------------
    @property
    def index(self) -> int:
        return self.i

    @property
    def model(self) -> str:
        return self.arena.model_names[self.arena.model_idx[self.i]]

    @property
    def profile(self) -> ServiceProfile:
        return self.arena.profiles[self.arena.model_idx[self.i]]

    @property
    def slo(self) -> str:
        ci = self.arena.class_idx[self.i]
        return "" if ci < 0 else self.arena.slo_names[ci]

    # -- timestamps --------------------------------------------------
    @property
    def arrival(self) -> float:
        return float(self.arena.arrival[self.i])

    @arrival.setter
    def arrival(self, value: float) -> None:
        self.arena.arrival[self.i] = value

    @property
    def start(self) -> float:
        return float(self.arena.start[self.i])

    @start.setter
    def start(self, value: float) -> None:
        self.arena.start[self.i] = value

    @property
    def finish(self) -> float:
        return float(self.arena.finish[self.i])

    @finish.setter
    def finish(self, value: float) -> None:
        self.arena.finish[self.i] = value

    @property
    def deadline(self) -> float:
        return float(self.arena.deadline[self.i])

    @deadline.setter
    def deadline(self, value: float) -> None:
        self.arena.deadline[self.i] = value

    # -- control-plane state -----------------------------------------
    @property
    def priority(self) -> int:
        return int(self.arena.priority[self.i])

    @priority.setter
    def priority(self, value: int) -> None:
        self.arena.priority[self.i] = value

    @property
    def shed(self) -> bool:
        return bool(self.arena.shed[self.i])

    @shed.setter
    def shed(self, value: bool) -> None:
        self.arena.shed[self.i] = value

    @property
    def instance(self) -> int:
        return int(self.arena.instance[self.i])

    @instance.setter
    def instance(self, value: int) -> None:
        self.arena.instance[self.i] = value

    def __repr__(self) -> str:
        return (
            f"Request(index={self.index}, model={self.model!r}, "
            f"arrival={self.arrival}, start={self.start}, "
            f"finish={self.finish}, slo={self.slo!r}, "
            f"priority={self.priority}, deadline={self.deadline}, "
            f"shed={self.shed})"
        )
