"""The one arena builder for tests that hand-craft request streams.

Engines, hooks, and summaries take :class:`RequestArena` streams only,
so a hand-built request is a row of an arena: ``arena_of(...)[i]`` is
the view of row ``i``, and its ``index`` is ``i``.
"""

from repro.serve.arena import RequestArena

_COLUMNS = ("arrival", "start", "finish", "priority", "deadline", "shed")


def arena_of(*rows: dict) -> RequestArena:
    """An arena whose row ``i`` holds ``rows[i]``.

    Each row is a dict with ``model`` and ``profile`` plus any of
    ``arrival``, ``start``, ``finish``, ``slo``, ``priority``,
    ``deadline`` and ``shed``; omitted columns keep the arena defaults
    (unserved, no deadline, no SLO class).  Models and SLO classes are
    interned in first-seen order.
    """
    profiles: dict = {}
    classes: dict = {}
    for row in rows:
        profiles.setdefault(row["model"], row["profile"])
        if row.get("slo"):
            classes.setdefault(row["slo"], len(classes))
    arena = RequestArena(
        len(rows), tuple(profiles), tuple(profiles.values()),
        tuple(classes),
    )
    models = list(profiles)
    for i, row in enumerate(rows):
        arena.model_idx[i] = models.index(row["model"])
        if row.get("slo"):
            arena.class_idx[i] = classes[row["slo"]]
        for name in _COLUMNS:
            if name in row:
                getattr(arena, name)[i] = row[name]
    return arena
