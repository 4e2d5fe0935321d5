"""Properties of :meth:`RequestArena.merge`, the multi-fleet spill-in
merge: a receiver's home arena plus rows forwarded from donor arenas.

Generated streams use a coarse arrival grid (so equal arrivals across
home and donor rows are common), donor SLO classes the receiver does
not define, and a unique deadline per source row — which doubles as a
row identity for checking where outcomes land.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.serve.arena import RequestArena
from repro.serve.profile import build_mix

PROFILES = {p.name: p for p in build_mix("mixed").profiles}
CLASSES = ("interactive", "standard", "batch", "foreign-a", "foreign-b")


@st.composite
def _arena(draw, models, classes, size):
    """An arrival-ordered arena over ``models``/``classes`` (ordered
    subsets of the pools) with ``size`` rows."""
    arena = RequestArena(
        size,
        tuple(models),
        tuple(PROFILES[name] for name in models),
        tuple(classes),
    )
    ticks = sorted(draw(st.lists(st.integers(0, 12), min_size=size,
                                 max_size=size)))
    arena.arrival[:] = np.asarray(ticks, dtype=np.float64) * 1e-3
    arena.model_idx[:] = draw(
        st.lists(st.integers(0, len(models) - 1), min_size=size,
                 max_size=size)
    )
    arena.class_idx[:] = draw(
        st.lists(st.integers(0, len(classes) - 1), min_size=size,
                 max_size=size)
    )
    arena.priority[:] = draw(
        st.lists(st.integers(0, 2), min_size=size, max_size=size)
    )
    return arena


@st.composite
def _merge_case(draw):
    home_models = draw(
        st.lists(st.sampled_from(sorted(PROFILES)), min_size=1,
                 unique=True)
    )
    home_classes = draw(
        st.lists(st.sampled_from(CLASSES[:3]), min_size=1, unique=True)
    )
    home = draw(_arena(home_models, home_classes, draw(st.integers(0, 20))))
    donors = []
    for _ in range(draw(st.integers(1, 3))):
        # Donors may run models the receiver does not serve; only rows
        # of served models are forwarded (the exchange's rule).
        models = draw(
            st.lists(st.sampled_from(sorted(PROFILES)), min_size=1,
                     unique=True)
        )
        classes = draw(
            st.lists(st.sampled_from(CLASSES), min_size=1, unique=True)
        )
        arena = draw(_arena(models, classes, draw(st.integers(1, 20))))
        servable = [
            row for row in range(len(arena))
            if arena.model_names[arena.model_idx[row]] in home_models
        ]
        rows = sorted(
            draw(st.lists(st.sampled_from(servable), unique=True))
            if servable else []
        )
        donors.append((arena, rows))
    # Unique deadlines: a per-source-row identity.
    ident = 1.0
    for arena in (home, *(arena for arena, _ in donors)):
        arena.deadline[:] = ident + np.arange(len(arena))
        ident += len(arena) + 1
    hop_s = draw(st.sampled_from([0.0, 1e-3, 5e-4]))
    return home, donors, hop_s


def _sources(home, donors, hop_s):
    """``(view, expected arrival, is_home)`` per source row, in the
    merge's source order."""
    sources = [(view, view.arrival, True) for view in home]
    for arena, rows in donors:
        for row in rows:
            view = arena.view(row)
            sources.append((view, view.arrival + hop_s, False))
    return sources


@settings(max_examples=150, deadline=None)
@given(_merge_case())
def test_sort_is_stable_home_first(case):
    home, donors, hop_s = case
    merged, where = home.merge(donors, hop_s)
    sources = _sources(home, donors, hop_s)
    assert len(merged) == len(sources)
    assert sorted(where.tolist()) == list(range(len(sources)))
    assert np.all(np.diff(merged.arrival) >= 0.0)
    for s, (_, arrival_s, home_s) in enumerate(sources):
        for t in range(s + 1, len(sources)):
            if sources[t][1] == arrival_s:
                # Stable: source order survives at equal arrivals, and
                # home rows precede every donor row.
                assert where[s] < where[t]
                if not home_s:
                    assert not sources[t][2]


@settings(max_examples=150, deadline=None)
@given(_merge_case())
def test_rows_read_their_source_values(case):
    home, donors, hop_s = case
    merged, where = home.merge(donors, hop_s)
    assert merged.profiles is home.profiles
    assert merged.slo_names[:len(home.slo_names)] == home.slo_names
    forwarded_classes = [
        arena.view(row).slo for arena, rows in donors for row in rows
    ]
    foreign = [
        name for name in dict.fromkeys(forwarded_classes)
        if name not in home.slo_names
    ]
    assert list(merged.slo_names[len(home.slo_names):]) == foreign
    for s, (source, arrival, _) in enumerate(_sources(home, donors, hop_s)):
        row = merged.view(int(where[s]))
        assert row.arrival == arrival
        assert row.model == source.model
        assert row.profile is source.profile
        assert row.slo == source.slo
        assert row.priority == source.priority
        assert row.deadline == source.deadline
        # Fresh outcome columns: nothing served, shed, or routed yet.
        assert (row.start, row.finish, row.shed, row.instance) == (
            -1.0, -1.0, False, -1
        )


@settings(max_examples=150, deadline=None)
@given(_merge_case())
def test_outcomes_copy_back_to_their_rows(case):
    home, donors, hop_s = case
    merged, where = home.merge(donors, hop_s)
    # A drained-run stand-in: each merged row "finishes" at its own
    # deadline (unique per source row) and is shed by a row pattern.
    merged.finish[:] = merged.deadline
    merged.shed[:] = np.arange(len(merged)) % 3 == 0
    n = len(home)
    home.finish[:] = merged.finish[where[:n]]
    home.shed[:] = merged.shed[where[:n]]
    assert np.array_equal(home.finish, home.deadline)
    assert np.array_equal(home.shed, where[:n] % 3 == 0)
    spilled_finish = merged.finish[where[n:]]
    donor_deadlines = [
        arena.deadline[row] for arena, rows in donors for row in rows
    ]
    assert spilled_finish.tolist() == donor_deadlines
