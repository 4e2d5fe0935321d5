"""Generated differential for the round-robin kernel ``_rr_feed``.

The scenarios are built to make the kernel's split repair (stage 3)
fire often. The batching timeout sits near each instance's own
inter-arrival gap, so idle instances launch partial batches. There are
1-3 models with random setups, so model switches cut the canonical
runs. Timestamps, timeouts and service times mostly share a dyadic
grid, so arrivals, wake deadlines and completions tie exactly, as they
do in a trace recorded at millisecond resolution. Traces with tied
timestamps are drawn too, including at zero wait.

Three properties are checked:

* a round-robin run dispatched to ``"rr"`` writes the same ``start``
  and ``finish`` columns, and the same fleet counters, as the general
  loop of ``tests/general_loop.py`` (``force_general``);
* one ``final=True`` feed of an instance's stream gives the same
  per-member starts and finishes, batches and carried state as the
  same stream fed in random pieces with ``final=False``, each seeing
  the next piece ahead, the way the streaming mode feeds it chunk by
  chunk;
* the streaming mode, fed a millisecond-resolution trace in small
  chunks, serves every request when the exact ``"rr"`` run of the same
  trace and model draws serves it.
"""

import numpy as np
from general_loop import force_general
from hypothesis import given, settings, strategies as st

from repro.serve import Engine, Fleet, ServingScenario, make_policy
from repro.serve.arena import RequestArena
from repro.serve.arrival import TraceArrivals
from repro.serve.engine import (
    _rr_feed,
    build_requests,
    run_streaming_round_robin,
)
from repro.serve.profile import ServiceProfile, build_mix
from repro.serve.simulator import _serve_inputs

#: Grid step of the dyadic timestamps (2**-12 s, about 0.24 ms): sums
#: of grid values are exact, so ties between arrivals, wake deadlines
#: and completions really occur.
_UNIT = 2.0**-12


@st.composite
def scenarios(draw):
    instances = draw(st.integers(1, 4), label="instances")
    nmodels = draw(st.integers(1, 3), label="models")
    max_batch = draw(st.integers(1, 8), label="max_batch")
    n = draw(st.integers(1, 300), label="requests")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    # "dyadic": times are multiples of 2**-12 s, whose sums are exact,
    # so launches tie exactly with arrivals; "decimal": multiples of
    # 0.1 ms rounded like a trace file's timestamps, so a deadline can
    # sit an ulp off an arrival; "continuous": exponential gaps.
    grid = draw(st.sampled_from(["dyadic", "decimal", "continuous"]),
                label="grid")
    tie_share = draw(st.sampled_from([0.0, 0.2, 0.6]), label="ties")
    rng = np.random.default_rng(seed)
    unit = 1e-4 if grid == "decimal" else _UNIT
    # Service times in units: per image 1-8, setup 0-6.
    per_units = rng.integers(1, 9, nmodels)
    setup_units = rng.integers(0, 7, nmodels)
    profiles = tuple(
        ServiceProfile(
            f"m{i}",
            (int(per_units[i]),),
            int(setup_units[i]),
            clock_hz=1 / unit,
            weight_bandwidth=1 / unit,
        )
        for i in range(nmodels)
    )
    # Offered load around one per instance: the mean arrival gap is
    # one service time over the fleet, scaled by 1/rho.
    rho = draw(st.sampled_from([0.4, 0.8, 1.0, 1.3]), label="rho")
    gap = float(per_units.mean()) / instances / rho
    if grid == "continuous":
        steps = rng.exponential(gap * unit, n)
        steps[rng.random(n) < tie_share] = 0.0
        times = np.cumsum(steps)
    else:
        steps = rng.integers(0, max(1, round(2 * gap)) + 1, n)
        steps[rng.random(n) < tie_share] = 0
        times = np.cumsum(steps) * unit
        if grid == "decimal":
            times = np.round(times, 4)
    # The timeout: zero, or near one instance's gap (instances * gap).
    wait_scale = draw(
        st.sampled_from([0.0, 0.5, 0.9, 1.0, 1.1, 2.0]), label="wait"
    )
    max_wait = round(wait_scale * instances * gap) * unit
    arena = RequestArena(n, tuple(p.name for p in profiles), profiles)
    arena.arrival[:] = times
    arena.model_idx[:] = rng.integers(0, nmodels, n)
    # Runs of one model make canonical batches fill.
    run_share = draw(st.sampled_from([0.0, 0.5, 0.9]), label="runs")
    repeat = rng.random(n) < run_share
    for i in np.flatnonzero(repeat[1:]) + 1:
        arena.model_idx[i] = arena.model_idx[i - 1]
    return arena, instances, max_batch, max_wait


def _copy(arena):
    twin = RequestArena(len(arena), arena.model_names, arena.profiles)
    twin.arrival[:] = arena.arrival
    twin.model_idx[:] = arena.model_idx
    return twin


def _drain(arena, instances, max_batch, max_wait):
    policy = make_policy("round-robin")
    policy.reset()
    engine = Engine(
        Fleet(instances), policy, max_batch=max_batch, max_wait_s=max_wait
    )
    run = engine.run(arena)
    return run, engine.fleet


@given(case=scenarios())
@settings(max_examples=200, deadline=None)
def test_rr_dispatch_matches_general_loop(case):
    arena, instances, max_batch, max_wait = case
    twin = _copy(arena)
    run, fleet = _drain(arena, instances, max_batch, max_wait)
    with force_general():
        general, general_fleet = _drain(twin, instances, max_batch, max_wait)
    assert general.dispatch == "general"
    arrival = arena.arrival
    if max_wait > 0.0 or bool(np.all(arrival[1:] > arrival[:-1])):
        assert run.dispatch == "rr"
    else:
        # Zero wait over tied timestamps is the fold's.
        assert run.dispatch == "fold"
    assert arena.start.tobytes() == twin.start.tobytes()
    assert arena.finish.tobytes() == twin.finish.tobytes()
    assert arena.instance.tobytes() == twin.instance.tobytes()
    for field in ("busy_until", "loaded_model", "served", "batches",
                  "setups"):
        assert getattr(fleet, field) == getattr(general_fleet, field), field


@given(case=scenarios(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_final_feed_matches_piecewise_feeds(case, data):
    arena, instances, max_batch, max_wait = case
    j = data.draw(st.integers(0, instances - 1), label="instance")
    a = np.ascontiguousarray(arena.arrival[j::instances])
    m = np.ascontiguousarray(arena.model_idx[j::instances])
    tables = (arena.per_image, arena.setup, max_batch, max_wait)
    whole = _rr_feed(a, m, *tables, 0.0, -1, True)

    every = data.draw(st.sampled_from([0, 1, 2, 5]), label="every")
    if every:
        # Dense cuts: the next piece rarely covers a deadline.
        cuts = list(range(every, len(a), every))
    else:
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, len(a)), max_size=6), label="cuts"
            )
        )
    F, loaded = 0.0, -1
    pending = 0  # first position not yet consumed
    parts = []
    bounds = cuts + [len(a)]
    for i, hi in enumerate(bounds):
        final = i == len(bounds) - 1
        if hi <= pending and not final:
            continue
        # Like the streaming mode: the next piece is known ahead, and
        # anything after it comes at or after its last arrival.
        nxt = bounds[i + 1] if not final else hi
        if nxt < len(a):
            unknown_from = a[nxt - 1] if nxt else -np.inf
        else:
            unknown_from = np.inf
        (consumed, starts, fins, L_arr, svc, k, setups, nb, F,
         loaded) = _rr_feed(a[pending:hi], m[pending:hi], *tables, F,
                            loaded, final, a[hi:nxt], unknown_from)
        parts.append((starts, fins, L_arr, svc, k, setups, nb))
        pending += consumed
    assert pending == len(a) == whole[0]
    for x, name in enumerate(("starts", "fins", "L", "svc", "k")):
        pieced = np.concatenate([p[x] for p in parts])
        assert pieced.dtype == whole[x + 1].dtype, name
        assert pieced.tobytes() == whole[x + 1].tobytes(), name
    assert sum(p[5] for p in parts) == whole[6]
    assert sum(p[6] for p in parts) == whole[7]
    assert (F, loaded) == (whole[8], whole[9])


def test_streaming_tail_repair_is_consumed():
    """A split repair that runs past a feed's first deferred canonical
    batch and ends exactly at the feed's last position consumes that
    position: the feed returns as many starts as positions it consumed
    (the streaming mode used to raise a broadcasting ``ValueError``
    there, e.g. ``repro serve --policy round-robin --stats sketch
    --requests 400000 --max-wait-ms 0.5 --max-batch 2 --seed 1``)."""
    scenario = ServingScenario(
        requests=5000, seed=0, policy="round-robin", stats="sketch",
        max_batch=2, max_wait_ms=1.0,
    )
    mix, _, _, arrivals, n, rng = _serve_inputs(scenario)
    fleet = Fleet(scenario.instances)
    stream = run_streaming_round_robin(
        fleet, mix, arrivals, n, rng, max_batch=2, max_wait_s=1e-3,
        chunk=64,
    )
    assert stream.completed == n == sum(fleet.served)


@given(
    instances=st.integers(1, 4),
    max_batch=st.integers(1, 8),
    wait_tenths=st.integers(1, 40),
    chunk=st.sampled_from([16, 64, 256]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_streaming_matches_exact_rr_on_a_trace(
    instances, max_batch, wait_tenths, chunk, seed
):
    # Timestamps at 0.1 ms resolution, like a recorded trace file:
    # deadlines land on (or an ulp off) arrivals, also across chunks.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(200, 3000))
    gaps = rng.integers(0, 8, n) * 1e-4
    trace = tuple(np.round(np.cumsum(gaps), 4).tolist())
    mix = build_mix("mixed")
    max_wait = wait_tenths * 1e-4
    fleet = Fleet(instances)
    stream = run_streaming_round_robin(
        fleet, mix, TraceArrivals(trace), n, np.random.default_rng(seed),
        max_batch=max_batch, max_wait_s=max_wait, chunk=chunk,
    )
    # A trace draws nothing, so both runs draw the same models.
    arena = build_requests(mix, np.array(trace), np.random.default_rng(seed))
    run, exact_fleet = _drain(arena, instances, max_batch, max_wait)
    assert run.dispatch == "rr"
    for field in ("busy_until", "loaded_model", "served", "batches",
                  "setups"):
        assert getattr(fleet, field) == getattr(exact_fleet, field), field
    # Below the digest's buffer every latency is still held.
    held = np.sort(np.concatenate(stream.latency_sketch.digest._buffer))
    exact = np.sort(arena.finish - arena.arrival)
    assert held.tobytes() == exact.tobytes()


def _arena_at(times, models=None):
    profile = build_mix("mixed").profiles[1]
    names = ("a", "b")
    profiles = (profile, profile)
    arena = RequestArena(len(times), names, profiles)
    arena.arrival[:] = times
    if models is not None:
        arena.model_idx[:] = models
    return arena


def test_full_batch_member_near_deadline_launches_it():
    """A member ``1e-13`` s inside its head's deadline window launches
    the batch on arrival (the event loops' ``_EPS`` rule), before the
    member that would have filled it."""
    deadline = 1e-3
    times = [0.0, deadline - 5e-13, deadline - 2e-13]
    arena = _arena_at(times)
    twin = _copy(arena)
    run, _ = _drain(arena, 1, 3, deadline)
    with force_general():
        _drain(twin, 1, 3, deadline)
    assert run.dispatch == "rr"
    assert arena.start.tolist() == twin.start.tolist()
    assert arena.start[0] == arena.start[1] == times[1] < arena.start[2]


def test_deadline_past_unknown_arrivals_is_deferred():
    """A streaming feed defers a batch whose deadline lies past the
    arrivals it knows of, and launches it at a known arrival inside
    the deadline window."""
    # Row 0 waits for its deadline 1e-3; row 1 (another model) closes
    # its run; row 2 arrives just inside the deadline window.
    arena = _arena_at([0.0, 2e-4, 1e-3 - 5e-13], [0, 1, 0])
    a, m = arena.arrival, arena.model_idx
    tables = (arena.per_image, arena.setup, 2, 1e-3)
    deferred = _rr_feed(a[:2], m[:2], *tables, 0.0, -1, False,
                        a[2:2], 5e-4)
    assert deferred[0] == 0
    known = _rr_feed(a[:2], m[:2], *tables, 0.0, -1, False, a[2:], np.inf)
    assert known[0] == 1
    assert known[1].tolist() == [a[2]]
