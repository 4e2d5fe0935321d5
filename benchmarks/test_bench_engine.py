"""Columnar engine throughput and memory against the PR-4 kernel.

PR 6 replaced the object-per-request event loop with a columnar core:
requests live in a :class:`repro.serve.arena.RequestArena`, and
hook-free runs dispatch to vectorized/specialized fast paths.  This
benchmark pins the two tentpole claims on the 50k-request scenario:

* **>= 10x events/sec over the PR-4 kernel** for the round-robin fast
  path, measured over the whole pipeline (build requests -> drain the
  kernel -> summarize) on identical work.  The PR-4 machinery is
  preserved verbatim in ``benchmarks/_pr4_kernel.py``; both sides are
  timed on the same event population (the PR-4 loop's event count), so
  the ratio is a pure wall-clock speedup on equivalent work.
* **Flat memory in request count** for sketch-mode streaming: peak
  allocation at 4x the requests must stay within 2x (it is dominated
  by the fixed arrival chunk, not the stream length).

Both fast paths must also be *bit-identical* to the PR-4 loop — every
completion timestamp equal as a float64 — so the speedups are proven on
the same physics, not a relaxation of it.

``extra_info`` records events/sec for both kernels, the ratio, and
(via ``conftest.py``) the process's peak RSS.
"""

import sys
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from _pr4_kernel import (
    PR4Engine,
    PR4Fleet,
    pr4_build_requests,
    pr4_summarize,
)
from repro.control import ControlScenario, simulate_controlled
from repro.control.simulator import _control_inputs, prepare_controlled
from repro.control.sweep import static_frontier_sweep
from repro.power.dvfs import DVFSModel
from repro.serve import Fleet, ServingScenario, make_policy, simulate
from repro.serve.engine import Engine, build_requests, summarize_requests
from repro.serve.arrival import make_arrivals
from repro.serve.profile import build_mix

SCENARIO = ServingScenario(requests=50_000, seed=42, max_wait_ms=20.0)

#: Tentpole bar: the columnar round-robin pipeline must reach at least
#: this multiple of the PR-4 pipeline's events/sec.
RR_SPEEDUP_FLOOR = 10.0

#: The least-loaded path cannot vectorize (routing feedback), but its
#: specialized event loop must still clearly beat PR-4.  Typically
#: ~2x; the floor leaves headroom for timer noise on shared runners.
LL_SPEEDUP_FLOOR = 1.8

#: Control-plane bar: the event fold with fused admission
#: (``"fold"``) must reach at least this multiple of the general
#: loop's events/sec on the 50k-request round-robin deadline-shedding
#: scenario.  Measured 3.8-4.6x end to end (2-vCPU Xeon host).  It was
#: 4.7-5.6x while the general loop scanned its priority queues from
#: the tail; that scan is now a bisection, which took a third to a
#: half off the general loop here while the fold got no slower.  The
#: floor leaves headroom for noise.
CTL_SPEEDUP_FLOOR = 3.0

#: Governed bar: with a predictive governor ticking inside the run,
#: the event fold must reach at least this multiple of the general
#: loop's events/sec (kernel time only, same event population) on
#: :data:`GOV_SCENARIO`.  2x is the go/no-go the resumable fold was
#: built against; measured 3.3-3.9x on this and a round-robin
#: utilization-governed shape (2-vCPU Xeon host).
GOV_SPEEDUP_FLOOR = 2.0

#: Priority-shedding bar: least-loaded routing with priority-preemptive
#: shedding, a rule the event fold inlines since the general loop left
#: the package, must reach at least this multiple of the general
#: loop's kernel speed on :data:`PRIO_SCENARIO`.  Measured 3.25x
#: (2-vCPU Xeon host).
PRIO_SPEEDUP_FLOOR = 2.0

#: Kernel-time scaling bar: 4x the requests may cost at most this
#: multiple of the kernel time.  Measured 3.4-5.4x on the shapes of
#: :func:`test_bench_control_kernel_scaling` (2-vCPU Xeon host); the
#: tail-scan queues the bisection replaced grew 8-16x there.
SCALING_CEILING = 8.0

#: Heavy deadline shedding under ~1.5x overload: four instances of
#: the mixed mix sustain ~8k QPS, so at 12k offered roughly half the
#: stream sheds — the admission rule runs on every arrival.
CTL_SCENARIO = ControlScenario(
    requests=50_000,
    qps=12_000.0,
    instances=4,
    policy="round-robin",
    shedding="deadline",
    seed=42,
)


#: A governed diurnal shape: least-loaded routing, deadline shedding,
#: and a predictive governor resizing four instances every 10 ms over
#: two day/night cycles — ticks, warm-ups and drains inside the run.
GOV_SCENARIO = ControlScenario(
    requests=40_000,
    qps=9_000.0,
    instances=4,
    arrival="diurnal",
    diurnal_period_s=2.0,
    shedding="deadline",
    autoscale="predictive",
    seed=42,
)


#: The priority-shedding shape: :data:`CTL_SCENARIO`'s overload under
#: least-loaded routing, the default three SLO classes and a queue
#: bound at which preemption and arrival sheds both happen.
PRIO_SCENARIO = ControlScenario(
    requests=50_000,
    qps=12_000.0,
    instances=4,
    shedding="priority",
    seed=42,
)

#: A deadline-aware routing shape, recorded beside the priority bar.
DEADLINE_AWARE_SCENARIO = ControlScenario(
    requests=50_000,
    qps=12_000.0,
    instances=4,
    policy="deadline-aware",
    shedding="deadline",
    seed=42,
)

# The general loop is the test oracle in tests/general_loop.py.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from general_loop import force_general  # noqa: E402


def _scenario_inputs():
    mix = build_mix(SCENARIO.mix, SCENARIO.config)
    capacity = SCENARIO.instances / mix.mean_service_seconds()
    arrivals = make_arrivals(SCENARIO.arrival, 0.7 * capacity)
    rng = np.random.default_rng(SCENARIO.seed)
    times = arrivals.times(SCENARIO.requests, rng)
    return mix, times


def _model_rng():
    """The post-times RNG state (times are pre-drawn and shared)."""
    rng = np.random.default_rng(SCENARIO.seed)
    rng.exponential(1.0, SCENARIO.requests)
    return rng


def _run_pr4(policy_name, mix, times):
    """The full PR-4 pipeline: build objects, drain, summarize."""
    requests = pr4_build_requests(mix, times, _model_rng())
    fleet = PR4Fleet(SCENARIO.instances)
    policy = make_policy(policy_name)
    policy.reset()
    engine = PR4Engine(
        fleet,
        policy,
        SCENARIO.max_batch,
        SCENARIO.max_wait_ms * 1e-3,
    )
    events = engine.run(requests)
    summary = pr4_summarize(requests)
    return events, requests, summary


def _run_columnar(policy_name, mix, times):
    """The columnar pipeline on the same work."""
    arena = build_requests(mix, times, _model_rng())
    fleet = Fleet(SCENARIO.instances)
    policy = make_policy(policy_name)
    policy.reset()
    engine = Engine(
        fleet,
        policy,
        max_batch=SCENARIO.max_batch,
        max_wait_s=SCENARIO.max_wait_ms * 1e-3,
    )
    run = engine.run(arena)
    summary = summarize_requests(arena)
    return run.events, arena, summary


def _best_seconds(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best


def _speedup_case(policy_name, floor, benchmark):
    mix, times = _scenario_inputs()

    # Identical physics first: every completion equal as a float64.
    pr4_events, pr4_requests, pr4_summary = _run_pr4(
        policy_name, mix, times
    )
    _, arena, summary = _run_columnar(policy_name, mix, times)
    pr4_finish = np.array([r.finish for r in pr4_requests])
    assert np.array_equal(arena.finish, pr4_finish)
    assert np.array_equal(summary.latencies, pr4_summary["latencies"])
    assert summary.model_counts == pr4_summary["model_counts"]

    # Interleaved min-of-N: a load spike across the measurement
    # window biases both sides instead of whichever ran second.
    pr4_s = float("inf")
    col_s = float("inf")
    for _ in range(5):
        pr4_s = min(
            pr4_s,
            _best_seconds(
                lambda: _run_pr4(policy_name, mix, times), repeats=1
            ),
        )
        col_s = min(
            col_s,
            _best_seconds(
                lambda: _run_columnar(policy_name, mix, times),
                repeats=1,
            ),
        )
    # Same event population for both rates (the PR-4 loop's count), so
    # the events/sec ratio is a wall-clock ratio on identical work.
    pr4_eps = pr4_events / pr4_s
    col_eps = pr4_events / col_s
    ratio = col_eps / pr4_eps
    assert ratio >= floor, (
        f"columnar {policy_name} pipeline only {ratio:.1f}x PR-4 "
        f"({col_eps:,.0f} vs {pr4_eps:,.0f} events/sec)"
    )
    benchmark.extra_info["pr4_events"] = pr4_events
    benchmark.extra_info["pr4_events_per_sec"] = round(pr4_eps)
    benchmark.extra_info["columnar_events_per_sec"] = round(col_eps)
    benchmark.extra_info["speedup"] = round(ratio, 1)
    benchmark.pedantic(
        lambda: _run_columnar(policy_name, mix, times), rounds=3
    )


@pytest.mark.benchmark(group="engine")
def test_bench_round_robin_10x_pr4(benchmark):
    """Tentpole bar: >= 10x PR-4 events/sec, bit-identical schedule."""
    _speedup_case("round-robin", RR_SPEEDUP_FLOOR, benchmark)


@pytest.mark.benchmark(group="engine")
def test_bench_least_loaded_vs_pr4(benchmark):
    """The specialized least-loaded loop holds >= 2x PR-4."""
    _speedup_case("least-loaded", LL_SPEEDUP_FLOOR, benchmark)


@pytest.mark.benchmark(group="engine")
def test_bench_sketch_memory_flat(benchmark):
    """Sketch-mode streaming memory is flat in request count.

    Peak tracemalloc at 4x the requests must stay within 2x: resident
    state is the fixed arrival chunk plus bounded digests, never the
    full stream.
    """

    def peak_mib(n):
        scenario = ServingScenario(
            requests=n,
            seed=SCENARIO.seed,
            policy="round-robin",
            stats="sketch",
        )
        tracemalloc.start()
        report = simulate(scenario)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert report.requests == n
        return peak / 2**20

    base = peak_mib(50_000)
    big = peak_mib(200_000)
    assert big < 2.0 * base, (
        f"4x requests grew peak memory {big / base:.2f}x "
        f"({base:.1f} -> {big:.1f} MiB): not flat"
    )
    benchmark.extra_info["peak_mib_50k"] = round(base, 2)
    benchmark.extra_info["peak_mib_200k"] = round(big, 2)
    benchmark.pedantic(lambda: peak_mib(50_000), rounds=1)


#: The chunked streaming mode's recorded shape: 200k requests span
#: four arrival chunks.
STREAM_SCENARIO = ServingScenario(
    requests=200_000, seed=42, policy="round-robin", stats="sketch"
)


@pytest.mark.benchmark(group="engine")
def test_bench_streaming_round_robin(benchmark):
    """Info only, no floor: events/sec of a whole sketch-mode
    round-robin ``simulate`` (arrival chunks, the ``_rr_feed`` kernel
    and the t-digest), best of 3."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        report = simulate(STREAM_SCENARIO)
        best = min(best, time.perf_counter() - t0)
    assert report.engine_dispatch == "streaming"
    benchmark.extra_info["streaming_events"] = report.engine_events
    benchmark.extra_info["streaming_s"] = round(best, 4)
    benchmark.extra_info["streaming_events_per_sec"] = round(
        report.engine_events / best
    )
    benchmark.pedantic(simulate, args=(STREAM_SCENARIO,), rounds=1)


@pytest.mark.benchmark(group="engine")
def test_bench_50k_simulation_wall_clock(benchmark):
    """End-to-end wall-clock of the 50k-request scenario (setup +
    kernel + summary), the number users feel in sweeps."""
    report = benchmark(simulate, SCENARIO)
    assert report.requests == 50_000
    benchmark.extra_info["sustained_qps"] = round(report.sustained_qps, 1)
    benchmark.extra_info["latency_p99_ms"] = round(
        1e3 * report.latency_p99_s, 3
    )


@pytest.mark.benchmark(group="engine")
def test_bench_snapshot_restore_cost(benchmark):
    """Checkpoint cost with ~50k requests in flight.

    An overloaded single-instance fleet is paused just past its last
    arrival, so nearly the whole 50k stream sits queued or batched:
    the worst case a periodic checkpoint serializes.  Measures the
    full round trip — pickling the checkpoint payload (the live
    execution), then unpickling it — and proves the unpickled
    execution drains bit-identically.
    """
    import pickle

    from repro import checkpoint as cp
    from repro.serve.simulator import finalize_serving

    scenario = ServingScenario(
        requests=50_000, seed=42, qps=1_000_000.0, instances=1
    )
    reference = cp.run_serve_checkpointed(scenario)

    execution = cp._begin_serve(scenario)
    execution.engine.run_until(float(execution.requests.arrival[-1]))
    in_flight = sum(
        len(instance.queue) for instance in execution.fleet.instances
    )
    payload = cp._payload("serve", scenario, execution, 1.0, 2.0)

    def serialize():
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    serialize_s = _best_seconds(serialize)
    blob = serialize()
    deserialize_s = _best_seconds(lambda: pickle.loads(blob))

    resumed = pickle.loads(blob)["execution"]
    resumed.engine.run_until(float("inf"))
    assert finalize_serving(resumed) == reference

    benchmark.extra_info["in_flight_requests"] = in_flight
    benchmark.extra_info["payload_mib"] = round(len(blob) / 2**20, 2)
    benchmark.extra_info["serialize_ms"] = round(1e3 * serialize_s, 2)
    benchmark.extra_info["deserialize_ms"] = round(
        1e3 * deserialize_s, 2
    )
    benchmark.pedantic(serialize, rounds=3)


@pytest.mark.benchmark(group="engine")
def test_bench_tracing_disabled_is_free(benchmark, tmp_path):
    """Telemetry off must cost nothing: the 50k round-robin scenario
    with an inactive observability session stays on the columnar fast
    path and within 2% of the plain run's wall clock.

    The timing interleaves plain/inactive pairs (min of N each) so a
    thermal or scheduler drift across the measurement window biases
    both sides equally rather than the second one.
    """
    from repro.obs import Observability, summarize_trace

    scenario = ServingScenario(
        requests=50_000, seed=42, policy="round-robin",
        max_wait_ms=20.0,
    )
    inactive = Observability()
    reference = simulate(scenario)
    # Structural guarantee first: the inactive session must not knock
    # the run off the columnar fast path, and must not move physics.
    observed = simulate(scenario, obs=inactive)
    assert observed.engine_dispatch == "rr"
    assert observed == reference

    # One fast-path run is ~tens of ms, so a single-run sample is
    # timer-noise at a 2% bar; each sample batches several runs.
    batch = 5

    def time_batch(fn):
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        return time.perf_counter() - start

    # The true ratio is ~1.00, but under full-suite load a lucky-fast
    # plain min can outrun every inactive min by more than 2% noise.
    # Min-of-rounds converges as rounds accumulate, so keep adding
    # interleaved rounds until the ratio clears the bar (or a hard
    # round cap proves a genuine regression).
    plain_s = float("inf")
    off_s = float("inf")
    ratio = float("inf")
    for round_no in range(1, 16):
        plain_s = min(plain_s, time_batch(lambda: simulate(scenario)))
        off_s = min(
            off_s,
            time_batch(
                lambda: simulate(scenario, obs=Observability())
            ),
        )
        ratio = off_s / plain_s
        if round_no >= 5 and ratio <= 1.02:
            break
    assert ratio <= 1.02, (
        f"tracing-disabled run is {ratio:.3f}x the plain run "
        f"({off_s:.3f}s vs {plain_s:.3f}s): over the 2% bar"
    )
    benchmark.extra_info["plain_s"] = round(plain_s, 4)
    benchmark.extra_info["tracing_off_s"] = round(off_s, 4)
    benchmark.extra_info["overhead_ratio"] = round(ratio, 4)

    # Trajectory points, informational, not bars: a traced run of the
    # same work (it keeps the columnar kernel; spans are derived from
    # the arena after drain), then writing its trace file.
    def traced():
        obs = Observability(trace=True)
        return simulate(scenario, obs=obs)

    traced_report = traced()
    assert traced_report == reference
    traced_s = _best_seconds(traced, repeats=3)
    benchmark.extra_info["traced_s"] = round(traced_s, 4)
    benchmark.extra_info["traced_events_per_sec"] = round(
        traced_report.engine_events / traced_s
    )
    obs = Observability(trace=True)
    simulate(scenario, obs=obs)
    path = tmp_path / "run.trace.json"
    write_s = _best_seconds(lambda: obs.write_trace(path), repeats=3)
    benchmark.extra_info["trace_write_s"] = round(write_s, 4)
    benchmark.extra_info["trace_events_per_sec"] = round(
        summarize_trace(path)["events"] / write_s
    )
    benchmark.pedantic(
        lambda: simulate(scenario, obs=Observability()), rounds=3
    )


@pytest.mark.benchmark(group="engine")
def test_bench_epoch_stepped_multi_fleet_overhead(benchmark):
    """The production multi-fleet path stays within 1.1x of the PR-5
    monolithic loop's wall clock on the two-fleet benchmark scenario —
    the exchange and the spill-in merge must be bookkeeping, not a
    tax on the event loop."""
    from _pr5_tenancy import simulate_multi_fleet_monolithic
    from repro.control import simulate_multi_fleet
    from test_bench_tenancy import TWO_FLEET

    reference = simulate_multi_fleet_monolithic(TWO_FLEET)
    assert simulate_multi_fleet(TWO_FLEET) == reference

    mono_s = _best_seconds(
        lambda: simulate_multi_fleet_monolithic(TWO_FLEET)
    )
    prod_s = _best_seconds(lambda: simulate_multi_fleet(TWO_FLEET))
    ratio = prod_s / mono_s
    assert ratio <= 1.1, (
        f"production multi-fleet is {ratio:.2f}x the monolithic "
        f"loop ({prod_s:.3f}s vs {mono_s:.3f}s): over the 1.1x bar"
    )
    benchmark.extra_info["monolithic_s"] = round(mono_s, 4)
    # Key kept from the epoch-stepped era so the record series lines up.
    benchmark.extra_info["epoch_stepped_s"] = round(prod_s, 4)
    benchmark.extra_info["overhead_ratio"] = round(ratio, 3)
    benchmark.pedantic(
        lambda: simulate_multi_fleet(TWO_FLEET), rounds=3
    )


@pytest.mark.benchmark(group="engine")
def test_bench_control_fastpath_vs_general(benchmark):
    """Control-plane bar: the fused-admission kernel holds
    ``CTL_SPEEDUP_FLOOR`` times the general loop's events/sec on heavy
    deadline shedding.

    Identical physics first — same report (engine counters excluded
    from equality by design), fast path actually taken — then an
    interleaved min-of-N wall-clock comparison on the same event
    population (the general loop's count), so the events/sec ratio is
    a pure wall-clock speedup on identical work.
    """
    fast = simulate_controlled(CTL_SCENARIO)
    with force_general():
        general = simulate_controlled(CTL_SCENARIO)
    assert fast.engine_dispatch == "fold"
    assert general.engine_dispatch == "general"
    assert fast == general
    assert fast.shed_requests > 10_000, "scenario must shed heavily"

    fast_s = float("inf")
    gen_s = float("inf")
    for _ in range(5):
        fast_s = min(
            fast_s,
            _best_seconds(
                lambda: simulate_controlled(CTL_SCENARIO), repeats=1
            ),
        )
        with force_general():
            gen_s = min(
                gen_s,
                _best_seconds(
                    lambda: simulate_controlled(CTL_SCENARIO),
                    repeats=1,
                ),
            )
    gen_eps = general.engine_events / gen_s
    fast_eps = general.engine_events / fast_s
    ratio = fast_eps / gen_eps
    assert ratio >= CTL_SPEEDUP_FLOOR, (
        f"controlled kernel only {ratio:.1f}x the general loop "
        f"({fast_eps:,.0f} vs {gen_eps:,.0f} events/sec)"
    )
    benchmark.extra_info["general_events"] = general.engine_events
    benchmark.extra_info["general_events_per_sec"] = round(gen_eps)
    benchmark.extra_info["ctl_events_per_sec"] = round(fast_eps)
    benchmark.extra_info["speedup"] = round(ratio, 1)
    benchmark.pedantic(
        lambda: simulate_controlled(CTL_SCENARIO), rounds=3
    )


def _kernel_seconds(scenario, repeats=3, general=False):
    """Best-of-N time of the drain alone (``engine.run_until(inf)``),
    with the dispatched path (the general loop when ``general``);
    stream and fleet are rebuilt per repeat outside the timed
    region."""
    best = float("inf")
    for _ in range(repeats):
        dvfs_model = DVFSModel()
        fleet, mix, capacity, qps, requests, _ = _control_inputs(
            scenario, dvfs_model
        )
        engine = prepare_controlled(
            scenario, fleet, mix, capacity, qps, requests,
            dvfs_model=dvfs_model,
        ).engine
        with force_general() if general else nullcontext():
            start = time.perf_counter()
            run = engine.run_until(float("inf"))
        best = min(best, time.perf_counter() - start)
    return best, run.dispatch


@pytest.mark.benchmark(group="engine")
@pytest.mark.parametrize(
    "policy",
    ["least-loaded", "round-robin"],
    ids=["default-fold", "round-robin-fold"],
)
def test_bench_control_kernel_scaling(benchmark, policy):
    """Priority queues stay cheap as the backlog grows: the default
    ``repro control`` shape (three SLO priorities, no shedding, so the
    queues grow without bound) costs at most ``SCALING_CEILING`` times
    the kernel time at 4x the requests on the event fold."""
    dispatch = "fold"
    small = ControlScenario(requests=5_000, policy=policy)
    large = ControlScenario(requests=20_000, policy=policy)
    small_s, small_dispatch = _kernel_seconds(small)
    large_s, large_dispatch = _kernel_seconds(large)
    assert small_dispatch == large_dispatch == dispatch
    growth = large_s / small_s
    assert growth <= SCALING_CEILING, (
        f"{dispatch} kernel time grew {growth:.1f}x for 4x the "
        f"requests ({small_s:.3f}s -> {large_s:.3f}s)"
    )
    benchmark.extra_info["kernel_5k_s"] = round(small_s, 4)
    benchmark.extra_info["kernel_20k_s"] = round(large_s, 4)
    benchmark.extra_info["growth"] = round(growth, 2)
    benchmark.pedantic(
        lambda: _kernel_seconds(small, repeats=1), rounds=1
    )


@pytest.mark.benchmark(group="engine")
def test_bench_control_frontier_sweep_speedup(benchmark):
    """Measured end-to-end speedup of a static frontier sweep on the
    controlled kernel — every grid point is a governor-less
    round-robin shedding run, a shape the event fold serves.

    The voltage-only grid specs leave per-instance profiles unset, so
    DVFS latency scales and busy power stay kernel-eligible.  The bar
    is deliberately loose (the sweep also pays request generation and
    report aggregation); the measured ratio is the trajectory number.
    """
    base = ControlScenario(
        requests=20_000,
        qps=6_000.0,
        instances=4,
        policy="round-robin",
        shedding="deadline",
        seed=42,
    )
    voltages = (0.6, 0.7, 0.8)
    fleet_sizes = (2, 4)

    fast = static_frontier_sweep(base, voltages, fleet_sizes)
    assert [r.engine_dispatch for r in fast] == ["fold"] * 6
    with force_general():
        general = static_frontier_sweep(base, voltages, fleet_sizes)
    assert fast == general

    fast_s = float("inf")
    gen_s = float("inf")
    for _ in range(3):
        fast_s = min(
            fast_s,
            _best_seconds(
                lambda: static_frontier_sweep(
                    base, voltages, fleet_sizes
                ),
                repeats=1,
            ),
        )
        with force_general():
            gen_s = min(
                gen_s,
                _best_seconds(
                    lambda: static_frontier_sweep(
                        base, voltages, fleet_sizes
                    ),
                    repeats=1,
                ),
            )
    ratio = gen_s / fast_s
    assert ratio >= 1.5, (
        f"frontier sweep only {ratio:.2f}x on the controlled kernel "
        f"({fast_s:.3f}s vs {gen_s:.3f}s)"
    )
    benchmark.extra_info["sweep_general_s"] = round(gen_s, 4)
    benchmark.extra_info["sweep_ctl_s"] = round(fast_s, 4)
    benchmark.extra_info["sweep_speedup"] = round(ratio, 1)
    benchmark.pedantic(
        lambda: static_frontier_sweep(base, voltages, fleet_sizes),
        rounds=3,
    )


@pytest.mark.benchmark(group="engine")
def test_bench_governed_fold_vs_general(benchmark):
    """Governed bar: a predictive-governed run takes the event fold
    and holds ``GOV_SPEEDUP_FLOOR`` times the general loop's
    events/sec on identical work (interleaved best-of-N kernel times,
    both over the general loop's event count)."""
    fast = simulate_controlled(GOV_SCENARIO)
    with force_general():
        general = simulate_controlled(GOV_SCENARIO)
    assert fast.engine_dispatch == "fold"
    assert general.engine_dispatch == "general"
    assert fast.autoscale_events > 0
    assert fast == general

    fast_s = float("inf")
    gen_s = float("inf")
    for _ in range(3):
        fast_s = min(fast_s, _kernel_seconds(GOV_SCENARIO, repeats=1)[0])
        gen_s = min(
            gen_s,
            _kernel_seconds(GOV_SCENARIO, repeats=1, general=True)[0],
        )
    gen_eps = general.engine_events / gen_s
    fast_eps = general.engine_events / fast_s
    ratio = fast_eps / gen_eps
    assert ratio >= GOV_SPEEDUP_FLOOR, (
        f"governed fold only {ratio:.1f}x the general loop "
        f"({fast_eps:,.0f} vs {gen_eps:,.0f} events/sec)"
    )
    benchmark.extra_info["general_events"] = general.engine_events
    benchmark.extra_info["general_events_per_sec"] = round(gen_eps)
    benchmark.extra_info["fold_events_per_sec"] = round(fast_eps)
    benchmark.extra_info["speedup"] = round(ratio, 1)
    benchmark.pedantic(
        lambda: _kernel_seconds(GOV_SCENARIO, repeats=1), rounds=3
    )


@pytest.mark.benchmark(group="engine")
def test_bench_priority_fold_vs_general(benchmark):
    """Priority bar: least-loaded routing with priority shedding takes
    the event fold and holds ``PRIO_SPEEDUP_FLOOR`` times the general
    loop's events/sec on identical work (interleaved best-of-N kernel
    times, both over the general loop's event count).  The
    deadline-aware ratio is recorded in ``extra_info`` only, beside
    each shape's absolute fold events/sec: the oracle reads the same
    instance views a routing policy does, so a ratio alone can move
    with the oracle instead of the fold."""
    ratios = {}
    for name, scenario in (
        ("priority", PRIO_SCENARIO),
        ("deadline_aware", DEADLINE_AWARE_SCENARIO),
    ):
        fast = simulate_controlled(scenario)
        with force_general():
            general = simulate_controlled(scenario)
        assert fast.engine_dispatch == "fold"
        assert general.engine_dispatch == "general"
        assert fast.shed_requests > 10_000, "scenario must shed heavily"
        assert fast == general
        fast_s = float("inf")
        gen_s = float("inf")
        for _ in range(3):
            fast_s = min(fast_s, _kernel_seconds(scenario, repeats=1)[0])
            gen_s = min(
                gen_s,
                _kernel_seconds(scenario, repeats=1, general=True)[0],
            )
        ratios[name] = gen_s / fast_s
        benchmark.extra_info[f"{name}_general_events"] = (
            general.engine_events
        )
        benchmark.extra_info[f"{name}_fold_s"] = round(fast_s, 4)
        benchmark.extra_info[f"{name}_fold_events_per_sec"] = round(
            general.engine_events / fast_s
        )
        benchmark.extra_info[f"{name}_general_s"] = round(gen_s, 4)
        benchmark.extra_info[f"{name}_speedup"] = round(ratios[name], 2)
    assert ratios["priority"] >= PRIO_SPEEDUP_FLOOR, (
        f"priority-shedding fold only {ratios['priority']:.2f}x the "
        "general loop"
    )
    benchmark.pedantic(
        lambda: _kernel_seconds(PRIO_SCENARIO, repeats=1), rounds=3
    )
