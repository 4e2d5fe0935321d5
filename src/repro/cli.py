"""Command-line interface: ``repro <command>`` / ``python -m repro``.

Commands:

* ``list`` — show all reproducible figure/table ids.
* ``run <id> [...]`` — regenerate one or more experiments and print them.
* ``all`` — regenerate everything (the measured experiments prepare a
  full-width workload once, ~15 s).
* ``sweep`` — width/resolution scaling sweep through the parallel
  executor.
* ``serve`` — request-level serving simulation over an accelerator
  fleet (arrival process incl. diurnal day/night traffic, scheduling
  policy incl. deadline-/energy-aware routing, batching; reports
  p50/p95/p99 latency, sustained QPS, per-instance utilization; can
  sweep policies x fleet sizes or sample a throughput-latency curve).
  SLO flags (``--slo-classes``/``--shedding``/``--autoscale``) route
  the run through the control plane.
* ``control`` — SLO-aware control plane over the serving fleet:
  deadline/priority classes (bindable to individual zoo models via
  ``model=`` for multi-tenant SLOs), admission control and load
  shedding, DVFS-heterogeneous fleets with energy accounting,
  autoscaling governors (incl. the forecast-driven ``predictive``
  one), correlated multi-fleet co-simulation with cross-fleet
  spillover (``--multi-fleet-qps``), and energy-vs-attainment
  governor sweeps with Pareto marking.
* ``info`` — print the library's headline reproduction summary.
* ``report`` — check every reproduced claim against the paper.
* ``trace summary <path>`` — inspect a trace recorded with
  ``--trace`` (event counts by phase/category/process, time span).

``serve`` and ``control`` accept ``--json PATH`` to also write the
report(s) machine-readably for external tooling, ``--trace PATH``
to record per-request spans as Perfetto-loadable Chrome trace-event
JSON, and ``--metrics-every SECS`` to sample rolling engine metrics
on the tick cadence.

Performance flags (each registered only where it has an effect):

* ``--jobs N`` (``run``/``all``/``sweep``) — fan independent work out
  across N worker processes (0 = one per CPU; default 1 = serial).
* ``--cache-dir PATH`` (``run``/``all``/``report``/``sweep``) —
  persist simulation results (sweep points, measured workloads) so
  repeated runs with identical configurations are served from disk.
* ``--fast`` (``run``/``all``/``report``) — analytic fast-latency
  mode for measured workloads (aggregate latency/energy only; skips
  event-driven tracing).

Examples::

    repro list
    repro run fig13 table3
    repro run fig12 --width 0.25 --fast      # fast, reduced-width
    repro all --jobs 4 --cache-dir ~/.cache/repro
    repro sweep --widths 0.5,1.0 --resolutions 32,64 --jobs 4
    repro serve --instances 4 --policy least-loaded
    repro serve --arrival bursty --qps 4000 --mix mixed
    repro serve --sweep-policies round-robin,least-loaded,affinity \
        --sweep-instances 1,2,4 --jobs 4 --cache-dir /tmp/repro-cache
    repro serve --curve-qps 1000,2000,4000,6000,8000
    repro control --shedding priority --queue-threshold 32 --json out.json
    repro control --autoscale utilization --min-instances 1
    repro control --fleet 0.8x2,0.6x2        # DVFS-heterogeneous fleet
    repro control --fleet 0.8x2,0.6x2 --policy energy-aware
    repro control --policy deadline-aware --shedding deadline
    repro control --arrival diurnal --diurnal-period 30 \
        --autoscale utilization --min-instances 1
    repro control --arrival diurnal --autoscale predictive
    repro control --slo-classes \
        "llm:deadline=5ms:model=mobilenet-v1-224,default:deadline=50"
    repro control --multi-fleet-qps 2000,800 --modulator diurnal \
        --spillover deadline --shedding deadline
    repro control --sweep-voltages 0.6,0.7,0.8 --sweep-fleet-sizes 1,2,4
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import __version__
from ._atomic import write_atomic
from .checkpoint import (
    resume_checkpointed,
    run_control_checkpointed,
    run_serve_checkpointed,
)
from .control import (
    DEFAULT_SLO_CLASSES,
    GOVERNORS,
    SHEDDING_POLICIES,
    ControlScenario,
    MultiFleetScenario,
    governor_sweep,
    multi_fleet_sweep,
    pareto_frontier,
    parse_fleet_spec,
    parse_slo_classes,
    simulate_controlled,
    simulate_multi_fleet,
    static_frontier_sweep,
)
from .errors import ReproError
from .eval.control import (
    multi_fleet_to_dict,
    render_control_report,
    render_control_sweep,
    render_multi_fleet_report,
    report_to_dict,
)
from .eval.obs import engine_counters_dict, render_metrics_timeline
from .eval.report import render_table
from .eval.serving import (
    render_serving_report,
    render_serving_sweep,
    render_throughput_latency,
)
from .obs import Observability, render_trace_summary, summarize_trace
from .parallel import ParallelExecutor, ResultCache
from .serve import (
    POLICIES,
    SCENARIO_MIXES,
    ServingScenario,
    policy_fleet_sweep,
    simulate,
    throughput_latency_curve,
)

__all__ = ["main", "build_parser"]

#: Experiments that need the trained/simulated workload.
MEASURED_EXPERIMENTS = ("fig11", "fig12")


def _add_performance_flags(
    parser: argparse.ArgumentParser,
    jobs: bool = True,
    fast: bool = True,
) -> None:
    if jobs:
        parser.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes for independent work "
                 "(default 1 = serial; 0 = one per CPU)",
        )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="persist simulation results under PATH and reuse them "
             "across runs",
    )
    if fast:
        parser.add_argument(
            "--fast", action="store_true",
            help="analytic fast-latency mode for measured workloads "
                 "(aggregate latency/energy only)",
        )


def _add_checkpoint_flags(parser: argparse.ArgumentParser) -> None:
    """Checkpoint/resume flags shared by ``serve`` and ``control``."""
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        dest="checkpoint_path",
        help="save an atomic resume checkpoint to PATH every "
             "--checkpoint-every simulated seconds",
    )
    parser.add_argument(
        "--checkpoint-every", type=float, default=None,
        metavar="SECS", dest="checkpoint_every_s",
        help="simulated seconds between checkpoints (with "
             "--checkpoint)",
    )
    parser.add_argument(
        "--resume", default=None, metavar="PATH", dest="resume_path",
        help="resume an interrupted run from PATH; the scenario comes "
             "from the checkpoint, the report is byte-identical to "
             "the uninterrupted run",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Telemetry flags shared by ``serve`` and ``control``."""
    parser.add_argument(
        "--trace", default=None, metavar="PATH", dest="trace_path",
        help="record per-request spans and engine events to PATH as "
             "Chrome trace-event JSON (open in Perfetto or "
             "chrome://tracing); distinct from --trace-file, which "
             "feeds arrival timestamps in",
    )
    parser.add_argument(
        "--metrics-every", type=float, default=None, metavar="SECS",
        dest="metrics_every_s",
        help="sample rolling engine metrics (rates, queue depth, "
             "utilization, power) every SECS simulated seconds; "
             "printed as a table and embedded in --json",
    )


def _add_traffic_flags(parser: argparse.ArgumentParser) -> None:
    """Data-plane scenario flags shared by ``serve`` and ``control``."""
    parser.add_argument(
        "--mix", default="mixed", choices=sorted(SCENARIO_MIXES),
        help="traffic scenario mix (default: mixed)",
    )
    parser.add_argument(
        "--arrival", default="poisson",
        choices=["poisson", "bursty", "diurnal", "trace"],
        help="arrival process (default: poisson)",
    )
    parser.add_argument(
        "--qps", type=float, default=None,
        help="offered rate; omitted = 70%% of fleet capacity",
    )
    parser.add_argument(
        "--requests", type=int, default=10_000,
        help="requests to simulate (default: 10000)",
    )
    parser.add_argument(
        "--instances", type=int, default=4,
        help="fleet size (default: 4)",
    )
    parser.add_argument(
        "--policy", default="least-loaded", choices=sorted(POLICIES),
        help="scheduling policy (default: least-loaded)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=8,
        help="largest same-model batch per launch (default: 8)",
    )
    parser.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="longest a queue head waits to fill its batch (default: 2)",
    )
    parser.add_argument(
        "--burst-factor", type=float, default=4.0,
        help="burst-state rate multiplier for --arrival bursty",
    )
    parser.add_argument(
        "--diurnal-period", type=float, default=60.0,
        dest="diurnal_period_s", metavar="SECONDS",
        help="day/night cycle length for --arrival diurnal "
             "(default: 60)",
    )
    parser.add_argument(
        "--diurnal-amplitude", type=float, default=0.8,
        help="peak-to-mean swing in [0, 1] for --arrival diurnal "
             "(default: 0.8)",
    )
    parser.add_argument(
        "--trace-file", default=None, metavar="PATH",
        help="arrival timestamps (seconds, one per line) for "
             "--arrival trace",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="simulation seed",
    )
    parser.add_argument(
        "--stats", default="exact", choices=["exact", "sketch"],
        help="latency statistics mode: exact retains every latency, "
             "sketch streams them through a t-digest with flat memory "
             "(default: exact)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH", dest="json_path",
        help="also write the report(s) as machine-readable JSON",
    )


def _add_slo_flags(parser: argparse.ArgumentParser) -> None:
    """Control-plane flags (on ``serve`` they reroute the run through
    the control simulator)."""
    parser.add_argument(
        "--slo-classes", default=None,
        metavar="NAME:DEADLINE_MS[:TARGET[:PRIO[:SHARE]]],...",
        help="SLO classes (default: interactive/standard/batch "
             "tiers); fields may also be key=value — incl. model=, "
             "which binds the class to one zoo model's traffic, "
             "e.g. llm:deadline=5ms:model=mobilenet-v1-224",
    )
    parser.add_argument(
        "--shedding", default=None, choices=sorted(SHEDDING_POLICIES),
        help="admission/shedding policy (default: none)",
    )
    parser.add_argument(
        "--queue-threshold", type=int, default=64,
        help="queue bound for queue-depth/priority shedding "
             "(default: 64)",
    )
    parser.add_argument(
        "--autoscale", default=None,
        choices=sorted(GOVERNORS),
        help="autoscaling governor (default: none)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EDEA (SOCC 2024) reproduction - experiment runner",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list reproducible figure/table ids")
    sub.add_parser("info", help="print the headline reproduction summary")

    report_parser = sub.add_parser(
        "report", help="check every reproduced claim against the paper"
    )
    report_parser.add_argument(
        "--width", type=float, default=None,
        help="also run the measured (power/efficiency) claims on a "
             "workload of this width (e.g. 1.0; omitted = analytic only)",
    )
    _add_performance_flags(report_parser, jobs=False)

    run_parser = sub.add_parser("run", help="run one or more experiments")
    run_parser.add_argument(
        "experiments", nargs="+", metavar="ID",
        help="figure/table ids (see 'list')",
    )
    run_parser.add_argument(
        "--width", type=float, default=1.0,
        help="MobileNet width multiplier for measured experiments "
             "(default 1.0; use 0.25 for a fast demo)",
    )
    _add_performance_flags(run_parser)

    all_parser = sub.add_parser("all", help="run every experiment")
    all_parser.add_argument("--width", type=float, default=1.0)
    _add_performance_flags(all_parser)

    sweep_parser = sub.add_parser(
        "sweep", help="width/resolution scaling sweep"
    )
    sweep_parser.add_argument(
        "--widths", default="0.25,0.5,0.75,1.0", metavar="W,W,...",
        help="comma-separated MobileNet width multipliers",
    )
    sweep_parser.add_argument(
        "--resolutions", default="32,64,128,224", metavar="R,R,...",
        help="comma-separated input resolutions",
    )
    _add_performance_flags(sweep_parser, fast=False)

    serve_parser = sub.add_parser(
        "serve",
        help="request-level serving simulation over an accelerator fleet",
    )
    _add_traffic_flags(serve_parser)
    serve_parser.add_argument(
        "--sweep-policies", default=None, metavar="P,P,...",
        help="sweep these policies (with --sweep-instances) through "
             "the parallel executor",
    )
    serve_parser.add_argument(
        "--sweep-instances", default=None, metavar="N,N,...",
        help="sweep these fleet sizes (with --sweep-policies)",
    )
    serve_parser.add_argument(
        "--curve-qps", default=None, metavar="Q,Q,...",
        help="sample the throughput-latency curve at these offered "
             "rates",
    )
    _add_slo_flags(serve_parser)
    _add_checkpoint_flags(serve_parser)
    _add_obs_flags(serve_parser)
    _add_performance_flags(serve_parser, fast=False)

    control_parser = sub.add_parser(
        "control",
        help="SLO-aware control plane: deadlines, shedding, DVFS "
             "fleets, autoscaling, energy",
    )
    _add_traffic_flags(control_parser)
    _add_slo_flags(control_parser)
    control_parser.add_argument(
        "--fleet", default=None, metavar="V[xN],...",
        help="DVFS-heterogeneous fleet spec, e.g. 0.8x2,0.6x2 "
             "(overrides --instances)",
    )
    control_parser.add_argument(
        "--tick-ms", type=float, default=10.0,
        help="autoscaler evaluation interval (default: 10)",
    )
    control_parser.add_argument(
        "--min-instances", type=int, default=1,
        help="autoscaler lower bound (default: 1)",
    )
    control_parser.add_argument(
        "--max-instances", type=int, default=None,
        help="autoscaler upper bound (default: fleet size)",
    )
    control_parser.add_argument(
        "--util-low", type=float, default=0.3,
        help="scale-down utilization threshold (default: 0.3)",
    )
    control_parser.add_argument(
        "--util-high", type=float, default=0.85,
        help="scale-up utilization threshold (default: 0.85)",
    )
    control_parser.add_argument(
        "--target-delay-ms", type=float, default=5.0,
        help="queue-delay governor setpoint (default: 5)",
    )
    control_parser.add_argument(
        "--dvfs-ladder", default="0.6,0.7,0.8", metavar="V,V,...",
        help="voltage ladder for --autoscale dvfs (default: 0.6,0.7,0.8)",
    )
    control_parser.add_argument(
        "--multi-fleet-qps", default=None, metavar="Q,Q,...",
        help="co-simulate one fleet per offered rate, their arrivals "
             "correlated through a shared traffic modulator "
             "(replicates the base scenario per fleet)",
    )
    control_parser.add_argument(
        "--modulator", default="diurnal",
        choices=["diurnal", "burst"],
        help="shared multi-fleet rate modulator (default: diurnal; "
             "uses --diurnal-period/--diurnal-amplitude or "
             "--burst-factor)",
    )
    control_parser.add_argument(
        "--spillover", default="none",
        choices=["none", "deadline"],
        help="cross-fleet spillover: fleets at rho > 1 forward shed, "
             "deadline-feasible requests to the sibling with the most "
             "headroom (default: none)",
    )
    control_parser.add_argument(
        "--spillover-hop-ms", type=float, default=0.5,
        help="forwarding latency a spilled request pays (default: 0.5)",
    )
    control_parser.add_argument(
        "--sweep-governors", default=None, metavar="G,G,...",
        help="compare these autoscaling governors on the same traffic",
    )
    control_parser.add_argument(
        "--sweep-voltages", default=None, metavar="V,V,...",
        help="static energy/SLO frontier over these voltages (with "
             "--sweep-fleet-sizes)",
    )
    control_parser.add_argument(
        "--sweep-fleet-sizes", default=None, metavar="N,N,...",
        help="static frontier fleet sizes (with --sweep-voltages)",
    )
    _add_checkpoint_flags(control_parser)
    _add_obs_flags(control_parser)
    _add_performance_flags(control_parser, fast=False)

    trace_parser = sub.add_parser(
        "trace", help="inspect a trace recorded with --trace"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command")
    trace_summary = trace_sub.add_parser(
        "summary",
        help="event counts, categories, and time span of one trace",
    )
    trace_summary.add_argument(
        "path", metavar="PATH",
        help="trace-event JSON written by serve/control --trace",
    )
    return parser


def _cache_from(args) -> ResultCache | None:
    if getattr(args, "cache_dir", None) is None:
        return None
    return ResultCache(args.cache_dir)


def _workload_if_needed(experiment_ids, args):
    if any(eid in MEASURED_EXPERIMENTS for eid in experiment_ids):
        from .eval.workloads import prepare_workload

        return prepare_workload(
            width_multiplier=args.width,
            fast=getattr(args, "fast", False),
            cache=_cache_from(args),
        )
    return None


def _run(experiment_ids, args, out) -> None:
    from .eval.figures import run_experiment

    workload = _workload_if_needed(experiment_ids, args)
    analytic = [e for e in experiment_ids if e not in MEASURED_EXPERIMENTS]
    results = {}
    if args.jobs != 1 and len(analytic) > 1:
        executor = ParallelExecutor(jobs=args.jobs)
        for eid, result in zip(
            analytic,
            executor.map(run_experiment, [(eid,) for eid in analytic]),
        ):
            results[eid] = result
    for eid in experiment_ids:
        if eid not in results:
            results[eid] = run_experiment(
                eid, workload if eid in MEASURED_EXPERIMENTS else None
            )
        print(results[eid].text, file=out)
        print(file=out)


def _parse_grid(text: str, kind: type):
    try:
        values = tuple(kind(part) for part in text.split(",") if part)
    except ValueError:
        raise ReproError(
            f"cannot parse {text!r} as {kind.__name__} list"
        ) from None
    return values


def _sweep(args, out) -> None:
    from .eval.sweep import width_resolution_sweep

    points = width_resolution_sweep(
        widths=_parse_grid(args.widths, float),
        resolutions=_parse_grid(args.resolutions, int),
        jobs=args.jobs,
        cache=_cache_from(args),
    )
    rows = [
        [
            p.width,
            p.resolution,
            p.total_macs,
            p.total_cycles,
            round(p.latency_us, 2),
            round(p.throughput_gops, 2),
            round(100 * p.init_fraction, 2),
        ]
        for p in points
    ]
    text = render_table(
        f"Width/resolution sweep ({len(points)} points, "
        f"jobs={args.jobs})",
        ["Width", "Res", "MACs", "Cycles", "Latency us", "GOPS", "Init %"],
        rows,
    )
    print(text, file=out)


def _read_trace(path: str) -> tuple[float, ...]:
    try:
        with open(path) as handle:
            return tuple(
                float(line) for line in handle if line.strip()
            )
    except OSError as exc:
        raise ReproError(f"cannot read trace file {path}: {exc}") from exc
    except ValueError:
        raise ReproError(
            f"trace file {path} must contain one timestamp per line"
        ) from None


def _write_json_payload(path: str, payload: dict) -> None:
    def dump(handle) -> None:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    write_atomic(path, dump, f"cannot write JSON to {path}", suffix=".json")


def _with_telemetry(payload: dict, reports, metrics=None) -> dict:
    """Append the execution telemetry of ``reports`` (one engine entry
    per report — per member fleet in a multi-fleet run) and the run's
    ``metrics`` payload.  It rides beside the physics, not inside it:
    report dicts stay byte-stable for the parity goldens and caches."""
    engine = [engine_counters_dict(r) for r in reports]
    if any(entry is not None for entry in engine):
        payload["engine"] = engine
    if metrics is not None:
        payload["metrics"] = metrics
    return payload


def _write_json(path: str, reports, metrics=None) -> None:
    payload = {"reports": [report_to_dict(r) for r in reports]}
    _write_json_payload(path, _with_telemetry(payload, reports, metrics))


def _obs_from(args):
    """The run's :class:`~repro.obs.Observability`, or ``None`` when
    neither telemetry flag was given."""
    trace = getattr(args, "trace_path", None)
    every = getattr(args, "metrics_every_s", None)
    if trace is None and every is None:
        return None
    return Observability(trace=trace is not None, metrics_every_s=every)


#: Float flags whose NaN/inf value would hang the event loop (a NaN
#: rate or window never advances simulated time) or fabricate numbers.
_FINITE_FLAGS = (
    ("--qps", "qps"),
    ("--max-wait-ms", "max_wait_ms"),
    ("--diurnal-period", "diurnal_period_s"),
    ("--metrics-every", "metrics_every_s"),
    ("--burst-factor", "burst_factor"),
    ("--target-delay-ms", "target_delay_ms"),
    ("--spillover-hop-ms", "spillover_hop_ms"),
    ("--checkpoint-every", "checkpoint_every_s"),
)


def _check_finite_flags(args) -> None:
    """Reject non-finite float flags by their own names before any
    scenario machinery sees them."""
    for flag, dest in _FINITE_FLAGS:
        value = getattr(args, dest, None)
        if value is not None and not math.isfinite(value):
            raise ReproError(
                f"{flag} must be a finite number (got {value})"
            )


def _reject_obs_with(args, what: str) -> None:
    if (
        getattr(args, "trace_path", None)
        or getattr(args, "metrics_every_s", None) is not None
    ):
        raise ReproError(
            f"--trace/--metrics-every cannot be combined with {what}; "
            "telemetry covers single runs (and --multi-fleet-qps) only"
        )


def _emit_obs(args, obs, out) -> dict | None:
    """Write the trace file and print the metrics tables, if recorded;
    returns the metrics payload for ``--json``.  The metrics come first,
    so a window too fine for the run fails before any file is written."""
    if obs is None:
        return None
    metrics = obs.metrics_payload()
    if args.trace_path:
        obs.write_trace(args.trace_path)
    if metrics is not None:
        print(file=out)
        print(render_metrics_timeline(metrics), file=out)
    return metrics


def _read_trace_arg(args) -> tuple[float, ...] | None:
    trace = (
        _read_trace(args.trace_file)
        if args.trace_file is not None
        else None
    )
    if args.arrival == "trace" and trace is None:
        raise ReproError("--arrival trace requires --trace-file")
    return trace


def _check_diurnal_amplitude(args) -> None:
    """Reject a full-swing amplitude with the flag's own name before
    the scenario machinery reports it in dataclass terms (the same
    bound :class:`~repro.serve.arrival.DiurnalArrivals` enforces)."""
    uses_diurnal = args.arrival == "diurnal" or (
        getattr(args, "multi_fleet_qps", None)
        and getattr(args, "modulator", None) == "diurnal"
    )
    if uses_diurnal and not 0.0 <= args.diurnal_amplitude < 1.0:
        raise ReproError(
            f"--diurnal-amplitude must be in [0, 1) "
            f"(got {args.diurnal_amplitude}): amplitude 1.0 drives "
            "the trough rate to exactly 0 — use 0.999 for a "
            "near-quiet night"
        )


def _control_scenario(args, trace) -> ControlScenario:
    kwargs = dict(
        mix=args.mix,
        arrival=args.arrival,
        qps=args.qps,
        burst_factor=args.burst_factor,
        trace=trace,
        requests=args.requests,
        instances=args.instances,
        policy=args.policy,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        seed=args.seed,
        diurnal_period_s=args.diurnal_period_s,
        diurnal_amplitude=args.diurnal_amplitude,
        slo_classes=(
            parse_slo_classes(args.slo_classes)
            if args.slo_classes
            else DEFAULT_SLO_CLASSES
        ),
        shedding=args.shedding or "none",
        queue_threshold=args.queue_threshold,
        autoscale=args.autoscale or "none",
        stats=getattr(args, "stats", "exact"),
    )
    if getattr(args, "fleet", None):
        kwargs["fleet"] = parse_fleet_spec(args.fleet)
    # `serve` registers only the SLO flags; the governor knobs exist on
    # `control` alone, so absent attributes fall through to the
    # ControlScenario defaults instead of a re-hardcoded copy here.
    for name in (
        "tick_ms",
        "min_instances",
        "max_instances",
        "util_low",
        "util_high",
        "target_delay_ms",
    ):
        if hasattr(args, name):
            kwargs[name] = getattr(args, name)
    if getattr(args, "dvfs_ladder", None):
        kwargs["dvfs_ladder"] = _parse_grid(args.dvfs_ladder, float)
    return ControlScenario(**kwargs)


def _checkpoint_args(args) -> tuple[str | None, float | None]:
    """Validate the checkpoint flag pair; returns ``(path, every_s)``."""
    path = args.checkpoint_path
    every = args.checkpoint_every_s
    if (path is None) != (every is None):
        raise ReproError(
            "--checkpoint and --checkpoint-every must be given "
            "together"
        )
    return path, every


def _reject_checkpoint_with(args, what: str) -> None:
    if (
        args.checkpoint_path
        or args.checkpoint_every_s is not None
        or args.resume_path
    ):
        raise ReproError(
            f"--checkpoint/--resume cannot be combined with {what}; "
            "checkpointing covers single runs only"
        )


def _resume(args, out) -> None:
    """Continue an interrupted run; the scenario lives in the
    checkpoint, so traffic/fleet flags on the command line are
    ignored.  Telemetry flags must match the checkpointing run's —
    the recorded spans live in the checkpoint and land back on an
    identically configured observer.  The cadence lives in the
    checkpoint too, so ``--checkpoint-every`` is rejected rather than
    silently ignored (``--checkpoint`` redirects where it saves)."""
    if args.checkpoint_every_s is not None:
        raise ReproError(
            "--checkpoint-every cannot be combined with --resume: the "
            "resumed run keeps the checkpoint's own cadence"
        )
    obs = _obs_from(args)
    kind, _scenario, report = resume_checkpointed(
        args.resume_path, checkpoint_path=args.checkpoint_path, obs=obs
    )
    _emit_single(args, kind, report, obs, out)


def _emit_single(args, kind, report, obs, out) -> None:
    """Print one serve or control run's report, then its telemetry,
    then its ``--json``."""
    if kind == "control":
        print(render_control_report(report), file=out)
    else:
        print(render_serving_report(report), file=out)
    metrics = _emit_obs(args, obs, out)
    if args.json_path:
        _write_json(args.json_path, [report], metrics)


def _run_single(args, kind, scenario, checkpoint, obs, out) -> None:
    """Run one serve or control scenario and emit it: in checkpointed
    slices when ``checkpoint`` (the ``(path, every_s)`` flag pair)
    names a path, else one-shot."""
    path, every = checkpoint
    if path:
        run = (
            run_control_checkpointed
            if kind == "control"
            else run_serve_checkpointed
        )
        report = run(scenario, path, every, obs=obs)
    elif kind == "control":
        report = simulate_controlled(scenario, obs=obs)
    else:
        report = simulate(scenario, obs=obs)
    _emit_single(args, kind, report, obs, out)


def _serve(args, out) -> None:
    _check_finite_flags(args)
    if args.sweep_policies or args.sweep_instances or args.curve_qps:
        _reject_checkpoint_with(args, "serve sweeps")
        _reject_obs_with(args, "serve sweeps")
    if args.resume_path:
        _resume(args, out)
        return
    trace = _read_trace_arg(args)
    _check_diurnal_amplitude(args)
    checkpoint = _checkpoint_args(args)
    obs = _obs_from(args)
    if args.slo_classes or args.shedding or args.autoscale:
        if args.sweep_policies or args.sweep_instances or args.curve_qps:
            raise ReproError(
                "SLO/control flags cannot be combined with serve "
                "sweeps; use 'repro control' for governor sweeps"
            )
        _run_single(
            args, "control", _control_scenario(args, trace), checkpoint,
            obs, out,
        )
        return
    scenario = ServingScenario(
        mix=args.mix,
        arrival=args.arrival,
        qps=args.qps,
        burst_factor=args.burst_factor,
        trace=trace,
        requests=args.requests,
        instances=args.instances,
        policy=args.policy,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        seed=args.seed,
        diurnal_period_s=args.diurnal_period_s,
        diurnal_amplitude=args.diurnal_amplitude,
        stats=args.stats,
    )
    cache = _cache_from(args)
    if args.curve_qps and (args.sweep_policies or args.sweep_instances):
        raise ReproError(
            "--curve-qps cannot be combined with --sweep-policies/"
            "--sweep-instances; run them separately"
        )
    if args.sweep_policies or args.sweep_instances:
        policies = (
            [p for p in args.sweep_policies.split(",") if p]
            if args.sweep_policies
            else [args.policy]
        )
        counts = (
            list(_parse_grid(args.sweep_instances, int))
            if args.sweep_instances
            else [args.instances]
        )
        reports = policy_fleet_sweep(
            scenario, policies, counts, jobs=args.jobs, cache=cache
        )
        print(render_serving_sweep(reports), file=out)
    elif args.curve_qps:
        reports = throughput_latency_curve(
            scenario,
            _parse_grid(args.curve_qps, float),
            jobs=args.jobs,
            cache=cache,
        )
        print(render_throughput_latency(reports), file=out)
    else:
        _run_single(args, "serve", scenario, checkpoint, obs, out)
        return
    if args.json_path:
        _write_json(args.json_path, reports)


def _multi_fleet(args, base, cache, out, obs=None) -> None:
    if args.arrival != "poisson":
        raise ReproError(
            "--arrival has no effect with --multi-fleet-qps: member "
            "arrivals come from the shared --modulator (diurnal|burst)"
        )
    rates = _parse_grid(args.multi_fleet_qps, float)
    # Member fields the co-simulation ignores (seed, per-fleet arrival
    # shape) are pinned to their defaults: they must neither suggest an
    # effect they don't have nor perturb the cache content key — the
    # modulator owns the traffic shape at the MultiFleetScenario level.
    fields = ControlScenario.__dataclass_fields__
    ignored = {
        name: fields[name].default
        for name in (
            "burst_factor", "diurnal_period_s", "diurnal_amplitude"
        )
    }
    scenario = MultiFleetScenario(
        fleets=tuple(
            dataclasses.replace(
                base, qps=qps, seed=0, trace=None, **ignored
            )
            for qps in rates
        ),
        modulator=args.modulator,
        period_s=args.diurnal_period_s,
        amplitude=args.diurnal_amplitude,
        burst_factor=args.burst_factor,
        spillover=args.spillover,
        spillover_hop_ms=args.spillover_hop_ms,
        seed=args.seed,
    )
    if obs is not None:
        # Telemetry observes execution, so the run can't be served
        # from (or stored into) the result cache — simulate directly.
        report = simulate_multi_fleet(scenario, obs=obs)
    else:
        report = multi_fleet_sweep(
            [scenario], jobs=args.jobs, cache=cache
        )[0]
    print(render_multi_fleet_report(report), file=out)
    metrics = _emit_obs(args, obs, out)
    if args.json_path:
        payload = {"multi_fleet": multi_fleet_to_dict(report)}
        _write_json_payload(
            args.json_path, _with_telemetry(payload, report.fleets, metrics)
        )


def _control(args, out) -> None:
    _check_finite_flags(args)
    if (
        args.sweep_governors
        or args.sweep_voltages
        or args.sweep_fleet_sizes
        or args.multi_fleet_qps
    ):
        _reject_checkpoint_with(args, "governor/frontier sweeps and "
                                      "--multi-fleet-qps")
    if args.resume_path:
        _resume(args, out)
        return
    trace = _read_trace_arg(args)
    _check_diurnal_amplitude(args)
    checkpoint = _checkpoint_args(args)
    base = _control_scenario(args, trace)
    cache = _cache_from(args)
    voltage_sweep = args.sweep_voltages or args.sweep_fleet_sizes
    if args.sweep_governors or voltage_sweep:
        _reject_obs_with(args, "governor/frontier sweeps")
    if args.sweep_governors and voltage_sweep:
        raise ReproError(
            "--sweep-governors cannot be combined with the static "
            "--sweep-voltages/--sweep-fleet-sizes frontier; run them "
            "separately"
        )
    obs = _obs_from(args)
    if args.multi_fleet_qps:
        if args.sweep_governors or voltage_sweep:
            raise ReproError(
                "--multi-fleet-qps cannot be combined with governor "
                "or frontier sweeps; run them separately"
            )
        _multi_fleet(args, base, cache, out, obs)
        return
    if args.sweep_governors:
        governors = [g for g in args.sweep_governors.split(",") if g]
        reports = governor_sweep(
            base, governors, jobs=args.jobs, cache=cache
        )
        labels = governors
    elif voltage_sweep:
        voltages = (
            list(_parse_grid(args.sweep_voltages, float))
            if args.sweep_voltages
            else [0.8]
        )
        sizes = (
            list(_parse_grid(args.sweep_fleet_sizes, int))
            if args.sweep_fleet_sizes
            else [args.instances]
        )
        reports = static_frontier_sweep(
            base, voltages, sizes, jobs=args.jobs, cache=cache
        )
        labels = [f"{v:.2f}V x{n}" for v in voltages for n in sizes]
    else:
        _run_single(args, "control", base, checkpoint, obs, out)
        return
    frontier = pareto_frontier(reports)
    print(
        render_control_sweep(reports, labels, frontier), file=out
    )
    if args.json_path:
        _write_json(args.json_path, reports)


def _info(out) -> None:
    from .eval.paper_data import PAPER_HEADLINE

    print("EDEA reproduction - headline numbers (paper values)", file=out)
    for key, value in sorted(PAPER_HEADLINE.items()):
        print(f"  {key:32s} {value}", file=out)
    print(
        "\nRun `repro report` to check every reproduced claim against"
        " the paper.",
        file=out,
    )


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(file=out)
        return 2
    try:
        if args.command == "list":
            from .eval.figures import list_experiments

            for eid in list_experiments():
                print(eid, file=out)
        elif args.command == "info":
            _info(out)
        elif args.command == "run":
            _run(args.experiments, args, out)
        elif args.command == "all":
            from .eval.figures import list_experiments

            _run(list_experiments(), args, out)
        elif args.command == "sweep":
            _sweep(args, out)
        elif args.command == "serve":
            _serve(args, out)
        elif args.command == "control":
            _control(args, out)
        elif args.command == "trace":
            if getattr(args, "trace_command", None) != "summary":
                print(
                    "usage: repro trace summary PATH", file=sys.stderr
                )
                return 2
            print(
                render_trace_summary(
                    args.path, summarize_trace(args.path)
                ),
                file=out,
            )
        elif args.command == "report":
            from .eval.summary import render_report, reproduction_report
            from .eval.workloads import prepare_workload

            workload = (
                prepare_workload(
                    width_multiplier=args.width,
                    fast=args.fast,
                    cache=_cache_from(args),
                )
                if args.width is not None
                else None
            )
            checks = reproduction_report(workload)
            print(render_report(checks), file=out)
            if not all(c.passed for c in checks):
                return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
