"""Traced run of one workload: ``repro.cli.main`` in-process, with a
span around every call into the layers' public functions.

Spans are recorded from outside the program: after ``import
repro.cli`` this script rebinds each timed function (in every module
namespace that calls it) to a wrapper that opens a span, calls the
original and closes the span.  Spans stay in memory and are written to
``SPANS_OUT`` as JSON when the run ends.

The root span starts at ``SPAWN_T`` — the parent's
``time.perf_counter()`` just before it spawned this interpreter
(``CLOCK_MONOTONIC``, shared by all processes on Linux) — so
``imports`` includes interpreter start-up and the root covers the
whole run.  Its self time (argument parsing, text output, this
script's instrumentation) is reported as ``cli.other``.

Usage::

    python perfbench/traced_child.py SPAWN_T WORKLOAD SPANS_OUT -- ARGS...
"""

import sys
import time

SPANS = []  # [layer, start, end, parent]
STACK = [0]
SPANS.append(["cli.other", float(sys.argv[1]), None, -1])

import json  # noqa: E402
import os  # noqa: E402

import repro.cli  # noqa: E402

SPANS.append(["imports", SPANS[0][1], time.perf_counter(), 0])

import repro.control.simulator as ctl_sim  # noqa: E402
import repro.control.sweep as ctl_sweep  # noqa: E402
import repro.control.tenancy as tenancy  # noqa: E402
import repro.serve.arrival as arrival  # noqa: E402
import repro.serve.simulator as serve_sim  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.serve.engine import Engine  # noqa: E402

REPORTS = []


def _open(layer):
    index = len(SPANS)
    SPANS.append([layer, time.perf_counter(), None, STACK[-1]])
    STACK.append(index)
    return index


def _close(index):
    SPANS[index][2] = time.perf_counter()
    STACK.pop()


def _wrap(owner, attr, layer):
    fn = getattr(owner, attr)

    def timed(*args, **kwargs):
        index = _open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            _close(index)
        if hasattr(result, "engine_events"):
            REPORTS.append(result)
        return result

    setattr(owner, attr, timed)


def _wrap_generator(owner, attr, layer):
    """Time each step of a generator (one span per yielded chunk)."""
    fn = getattr(owner, attr)

    def timed(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            index = _open(layer)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                _close(index)
            yield item

    setattr(owner, attr, timed)


#: layer -> (owner, attribute) bindings the layer's calls go through.
LAYERS = {
    "serve.profile": [
        (serve_sim, "build_mix"),
        (ctl_sim, "build_mix"),
        (ctl_sim, "build_control_fleet"),
        (tenancy, "build_control_fleet"),
    ],
    "serve.arrival": [
        (arrival.PoissonArrivals, "times"),
        (arrival.BurstyArrivals, "times"),
        (arrival.DiurnalArrivals, "times"),
        (arrival.TraceArrivals, "times"),
        (arrival.SharedModulator, "build_path"),
        (arrival.SharedModulator, "fleet_times"),
    ],
    "serve.engine.build_requests": [
        (serve_sim, "build_requests"),
        (ctl_sim, "build_requests"),
        (tenancy, "build_requests"),
    ],
    "control.simulator.prepare": [
        (ctl_sim, "prepare_controlled"),
        (tenancy, "prepare_controlled"),
    ],
    "serve.engine.run": [
        (Engine, "run"),
        (Engine, "run_until"),
    ],
    "control.simulator.finalize": [
        (ctl_sim, "finalize_controlled"),
        (tenancy, "finalize_controlled"),
    ],
    "control.tenancy.simulate_multi_fleet": [
        (ctl_sweep, "simulate_multi_fleet"),
        (repro.cli, "simulate_multi_fleet"),
    ],
    "serve.simulator.simulate": [(repro.cli, "simulate")],
    "eval.render": [
        (repro.cli, "render_control_report"),
        (repro.cli, "render_serving_report"),
        (repro.cli, "render_multi_fleet_report"),
        (repro.cli, "render_metrics_timeline"),
    ],
    "cli.json": [
        (repro.cli, "_write_json"),
        (repro.cli, "_write_json_payload"),
        (repro.cli, "multi_fleet_to_dict"),
    ],
    "obs.write_trace": [(Observability, "write_trace")],
    "obs.metrics_payload": [(Observability, "metrics_payload")],
}


def main() -> int:
    workload, spans_out, sep, *argv = sys.argv[2:]
    if sep != "--":
        raise SystemExit(
            "usage: traced_child.py SPAWN_T WORKLOAD SPANS_OUT -- ARGS..."
        )
    for layer, bindings in LAYERS.items():
        for owner, attr in bindings:
            _wrap(owner, attr, layer)
    # Poisson streams its arrivals chunk by chunk (the serve plane's
    # flat-memory mode): time each chunk as it is drawn.
    _wrap_generator(arrival.PoissonArrivals, "iter_times", "serve.arrival")
    with open(os.devnull, "w") as sink:
        code = repro.cli.main(argv, out=sink)
    SPANS[0][2] = time.perf_counter()
    record = {
        "workload": workload,
        "exit": code,
        "spans": [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "workload": workload,
            }
            for name, start, end, parent in SPANS
        ],
        "engine": [
            {
                "events": r.engine_events,
                "peak_heap": r.engine_peak_heap,
                "dispatch": r.engine_dispatch,
                "fallback": r.engine_fallback,
            }
            for r in REPORTS
        ],
    }
    with open(spans_out, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
