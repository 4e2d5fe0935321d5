"""Telemetry parity: traces and metrics equal the recorded goldens.

The golden file pins, for a grid of serve / control / two-fleet
spillover runs (governed and ungoverned, homogeneous and
DVFS-heterogeneous fleets, exact and sketch statistics), the
``metrics`` payload of a ``--metrics-every`` run and the
canonicalized multiset of its ``--trace`` events.  Canonical means:

* every event is rendered as sorted-key JSON and the renderings are
  sorted, so only the relative order of events with equal ``ts`` may
  differ between implementations (the writer's tie order is not part
  of the contract);
* batch ids are replaced by the ``[pid, tid, ts]`` of the batch span
  they name, so the numbering scheme is free but every request must
  still point at the right batch.

The goldens were generated by the live-hook recorder, which observed
each run from inside the general event loop.  Derived telemetry must
reproduce them *unregenerated*.  The tests also pin that observing a
run keeps its execution path: traced and metered runs report the same
``engine`` dispatch as their untraced twins.

A second golden, ``obs_trace_bytes.json``, pins the sha256 of the
*written trace file* for every case above plus a few CLI shapes, so it
sees what the multiset cannot: the byte layout and the tie order at
equal ``ts``.

Regenerate (only when telemetry semantics intentionally change)::

    PYTHONPATH=src python tests/obs/test_obs_parity.py --regenerate
    PYTHONPATH=src python tests/obs/test_obs_parity.py --regenerate-bytes
"""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.control import (
    ControlScenario,
    InstanceSpec,
    MultiFleetScenario,
    simulate_controlled,
    simulate_multi_fleet,
)
from repro.obs import Observability
from repro.serve import ServingScenario, simulate

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "obs_parity.json"
BYTES_GOLDEN_PATH = GOLDEN_PATH.with_name("obs_trace_bytes.json")

#: Metrics window (simulated seconds) for every golden run.
WINDOW_S = 0.02

_HETERO = (
    InstanceSpec(voltage_v=0.8),
    InstanceSpec(voltage_v=0.8),
    InstanceSpec(voltage_v=0.6),
)


def _slow_arch_fleet():
    from repro.arch.params import EDEA_CONFIG

    slow = dataclasses.replace(EDEA_CONFIG, td=4, tk=8)
    return (InstanceSpec(voltage_v=0.8), InstanceSpec(config=slow))


def _control(**overrides) -> ControlScenario:
    base = dict(
        requests=500,
        instances=3,
        qps=4_000.0,
        shedding="deadline",
        seed=17,
    )
    base.update(overrides)
    return ControlScenario(**base)


def _fleets(member_overrides, stats="exact") -> MultiFleetScenario:
    base = ControlScenario(
        requests=300,
        instances=2,
        shedding="deadline",
        stats=stats,
        **member_overrides,
    )
    return MultiFleetScenario(
        fleets=(
            dataclasses.replace(base, qps=5_000.0),
            dataclasses.replace(base, qps=800.0),
        ),
        modulator="diurnal",
        period_s=0.2,
        spillover="deadline",
        seed=4,
    )


def cases() -> dict:
    """Case name -> ``(plane, scenario)``."""
    return {
        "serve-rr-exact": (
            "serve",
            ServingScenario(
                requests=600, instances=2, policy="round-robin", seed=3
            ),
        ),
        "serve-ll-sketch": (
            "serve",
            ServingScenario(
                requests=600,
                instances=3,
                arrival="bursty",
                stats="sketch",
                seed=5,
            ),
        ),
        "serve-rr-sketch": (
            "serve",
            ServingScenario(
                requests=600,
                instances=2,
                policy="round-robin",
                arrival="diurnal",
                diurnal_period_s=0.1,
                stats="sketch",
                seed=8,
            ),
        ),
        "control-rr-ungoverned-exact": (
            "control",
            _control(policy="round-robin"),
        ),
        "control-rr-ungoverned-hetero-sketch": (
            "control",
            _control(policy="round-robin", fleet=_HETERO, stats="sketch"),
        ),
        "control-rr-queue-depth-exact": (
            "control",
            _control(
                policy="round-robin",
                shedding="queue-depth",
                queue_threshold=6,
            ),
        ),
        "control-ll-ungoverned-hetero-exact": (
            "control",
            _control(fleet=_HETERO),
        ),
        "control-ll-slow-arch-sketch": (
            "control",
            _control(fleet=_slow_arch_fleet(), qps=2_000.0, stats="sketch"),
        ),
        "control-utilization-governed-exact": (
            "control",
            _control(
                autoscale="utilization",
                min_instances=1,
                arrival="diurnal",
                diurnal_period_s=0.1,
            ),
        ),
        "control-utilization-governed-hetero-sketch": (
            "control",
            _control(
                autoscale="utilization",
                min_instances=1,
                fleet=_HETERO,
                qps=2_500.0,
                stats="sketch",
            ),
        ),
        "control-predictive-governed-exact": (
            "control",
            _control(
                autoscale="predictive",
                min_instances=1,
                arrival="bursty",
                qps=3_000.0,
            ),
        ),
        "control-dvfs-governed-sketch": (
            "control",
            _control(autoscale="dvfs", qps=1_500.0, stats="sketch"),
        ),
        "control-queue-delay-governed-rr-exact": (
            "control",
            _control(
                autoscale="queue-delay",
                min_instances=1,
                policy="round-robin",
                tick_ms=5.0,
            ),
        ),
        "fleets-ungoverned-exact": ("fleets", _fleets({})),
        "fleets-predictive-governed-sketch": (
            "fleets",
            _fleets(
                {"autoscale": "predictive", "min_instances": 1},
                stats="sketch",
            ),
        ),
        "fleets-utilization-governed-hetero-exact": (
            "fleets",
            _fleets(
                {
                    "autoscale": "utilization",
                    "min_instances": 1,
                    "fleet": _HETERO,
                }
            ),
        ),
    }


def _simulate(plane: str, scenario, obs=None):
    if plane == "serve":
        return simulate(scenario, obs=obs)
    if plane == "control":
        return simulate_controlled(scenario, obs=obs)
    return simulate_multi_fleet(scenario, obs=obs)


def _dispatches(plane: str, report) -> list:
    reports = report.fleets if plane == "fleets" else (report,)
    return [r.engine_dispatch for r in reports]


def canonical_events(payload: dict) -> list[str]:
    """Sorted canonical renderings of a trace payload's events."""
    events = payload["traceEvents"]
    batch_key = {}
    for event in events:
        if event.get("cat") == "batch":
            batch_key[event["args"]["batch"]] = [
                event["pid"], event["tid"], event["ts"]
            ]
    rendered = []
    for event in events:
        args = event.get("args")
        if args is not None and "batch" in args:
            event = dict(event)
            event["args"] = dict(args, batch=batch_key[args["batch"]])
        rendered.append(json.dumps(event, sort_keys=True))
    rendered.sort()
    return rendered


def observe(plane: str, scenario) -> dict:
    """Run one case traced and metered; the comparable telemetry."""
    obs = Observability(trace=True, metrics_every_s=WINDOW_S)
    report = _simulate(plane, scenario, obs=obs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.trace.json"
        obs.write_trace(path)
        raw = path.read_bytes()
    payload = json.loads(raw)
    events = canonical_events(payload)
    return {
        "file_sha256": hashlib.sha256(raw).hexdigest(),
        "metrics": json.loads(json.dumps(obs.metrics_payload())),
        "trace_events": len(events),
        "trace_sha256": hashlib.sha256(
            "\n".join(events).encode()
        ).hexdigest(),
        "other_data": payload["otherData"],
        "dispatch": _dispatches(plane, report),
    }


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden() -> dict:
    return _golden()


@pytest.fixture(scope="module")
def bytes_golden() -> dict:
    with open(BYTES_GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def observed() -> dict:
    return {}


def _observed(observed: dict, name: str) -> dict:
    if name not in observed:
        observed[name] = observe(*cases()[name])
    return observed[name]


@pytest.mark.parametrize("name", list(cases()))
class TestDerivedTelemetryParity:
    def test_metrics_payload_equals_golden(self, name, golden, observed):
        got = _observed(observed, name)
        assert got["metrics"] == golden[name]["metrics"]

    def test_trace_event_multiset_equals_golden(
        self, name, golden, observed
    ):
        got = _observed(observed, name)
        want = golden[name]
        assert got["trace_events"] == want["trace_events"]
        assert got["trace_sha256"] == want["trace_sha256"]
        assert got["other_data"] == want["other_data"]

    def test_trace_file_bytes_equal_golden(
        self, name, bytes_golden, observed
    ):
        got = _observed(observed, name)
        assert got["file_sha256"] == bytes_golden["cases"][name]

    def test_observing_keeps_the_execution_path(self, name, observed):
        plane, scenario = cases()[name]
        # Derivation needs the arena, which chunk streaming never
        # builds: an observed sketch run keeps the exact round-robin
        # kernel over the same schedule instead.
        want = [
            "rr" if dispatch == "streaming" else dispatch
            for dispatch in _dispatches(plane, _simulate(plane, scenario))
        ]
        assert _observed(observed, name)["dispatch"] == want


#: CLI runs (arguments after ``repro``) whose trace file is pinned too:
#: the benchmark's ``ctl-rr-observed`` shape at 5k requests, and a
#: least-loaded serve run.
CLI_SHAPES = {
    "ctl-rr-observed-5k": (
        "control", "--requests", "5000", "--qps", "12000",
        "--shedding", "deadline", "--policy", "round-robin",
        "--seed", "3", "--metrics-every", "0.05",
    ),
    "serve-ll-5k": (
        "serve", "--requests", "5000", "--instances", "3", "--seed", "1",
    ),
}


def cli_trace_sha256(argv, tmp) -> str:
    """sha256 of the trace file one in-process CLI run writes."""
    import io

    from repro.cli import main

    path = Path(tmp) / "cli.trace.json"
    code = main([*argv, "--trace", str(path)], out=io.StringIO())
    assert code == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(CLI_SHAPES))
def test_cli_trace_file_bytes_equal_golden(name, bytes_golden, tmp_path):
    got = cli_trace_sha256(CLI_SHAPES[name], tmp_path)
    assert got == bytes_golden["cli"][name]


def _regenerate_bytes() -> None:
    payload = {
        "cases": {
            name: observe(plane, scenario)["file_sha256"]
            for name, (plane, scenario) in cases().items()
        },
        "cli": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CLI_SHAPES.items():
            payload["cli"][name] = cli_trace_sha256(argv, tmp)
    with open(BYTES_GOLDEN_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {BYTES_GOLDEN_PATH}")


def _regenerate() -> None:
    payload = {}
    for name, (plane, scenario) in cases().items():
        entry = observe(plane, scenario)
        del entry["dispatch"]
        del entry["file_sha256"]
        payload[name] = entry
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(payload)} cases)")


if __name__ == "__main__":
    import sys

    if "--regenerate-bytes" in sys.argv:
        _regenerate_bytes()
    elif "--regenerate" in sys.argv:
        _regenerate()
    else:
        sys.exit(
            "run with --regenerate or --regenerate-bytes to rewrite "
            "a golden file"
        )
