"""Engine parity: the shared kernel reproduces the legacy loops exactly.

The golden file was generated by the *pre-engine* ``simulate()`` and
``simulate_controlled()`` implementations (the duplicated heap loops of
PRs 2-3), so these tests pin the refactored kernel bit-for-bit to the
legacy behaviour: every report field identical for fixed seeds, and
every scenario's persistent-cache content key unchanged (warm
:class:`~repro.parallel.cache.ResultCache` entries keep hitting).

Regenerate (only when the simulation *semantics* intentionally change)::

    PYTHONPATH=src python tests/serve/test_engine_parity.py --regenerate

Performance-only refactors (the PR-4 unified kernel, the PR-6 columnar
fast paths) must pass against the goldens *unregenerated*: a mismatch
here means the refactor changed observable behaviour, never that the
goldens went stale.
"""

import json
from pathlib import Path

import pytest

from repro.control import (
    ControlScenario,
    InstanceSpec,
    SLOClass,
    simulate_controlled,
)
from repro.eval.control import report_to_dict
from repro.parallel.cache import make_key
from repro.serve import ServingScenario, simulate

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "engine_parity.json"

#: Paired equal timestamps stress the event loop's tie-breaking: at one
#: instant the kernel must keep arrival-before-completion ordering and
#: FIFO arrival order, exactly as the legacy (time, seq) heap did.
_TRACE = tuple(round(0.0007 * (i // 2), 6) for i in range(300))


def serve_scenarios() -> dict[str, ServingScenario]:
    return {
        "serve-default": ServingScenario(requests=2_000, seed=11),
        "serve-bursty-rr": ServingScenario(
            mix="v1-224",
            arrival="bursty",
            burst_factor=6.0,
            qps=1_500.0,
            requests=1_500,
            instances=2,
            policy="round-robin",
            seed=3,
        ),
        "serve-trace-affinity": ServingScenario(
            arrival="trace",
            trace=_TRACE,
            requests=300,
            instances=2,
            policy="affinity",
            max_batch=4,
            max_wait_ms=1.0,
            seed=1,
        ),
        # Sketch mode: round-robin takes the chunk-streaming runner,
        # least-loaded the build-then-run path with t-digest summaries.
        "serve-sketch-rr-stream": ServingScenario(
            requests=3_000,
            instances=3,
            policy="round-robin",
            stats="sketch",
            seed=17,
        ),
        "serve-sketch-ll": ServingScenario(
            requests=2_000,
            policy="least-loaded",
            stats="sketch",
            seed=19,
        ),
    }


def control_scenarios() -> dict[str, ControlScenario]:
    return {
        "control-priority-autoscale": ControlScenario(
            requests=1_200,
            qps=3_000.0,
            shedding="priority",
            queue_threshold=8,
            autoscale="utilization",
            seed=13,
        ),
        "control-deadline-overload": ControlScenario(
            mix="v1-224",
            qps=2_000.0,
            requests=800,
            instances=1,
            max_batch=1,
            max_wait_ms=0.0,
            slo_classes=(
                SLOClass("only", deadline_ms=50.0, target=0.9),
            ),
            shedding="deadline",
            seed=5,
        ),
        "control-dvfs-governor": ControlScenario(
            requests=600,
            instances=2,
            autoscale="dvfs",
            qps=1_200.0,
            seed=9,
        ),
        "control-hetero-fleet": ControlScenario(
            requests=500,
            qps=1_000.0,
            fleet=(
                InstanceSpec(voltage_v=0.8),
                InstanceSpec(voltage_v=0.6),
            ),
            shedding="queue-depth",
            queue_threshold=16,
            seed=21,
        ),
        "control-queue-delay-trace": ControlScenario(
            arrival="trace",
            trace=_TRACE,
            requests=300,
            instances=3,
            autoscale="queue-delay",
            tick_ms=2.0,
            min_instances=1,
            seed=2,
        ),
    }


def _json_roundtrip(payload) -> dict:
    """Normalize tuples to lists (and nothing else) for comparison."""
    return json.loads(json.dumps(payload))


def _run(name: str):
    serve = serve_scenarios()
    if name in serve:
        scenario = serve[name]
        return scenario, "serving_point", simulate(scenario)
    scenario = control_scenarios()[name]
    return scenario, "control_point", simulate_controlled(scenario)


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden() -> dict:
    return _golden()


@pytest.mark.parametrize(
    "name", [*serve_scenarios(), *control_scenarios()]
)
class TestLegacyParity:
    def test_report_bit_for_bit(self, name, golden):
        _, _, report = _run(name)
        assert _json_roundtrip(report_to_dict(report)) == (
            golden[name]["report"]
        )

    def test_cache_content_key_unchanged(self, name, golden):
        scenario, kind, _ = _run(name)
        assert make_key(kind, args=(scenario,)) == golden[name]["key"]


def _regenerate() -> None:
    payload = {}
    for name in [*serve_scenarios(), *control_scenarios()]:
        scenario, kind, report = _run(name)
        payload[name] = {
            "key": make_key(kind, args=(scenario,)),
            "report": _json_roundtrip(report_to_dict(report)),
        }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(payload)} scenarios)")


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        sys.exit("run with --regenerate to rewrite the golden file")
    _regenerate()
