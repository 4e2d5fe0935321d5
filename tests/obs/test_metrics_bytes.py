"""Metrics payload bytes at windows the parity grid never uses.

``obs_parity.json`` pins every case at one 0.02 s window.  This golden
pins the sha256 of ``json.dumps(metrics_payload(), indent=2)`` — the
exact text ``--json`` embeds — for coarse, fine and ring-overflowing
windows: an ungoverned round-robin run whose grid outgrows the
4096-sample cap, a governed run whose window is finer than its tick,
and a two-fleet spillover run at a fine window.

Regenerate (only when the timeline's semantics intentionally change)::

    PYTHONPATH=src python tests/obs/test_metrics_bytes.py --regenerate
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.control import (
    ControlScenario,
    MultiFleetScenario,
    simulate_controlled,
    simulate_multi_fleet,
)
from repro.obs import Observability

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "obs_metrics_bytes.json"

_RR = ControlScenario(
    requests=3000, policy="round-robin", shedding="deadline", seed=3
)
_PREDICTIVE = ControlScenario(
    requests=3000,
    autoscale="predictive",
    arrival="diurnal",
    diurnal_period_s=0.1,
    shedding="deadline",
    seed=5,
)


def _two_fleets() -> MultiFleetScenario:
    base = ControlScenario(requests=1500, instances=2, shedding="deadline")
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
    """Case name -> ``(plane, scenario, window_s)``."""
    return {
        "control-rr-deadline-0.5": ("control", _RR, 0.5),
        "control-rr-deadline-0.003": ("control", _RR, 0.003),
        "control-rr-deadline-1e-4": ("control", _RR, 1e-4),
        "control-predictive-diurnal-0.001": ("control", _PREDICTIVE, 0.001),
        "fleets-spillover-1e-4": ("fleets", _two_fleets(), 1e-4),
    }


def metrics_text(plane: str, scenario, window_s: float) -> str:
    obs = Observability(metrics_every_s=window_s)
    if plane == "control":
        simulate_controlled(scenario, obs=obs)
    else:
        simulate_multi_fleet(scenario, obs=obs)
    return json.dumps(obs.metrics_payload(), indent=2)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", list(cases()))
def test_metrics_payload_bytes_equal_golden(name, golden):
    text = metrics_text(*cases()[name])
    assert _sha256(text) == golden[name]["sha256"]
    payload = json.loads(text)
    assert [t["dropped_samples"] for t in payload["timelines"]] == (
        golden[name]["dropped_samples"]
    )


def test_fine_window_overflows_the_ring(golden):
    """The 1e-4 cases exercise the cap (a silent no-op otherwise)."""
    assert golden["control-rr-deadline-1e-4"]["dropped_samples"][0] > 0
    assert max(golden["fleets-spillover-1e-4"]["dropped_samples"]) > 0


def _regenerate() -> None:
    payload = {}
    for name, case in cases().items():
        text = metrics_text(*case)
        payload[name] = {
            "sha256": _sha256(text),
            "dropped_samples": [
                t["dropped_samples"]
                for t in json.loads(text)["timelines"]
            ],
        }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(payload)} cases)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        sys.exit("run with --regenerate to rewrite the golden file")
