"""``tools/smoke_checks.py``: the assertions CI makes on its smoke
runs' ``--json`` reports.  Each check passes on the report of the
run CI makes it on, and a report that breaks a check fails it."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "smoke_checks.py"

_CLASSES = (
    "llm:deadline=25:model=mobilenet-v1-224,default:deadline=50:prio=1"
)

#: Check -> the arguments of the CI run whose report it reads.
RUNS = {
    "energy-and-classes": (
        "--requests 200 --instances 2 --shedding queue-depth "
        "--queue-threshold 16 --autoscale utilization --min-instances 1"
    ),
    "deadline-aware": (
        "--requests 300 --instances 2 --policy deadline-aware "
        "--shedding deadline"
    ),
    "energy-aware": "--requests 300 --fleet 0.8x2,0.6x2 --policy energy-aware",
    "multi-fleet": (
        "--requests 2000 --instances 2 --shedding deadline "
        "--multi-fleet-qps 9000,800 --modulator diurnal "
        f"--diurnal-period 0.2 --spillover deadline --slo-classes {_CLASSES}"
    ),
    "priority-donors": (
        "--requests 2000 --instances 2 --shedding priority "
        "--multi-fleet-qps 9000,9000,800 --modulator diurnal "
        "--diurnal-period 0.05 --spillover deadline --seed 1"
    ),
    "predictive": (
        "--requests 600 --arrival diurnal --diurnal-period 0.5 "
        "--autoscale predictive --min-instances 1"
    ),
    "two-timelines": (
        "--multi-fleet-qps 2000,800 --requests 2000 --spillover deadline "
        "--shedding deadline --trace {trace} --metrics-every 0.5"
    ),
    "observed-fold": (
        "--requests 5000 --qps 12000 --shedding deadline "
        "--policy round-robin --trace {trace} --metrics-every 0.05"
    ),
    "dropped-samples": (
        "--requests 3000 --policy round-robin --shedding deadline "
        "--metrics-every 0.0001"
    ),
}


@pytest.fixture(scope="module")
def smoke_checks():
    spec = importlib.util.spec_from_file_location("smoke_checks", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(name, tmp_path) -> Path:
    path = tmp_path / f"{name}.json"
    argv = RUNS[name].format(trace=tmp_path / "trace.json").split()
    code = repro_main(
        ["control", *argv, "--json", str(path)], out=io.StringIO()
    )
    assert code == 0
    return path


def test_every_ci_check_has_a_run(smoke_checks):
    assert list(RUNS) == list(smoke_checks.CHECKS)


@pytest.mark.parametrize("name", list(RUNS))
def test_check_passes_on_its_run(smoke_checks, name, tmp_path, capsys):
    path = _report(name, tmp_path)
    assert smoke_checks.main([name, str(path)]) == 0
    assert capsys.readouterr().out.strip() == f"{path}: {name} OK"


def test_a_broken_report_fails(smoke_checks, tmp_path, capsys):
    path = _report("observed-fold", tmp_path)
    payload = json.loads(path.read_text())
    payload["engine"][0]["dispatch"] = "rr"
    path.write_text(json.dumps(payload))
    assert smoke_checks.main(["observed-fold", str(path)]) == 1
    assert "observed-fold failed" in capsys.readouterr().err
    assert smoke_checks.main(["no-such-check", str(path)]) == 2
