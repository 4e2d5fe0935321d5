"""The chunked streaming mode's physics, pinned above one arrival chunk.

Every other serve test stays below 65,536 requests, the streaming
mode's arrival chunk, so only a million-request run crosses chunk
boundaries: deferred tail positions, carried busy horizons and a
digest compressed dozens of times.  This test runs the
``serve-rr-stream-1m`` benchmark workload's CLI arguments in-process at
two seeds and compares the physics digest of its ``--json`` payload
with the benchmark's stored reference.  ``perfbench/workloads.py`` and
``perfbench/refs.json`` are read, never written.
"""

import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]
WORKLOAD = "serve-rr-stream-1m"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their module while the class is built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("seed", [0, 1])
def test_million_request_stream_matches_reference(workloads, seed, tmp_path):
    workload = workloads.WORKLOADS[WORKLOAD]
    refs = json.loads((ROOT / "perfbench" / "refs.json").read_text())
    expected = refs["digests"][workload.reference_name][str(seed)]
    out = tmp_path / "report.json"
    assert main(workload.argv(seed, out, None), out=io.StringIO()) == 0
    payload = json.loads(out.read_text())
    assert [e["dispatch"] for e in payload["engine"]] == ["streaming"]
    assert workloads.digest(payload) == expected
