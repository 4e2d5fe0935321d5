"""Benchmark trajectory records (``benchmarks/conftest.py``): each
session saved into the checkout carries a ``host`` block, and unsaved
sessions, or sessions whose JSON goes outside the checkout, write
nothing."""

from __future__ import annotations

import importlib.util
import json
import platform
import subprocess
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_conftest():
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _session(options):
    config = SimpleNamespace(
        getoption=lambda name, default=None: options.get(name, default)
    )
    return SimpleNamespace(config=config)


def test_host_identity_fields(bench_conftest):
    host = bench_conftest.host_identity()
    assert set(host) == {"git_sha", "python", "numpy", "machine", "nproc"}
    assert host["python"] == platform.python_version()
    assert host["numpy"] == np.__version__
    assert host["machine"] == platform.machine()
    assert host["nproc"] >= 1


def test_git_sha_only_from_own_checkout(bench_conftest, tmp_path):
    # A directory without its own .git reports no SHA, even when it sits
    # inside some other repository.
    assert bench_conftest.host_identity(tmp_path)["git_sha"] is None
    sha = bench_conftest.host_identity(ROOT)["git_sha"]
    if not (ROOT / ".git").exists():
        assert sha is None
        return
    expected = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT,
        capture_output=True, text=True,
    ).stdout.strip()
    assert sha == expected


def test_saved_session_record_has_host(bench_conftest, tmp_path, monkeypatch):
    log = tmp_path / "BENCH_engine.json"
    monkeypatch.setattr(bench_conftest, "BENCH_LOG", log)
    bench_conftest._session_records.append({"test": "t"})
    bench_conftest.pytest_sessionfinish(
        _session({"benchmark_json": str(ROOT / "out.json")}), 0
    )
    (record,) = json.loads(log.read_text())
    assert record["benchmarks"] == [{"test": "t"}]
    assert record["host"] == bench_conftest.host_identity()


def test_unsaved_session_writes_nothing(bench_conftest, tmp_path, monkeypatch):
    log = tmp_path / "BENCH_engine.json"
    monkeypatch.setattr(bench_conftest, "BENCH_LOG", log)
    bench_conftest._session_records.append({"test": "t"})
    bench_conftest.pytest_sessionfinish(_session({}), 0)
    assert not log.exists()
    assert bench_conftest._session_records == []


@pytest.mark.parametrize(
    "options",
    [
        {"benchmark_json": str(ROOT / ".benchmarks" / "b.json")},
        # pytest-benchmark passes --benchmark-json as an open file.
        {"benchmark_json": SimpleNamespace(name=str(ROOT / "b.json"))},
        {"benchmark_save": "name"},
        {"benchmark_autosave": True},
        {
            "benchmark_json": "/nonexistent-outside/b.json",
            "benchmark_save": "name",
        },
    ],
    ids=["json-inside", "json-file-inside", "save", "autosave",
         "save-beside-outside-json"],
)
def test_session_saved_into_checkout_appends(
    bench_conftest, tmp_path, monkeypatch, options
):
    log = tmp_path / "BENCH_engine.json"
    monkeypatch.setattr(bench_conftest, "BENCH_LOG", log)
    bench_conftest._session_records.append({"test": "t"})
    bench_conftest.pytest_sessionfinish(_session(options), 0)
    (record,) = json.loads(log.read_text())
    assert record["benchmarks"] == [{"test": "t"}]


@pytest.mark.parametrize("as_file", [False, True], ids=["path", "file"])
def test_json_outside_checkout_writes_nothing(
    bench_conftest, tmp_path, monkeypatch, as_file
):
    # A parent-vs-change comparison writes its JSON to scratch space:
    # the tracked log must stay untouched.
    target = tmp_path / "scratch" / "b.json"
    assert not target.resolve().is_relative_to(ROOT)
    option = SimpleNamespace(name=str(target)) if as_file else str(target)
    log = tmp_path / "BENCH_engine.json"
    monkeypatch.setattr(bench_conftest, "BENCH_LOG", log)
    bench_conftest._session_records.append({"test": "t"})
    bench_conftest.pytest_sessionfinish(
        _session({"benchmark_json": option}), 0
    )
    assert not log.exists()
    assert bench_conftest._session_records == []
