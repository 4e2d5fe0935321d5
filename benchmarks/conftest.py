"""Shared fixtures for the benchmark harness.

The benchmarks regenerate every table and figure of the paper's
evaluation.  The measured experiments (Figs. 11/12) run on the full-width
(1.0) MobileNetV1 workload, prepared once per session: brief training on
synthetic data, int8 quantization, and one verified accelerator run.

Every benchmark's ``extra_info`` additionally records the process's
peak RSS, so memory claims (like the engine's flat-arena scaling) are
machine-checkable from the emitted benchmark JSON alongside wall-clock.

A session that asks pytest-benchmark to save its results into this
checkout (``--benchmark-json PATH`` with ``PATH`` inside it,
``--benchmark-save NAME`` or ``--benchmark-autosave``) also appends one
record per benchmark —
wall-clock, events/sec where the benchmark reports one, and the full
``extra_info`` — to ``BENCH_engine.json`` next to this file, building
a machine-readable perf trajectory across runs.  Each session record
carries a ``host`` block (git SHA, Python/numpy versions, machine and
CPU count) so records from different commits and hosts stay
distinguishable.  Plain test runs
(tier-1 included) and sessions whose only output is a JSON file outside
the checkout (a scratch parent-vs-change comparison) record nothing and
leave the file untouched.
"""

import json
import os
import platform
import resource
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from repro.eval.workloads import prepare_workload

#: Perf-trajectory log: one JSON array of session records, appended
#: per measured session so regressions are diffable in-repo.
BENCH_LOG = Path(__file__).with_name("BENCH_engine.json")
#: The checkout the log belongs to.
CHECKOUT = Path(__file__).resolve().parent.parent

_session_records = []


def host_identity(root: Path = CHECKOUT) -> dict:
    """Commit, toolchain and machine that produced a session record.

    The SHA is read only when ``root`` has its own ``.git``: a checkout
    without one must not report the commit of an enclosing repository.
    """
    sha = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root,
                capture_output=True, text=True, timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            proc = None
        if proc is not None and proc.returncode == 0:
            sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


@pytest.fixture(scope="session")
def full_workload():
    """Full-width MobileNetV1 workload (the paper's network)."""
    return prepare_workload(
        width_multiplier=1.0, num_samples=48, train_epochs=1, batch_size=12
    )


def _trajectory_record(node_name, benchmark):
    """One perf-trajectory entry, or None without measured stats
    (``--benchmark-disable``, or the benchmark body failed)."""
    metadata = getattr(benchmark, "stats", None)
    stats = getattr(metadata, "stats", None)
    if stats is None or not getattr(stats, "data", None):
        return None
    extra = dict(benchmark.extra_info)
    record = {
        "test": node_name,
        "group": getattr(benchmark, "group", None),
        "wall_clock_s": round(float(stats.min), 6),
        "mean_s": round(float(stats.mean), 6),
        "rounds": len(stats.data),
        "extra_info": extra,
    }
    # Surface a headline events/sec when the benchmark reports one
    # (the fast-path side when several rates are recorded).
    rates = [
        v
        for k, v in extra.items()
        if k.endswith("events_per_sec") and isinstance(v, (int, float))
    ]
    if rates:
        record["events_per_sec"] = max(rates)
    return record


@pytest.fixture(autouse=True)
def _record_benchmark_telemetry(request):
    """Record peak RSS into every benchmark's ``extra_info``, then
    queue the benchmark's perf-trajectory entry for the session log.

    ``ru_maxrss`` is a process-lifetime high-water mark (KiB on
    Linux), so the value is an upper bound per test — but regressions
    that leak memory proportional to workload size still surface in
    the emitted JSON.
    """
    # Resolve the fixture at setup: by teardown time the benchmark
    # fixture is already finalized and getfixturevalue refuses, but
    # the fixture object itself (stats, extra_info) outlives it.
    benchmark = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    yield
    if benchmark is None:
        return
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    benchmark.extra_info["peak_rss_mib"] = round(rss_kib / 1024, 1)
    record = _trajectory_record(request.node.name, benchmark)
    if record is not None:
        _session_records.append(record)


def _saving_results(config) -> bool:
    """Whether pytest-benchmark was asked to save this session into
    this checkout: ``--benchmark-save``/``--benchmark-autosave``, or a
    ``--benchmark-json`` path inside it (pytest-benchmark hands the
    option over as an open file; its ``name`` is the path given)."""
    if config.getoption("benchmark_save", default=None) or config.getoption(
        "benchmark_autosave", default=None
    ):
        return True
    target = config.getoption("benchmark_json", default=None)
    if not target:
        return False
    path = Path(os.fsdecode(getattr(target, "name", target))).resolve()
    return path.is_relative_to(CHECKOUT)


def pytest_sessionfinish(session, exitstatus):
    """Append this session's measured benchmarks to the trajectory,
    when the session saves its benchmark results."""
    if not _session_records or not _saving_results(session.config):
        _session_records.clear()
        return
    history = []
    if BENCH_LOG.exists():
        try:
            history = json.loads(BENCH_LOG.read_text())
        except (OSError, ValueError):
            history = []
    if not isinstance(history, list):
        history = []
    history.append(
        {
            "timestamp": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "host": host_identity(),
            "benchmarks": _session_records,
        }
    )
    BENCH_LOG.write_text(json.dumps(history, indent=2) + "\n")
    _session_records.clear()
