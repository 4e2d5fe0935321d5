"""Workload definitions, paths and host identity shared by the
benchmark scripts.

Every workload is one ``repro`` CLI invocation.  The seed is the only
input the benchmark varies; it reaches the program as ``--seed``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
from dataclasses import dataclass
from pathlib import Path

#: Checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for ``--json``/``--trace`` output.  Inside the
#: checkout (the benchmark touches nothing outside it) but ignored by
#: git, and emptied by every run that created it.
TMP_ROOT = ROOT / ".perfbench_tmp"

_OVERLOAD = ("--requests", "25000", "--qps", "12000", "--shedding", "deadline")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Workload id (``--workload``).
        args: CLI arguments after ``repro``, without seed and outputs.
        requests: Offered requests the run simulates (the numerator of
            ``req_per_s``).
        plane: ``"control"``, ``"fleets"`` or ``"serve"`` — which
            payload shape the ``--json`` file has and which service
            profiles set-up builds.
        observed: Also writes ``--trace`` (checked by
            ``tools/check_trace.py``).
        reference: Workload whose stored reference the physics payload
            must equal (telemetry must not change the physics).
    """

    name: str
    args: tuple[str, ...]
    requests: int
    plane: str
    observed: bool = False
    reference: str | None = None

    @property
    def reference_name(self) -> str:
        return self.reference or self.name

    def argv(self, seed: int, json_path: Path, trace_path: Path | None):
        """Full CLI argument list (after ``repro``) for one run."""
        argv = [*self.args, "--seed", str(seed), "--json", str(json_path)]
        if self.observed:
            argv += ["--trace", str(trace_path), "--metrics-every", "0.05"]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ctl-ll-overload",
            ("control", *_OVERLOAD),
            25_000,
            "control",
        ),
        Workload(
            "ctl-rr-overload",
            ("control", *_OVERLOAD, "--policy", "round-robin"),
            25_000,
            "control",
        ),
        Workload(
            "ctl-rr-observed",
            ("control", *_OVERLOAD, "--policy", "round-robin"),
            25_000,
            "control",
            observed=True,
            reference="ctl-rr-overload",
        ),
        Workload(
            "fleets-diurnal-governed",
            (
                "control", "--multi-fleet-qps", "10000,3000",
                "--modulator", "diurnal", "--diurnal-period", "2",
                "--spillover", "deadline", "--shedding", "deadline",
                "--autoscale", "predictive", "--requests", "12500",
            ),
            25_000,
            "fleets",
        ),
        Workload(
            "serve-rr-stream-1m",
            (
                "serve", "--policy", "round-robin", "--stats", "sketch",
                "--requests", "1000000",
            ),
            1_000_000,
            "serve",
        ),
    )
}


def spread(values) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` of a sample, quartiles
    as ``statistics.quantiles(values, n=4)`` gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def child_env() -> dict:
    """Environment for every child: the package from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def load_spec() -> dict:
    """``BENCHMARK.json`` (metric names, units, bounds)."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def physics(payload: dict) -> dict:
    """The simulated outcome of a ``--json`` payload: ``reports`` or
    ``multi_fleet``, without the execution telemetry (``engine``,
    ``metrics``) a faster dispatch path may legitimately change."""
    return {
        key: value
        for key, value in payload.items()
        if key not in ("engine", "metrics")
    }


def digest(payload: dict) -> str:
    """Content digest of a physics payload (floats as repr, exact)."""
    text = json.dumps(physics(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over ``src/`` (paths and bytes): identifies the code even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_identity(seed: int) -> dict:
    """What makes results from different hosts and commits
    distinguishable."""
    # Only this checkout's own repository: a checkout without .git
    # must not report the SHA of some enclosing repository.
    is_repo = (ROOT / ".git").exists()
    sha = _git("rev-parse", "HEAD") if is_repo else None
    status = (
        _git("status", "--porcelain", "--untracked-files=no")
        if is_repo
        else None
    )
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "machine": platform.machine(),
        "seed": seed,
    }
