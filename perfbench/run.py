"""End-to-end benchmark of the ``repro`` CLI, one workload per call.

Every measured run is a fresh ``python -m repro ...`` subprocess,
spawned one at a time (a single client in a closed loop, ``--jobs``
left at 1).  All figures are host time; the simulated statistics are
deterministic outputs, checked for exact equality and never timed.
The serving model has no reference measurements, so it is unvalidated
and no accuracy figure is given.  Caches start empty: no
``--cache-dir`` is passed and every run is a fresh process.

``--trace 0`` (end to end, tracing off) repeats the workload (at least
three times) and the set-up probe (at least five times) for
``--seconds`` and prints:

* ``wall_s`` — spawn to exit, with the ``--json`` file written;
* ``setup_s`` — spawn until ``repro.cli`` is imported and the
  workload's service profiles are built;
* ``req_per_s`` — offered requests / ``wall_s``;
* ``peak_rss_mib`` — the child's own max RSS (``wait4``), median;
* ``ok_ratio`` — runs that exited 0 and passed the output check, over
  runs attempted (1 - failed ratio).

The times are the fastest repetition: the host's CPU speed drifts by
tens of percent over minutes, so a run's median inherits whichever
phase it landed in while its fastest repetition tracks the program's
own cost.  The median, quartiles and sample count of every metric are
printed beside it.

``--trace 1`` alternates untraced runs with traced ones
(``traced_child.py``: the same CLI call in-process, with a span around
each call into a layer's public functions) and prints every layer's
self time and call count from the fastest traced run, the engine
counters with their dispatch labels, and ``trace_overhead.s``.

Every run's physics payload (``reports`` or ``multi_fleet`` in
``--json``, without ``engine``/``metrics``) must equal the stored
reference digest in ``refs.json`` for that workload and seed (or, for a
seed without one, every other run of the same seed), and must conserve
requests.  ``ctl-rr-observed`` must reproduce ``ctl-rr-overload``'s
physics, and its trace must pass ``tools/check_trace.py``.

Usage::

    python3 perfbench/run.py --workload ctl-ll-overload --seed 1 \\
        --seconds 40 --trace 0 [--out result.json]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (
    BENCH_DIR,
    ROOT,
    SRC,
    TMP_ROOT,
    WORKLOADS,
    Workload,
    child_env,
    digest,
    host_identity,
    spread,
)

#: Fewest workload runs a measurement keeps, however long they take.
MIN_REPS = 3
#: Fewest fresh-interpreter set-up probes per run.
SETUP_PROBES = 5
#: A child still running after this long is killed and counted failed.
CHILD_TIMEOUT_S = 60.0
#: Hard limit on one invocation's measuring, whatever ``--seconds``
#: and ``MIN_REPS`` ask for: no child outlives it, so the benchmark
#: always exits within three minutes.
HARD_LIMIT_S = 150.0

#: Layers with a span in ``traced_child.py``, in pipeline order.
LAYERS = (
    "imports",
    "serve.profile",
    "serve.arrival",
    "serve.engine.build_requests",
    "control.simulator.prepare",
    "serve.engine.run",
    "control.simulator.finalize",
    "control.tenancy.simulate_multi_fleet",
    "serve.simulator.simulate",
    "eval.render",
    "cli.json",
    "obs.write_trace",
    "obs.metrics_payload",
    "cli.other",
)


@dataclass
class Rep:
    """One child process: its timings and the output check's verdict."""

    wall: float
    rss_mib: float
    error: str = ""
    payload: dict | None = None
    trace_bytes: int = 0
    spans: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.error


@dataclass
class Child:
    code: int
    wall: float
    rss_mib: float
    stdout: bytes = b""
    stderr: str = ""


def run_child(argv, tmp: Path, timeout: float, t0=None, capture=False):
    """Spawn ``argv``, wait for it with ``wait4`` (killing it after
    ``timeout`` seconds) and return its exit code, spawn-to-exit wall
    time and its own peak RSS."""
    err_path = tmp / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter() if t0 is None else t0
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
            stderr=err,
            env=child_env(),
            cwd=ROOT,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read() if capture else b""
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            if proc.stdout is not None:
                proc.stdout.close()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace").strip()
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, out, stderr)


def _load_check_trace():
    spec = importlib.util.spec_from_file_location(
        "check_trace", ROOT / "tools" / "check_trace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_trace


def invariant_problem(workload: Workload, payload: dict) -> str:
    """Conservation checks that hold at any seed ("" when they pass)."""
    try:
        if workload.plane == "fleets":
            mf = payload["multi_fleet"]
            offered = mf["offered_requests"]
            if not mf["conserved"] or (
                mf["completed_requests"] + mf["shed_requests"] != offered
            ):
                return "multi-fleet run does not conserve requests"
        else:
            (report,) = payload["reports"]
            offered = report["offered_requests"]
            if report["requests"] + report["shed_requests"] != offered:
                return "completed + shed != offered"
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed --json payload ({exc!r})"
    if offered != workload.requests:
        return f"offered {offered} requests, expected {workload.requests}"
    return ""


def layer_breakdown(spans: list[dict]) -> tuple[float, dict, dict]:
    """``(total, self seconds by layer, calls by layer)``: a span's self
    time is its duration minus its children's, so the layers' self
    times sum to the root span's duration."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for s, seconds in zip(spans, own):
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + seconds
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    calls["cli.other"] = 0  # the root span is the run, not a call
    return spans[0]["end"] - spans[0]["start"], self_s, calls


@dataclass
class Bench:
    """One benchmark invocation: a workload at a seed, with its
    attempt/failure accounting and output-check state."""

    workload: Workload
    seed: int
    tmp: Path
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    refs: dict = field(default_factory=dict)
    _seen: dict = field(default_factory=dict)
    _trace_digest: str | None = None
    _deadline: float = float("inf")

    def __post_init__(self) -> None:
        path = BENCH_DIR / "refs.json"
        if path.is_file():
            with open(path) as handle:
                self.refs = json.load(handle)["digests"]

    def start_clock(self) -> None:
        self._deadline = time.perf_counter() + HARD_LIMIT_S

    def out_of_time(self) -> bool:
        return time.perf_counter() > self._deadline

    def _timeout(self) -> float:
        left = self._deadline - time.perf_counter()
        return max(1.0, min(CHILD_TIMEOUT_S, left))

    def stored_reference(self, workload: Workload) -> str | None:
        return self.refs.get(workload.reference_name, {}).get(str(self.seed))

    # -- output check --------------------------------------------------

    def _check(self, workload: Workload, child: Child, rep: Rep) -> str:
        if child.code != 0:
            tail = child.stderr.splitlines()[-1:] or ["(no stderr)"]
            return f"exit {child.code}: {tail[0]}"
        json_path = self.tmp / "out.json"
        try:
            with open(json_path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            return f"no --json output ({exc})"
        rep.payload = payload
        problem = invariant_problem(workload, payload)
        if problem:
            return problem
        found = digest(payload)
        ref = self.stored_reference(workload)
        if ref is not None and found != ref:
            return "physics differ from the stored reference"
        seen = self._seen.setdefault(workload.reference_name, found)
        if found != seen:
            return "physics differ from another run of the same seed"
        if workload.observed:
            return self._check_trace(rep)
        return ""

    def _check_trace(self, rep: Rep) -> str:
        trace_path = self.tmp / "out.trace.json"
        try:
            data = trace_path.read_bytes()
        except OSError as exc:
            return f"no --trace output ({exc})"
        rep.trace_bytes = len(data)
        found = hashlib.sha256(data).hexdigest()
        if self._trace_digest is None:
            try:
                _load_check_trace()(str(trace_path))
            except ValueError as exc:
                return f"trace check failed: {exc}"
            self._trace_digest = found
        elif found != self._trace_digest:
            return "trace differs from the first run's"
        return ""

    def _record(self, workload: Workload, child: Child, rep: Rep) -> Rep:
        self.attempted += 1
        rep.error = self._check(workload, child, rep)
        if rep.error:
            self.failed += 1
            self.errors.append(f"{workload.name}: {rep.error}")
        for name in ("out.json", "out.trace.json"):
            (self.tmp / name).unlink(missing_ok=True)
        return rep

    # -- children --------------------------------------------------------

    def _outputs(self, workload: Workload) -> list[str]:
        return workload.argv(
            self.seed, self.tmp / "out.json", self.tmp / "out.trace.json"
        )

    def warm_up(self) -> None:
        """Compile bytecode and fill the page cache (not measured)."""
        run_child(
            [sys.executable, "-c", "import repro.cli"], self.tmp, self._timeout()
        )

    def setup_probe(self) -> float | None:
        plane = self.workload.plane
        fleets = "2" if plane == "fleets" else "1"
        t0 = time.perf_counter()
        child = run_child(
            [sys.executable, str(BENCH_DIR / "setup_child.py"), plane, fleets],
            self.tmp,
            self._timeout(),
            t0=t0,
            capture=True,
        )
        self.attempted += 1
        try:
            if child.code != 0:
                raise ValueError(f"exit {child.code}")
            return float(child.stdout.split()[-1]) - t0
        except (ValueError, IndexError) as exc:
            self.failed += 1
            self.errors.append(f"setup probe failed ({exc}): {child.stderr}")
            return None

    def run(self, workload: Workload | None = None) -> Rep:
        """One untraced ``python -m repro`` run."""
        workload = workload or self.workload
        child = run_child(
            [sys.executable, "-m", "repro", *self._outputs(workload)],
            self.tmp,
            self._timeout(),
        )
        return self._record(workload, child, Rep(child.wall, child.rss_mib))

    def traced(self, workload: Workload | None = None) -> Rep:
        """One traced in-process run (``traced_child.py``)."""
        workload = workload or self.workload
        spans_path = self.tmp / "spans.json"
        t0 = time.perf_counter()
        argv = [
            sys.executable,
            str(BENCH_DIR / "traced_child.py"),
            repr(t0),
            workload.name,
            str(spans_path),
            "--",
            *self._outputs(workload),
        ]
        child = run_child(argv, self.tmp, self._timeout(), t0=t0)
        rep = Rep(child.wall, child.rss_mib)
        try:
            with open(spans_path) as handle:
                rep.spans = json.load(handle)
        except (OSError, ValueError) as exc:
            rep.spans = None
            child.stderr += f"\nno spans written ({exc})"
            child.code = child.code or 1
        spans_path.unlink(missing_ok=True)
        return self._record(workload, child, rep)

    def companion_check(self) -> None:
        """Telemetry must not change physics: without a stored
        reference, run the reference workload once at the same seed
        (its physics check compares against this run's)."""
        workload = self.workload
        if workload.reference and self.stored_reference(workload) is None:
            self.run(WORKLOADS[workload.reference])

    # -- measurements ----------------------------------------------------

    def end_to_end(self, seconds: float):
        self.start_clock()
        self.warm_up()
        start = time.perf_counter()
        reps: list[Rep] = []
        setups: list[float | None] = []
        every = 1
        while True:
            reps.append(self.run())
            if len(reps) == 1:
                # Spread the probes over the run, so that they sample the
                # host's speed at different times, like the runs do.
                every = max(1, int(seconds / reps[0].wall) // SETUP_PROBES)
            if len(reps) % every == 0:
                setups.append(self.setup_probe())
            elapsed = time.perf_counter() - start
            mean = elapsed / len(reps)
            if len(reps) >= MIN_REPS and elapsed + mean > seconds:
                break
            if self.out_of_time():
                break
        while len(setups) < SETUP_PROBES and not self.out_of_time():
            setups.append(self.setup_probe())
        setups = [s for s in setups if s is not None]
        self.companion_check()
        timed = [r for r in reps if r.ok] or reps
        requests = self.workload.requests
        samples = {
            "wall_s": [r.wall for r in timed],
            "setup_s": setups or [0.0],
            "req_per_s": [requests / r.wall for r in timed],
            "peak_rss_mib": [r.rss_mib for r in timed],
        }
        # Times are the fastest repetition (see the module docstring).
        metrics = {
            "wall_s": min(samples["wall_s"]),
            "setup_s": min(samples["setup_s"]),
            "req_per_s": max(samples["req_per_s"]),
            "peak_rss_mib": statistics.median(samples["peak_rss_mib"]),
            "ok_ratio": 1.0 - self.failed / self.attempted,
        }
        samples["ok_ratio"] = [metrics["ok_ratio"]]
        return metrics, samples, {}

    def per_layer(self, seconds: float):
        self.start_clock()
        self.warm_up()
        workload = self.workload
        companion = WORKLOADS.get(workload.reference or "")
        start = time.perf_counter()
        plain, traced, base = [], [], []
        while True:
            plain.append(self.run())
            traced.append(self.traced())
            if companion is not None:
                base.append(self.traced(companion))
            elapsed = time.perf_counter() - start
            if elapsed * (len(plain) + 1) / len(plain) > seconds:
                break
            if self.out_of_time():
                break
        usable = [r for r in traced if r.ok] or traced
        usable = [r for r in usable if r.spans] or None
        if usable is None:
            return {}, {}, {}
        # The fastest traced run, as the end-to-end times are the
        # fastest untraced run.
        rep = min(usable, key=lambda r: layer_breakdown(r.spans["spans"])[0])
        total, self_s, calls = layer_breakdown(rep.spans["spans"])
        metrics = {f"{name}.s": self_s[name] for name in LAYERS}
        metrics["traced.total.s"] = total
        metrics["trace_overhead.s"] = min(r.wall for r in usable) - min(
            r.wall for r in ([p for p in plain if p.ok] or plain)
        )
        metrics["obs.run_overhead.s"] = 0.0
        base = [r for r in base if r.ok and r.spans]
        if base:
            metrics["obs.run_overhead.s"] = self_s["serve.engine.run"] - min(
                layer_breakdown(r.spans["spans"])[1]["serve.engine.run"]
                for r in base
            )
        metrics["obs.trace_bytes"] = rep.trace_bytes
        engines = rep.spans["engine"]
        events = sum(e["events"] for e in engines)
        kernel_s = self_s["serve.engine.run"] or self_s[
            "serve.simulator.simulate"
        ]
        metrics["serve.engine.events"] = events
        metrics["serve.engine.events_per_s"] = (
            events / kernel_s if kernel_s > 0 else 0.0
        )
        metrics["serve.engine.events_per_request"] = events / workload.requests
        metrics["serve.engine.peak_heap"] = max(
            (e["peak_heap"] for e in engines), default=0
        )
        metrics.update(physics_counts(workload, rep.payload or {}))
        labels = {
            "dispatch": ",".join(dict.fromkeys(e["dispatch"] for e in engines)),
            "fallback": next((e["fallback"] for e in engines if e["fallback"]), ""),
            "calls": calls,
        }
        return metrics, {}, labels


def physics_counts(workload: Workload, payload: dict) -> dict:
    """Deterministic simulated counts read off the ``--json`` payload."""
    if workload.plane == "fleets":
        mf = payload.get("multi_fleet", {})
        spilled = mf.get("spilled_requests", 0)
        offered = mf.get("offered_requests", 0)
        return {
            "control.tenancy.spilled": spilled,
            "control.tenancy.spill_completed_ratio": (
                mf.get("spill_completed", 0) / spilled if spilled else 0.0
            ),
            "control.autoscale.actions": sum(
                f.get("autoscale_events", 0) for f in mf.get("fleets", [])
            ),
            "admitted_ratio": (
                mf.get("completed_requests", 0) / offered if offered else 0.0
            ),
        }
    (report,) = payload.get("reports", [{}])
    offered = report.get("offered_requests", 0)
    return {
        "control.tenancy.spilled": 0,
        "control.tenancy.spill_completed_ratio": 0.0,
        "control.autoscale.actions": report.get("autoscale_events", 0),
        "admitted_ratio": report.get("requests", 0) / offered if offered else 0.0,
    }


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(bench: Bench, trace: bool, metrics, samples, labels, spec):
    workload = bench.workload
    print(f"workload {workload.name}  seed {bench.seed}  trace {int(trace)}")
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if not trace:
        print(
            f"  {'metric':<14}{'value':>12}{'min':>12}{'q1':>12}{'median':>12}"
            f"{'q3':>12}{'max':>12}{'n':>4}  unit"
        )
        for name, values in samples.items():
            med, q1, q3, _ = spread(values)
            print(
                f"  {name:<14}{_fmt(metrics[name]):>12}{_fmt(min(values)):>12}"
                f"{_fmt(q1):>12}{_fmt(med):>12}{_fmt(q3):>12}"
                f"{_fmt(max(values)):>12}{len(values):>4}  {units.get(name, '')}"
            )
    else:
        total = metrics.get("traced.total.s", 0.0) or 1.0
        print(f"  {'layer':<38}{'self s':>10}{'share':>8}{'calls':>7}")
        for name in LAYERS:
            seconds = metrics.get(f"{name}.s", 0.0)
            calls = labels.get("calls", {}).get(name, 0)
            print(
                f"  {name:<38}{seconds:>10.4f}{100 * seconds / total:>7.1f}%"
                f"{calls:>7}"
            )
        layer_sum = sum(metrics.get(f"{name}.s", 0.0) for name in LAYERS)
        print(f"  {'(sum of layers)':<38}{layer_sum:>10.4f}")
        for name, value in metrics.items():
            if not any(name == f"{layer}.s" for layer in LAYERS):
                print(f"  {name:<38}{_fmt(value):>14}  {units.get(name, '')}")
        print(f"  dispatch: {labels.get('dispatch', '')}")
        print(f"  fallback: {labels.get('fallback', '') or '(none)'}")
    for error in bench.errors:
        print(f"  FAILED {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=None, help="also write the full result record here"
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    from workloads import load_spec

    spec = load_spec()
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    bench = Bench(WORKLOADS[args.workload], args.seed, tmp)
    try:
        measure = bench.per_layer if args.trace else bench.end_to_end
        metrics, samples, labels = measure(args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[kind]}
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        bench.errors.append(f"metrics not measured: {', '.join(missing)}")
    host = host_identity(args.seed)
    print_report(bench, bool(args.trace), metrics, samples, labels, spec)
    print("host " + json.dumps(host, sort_keys=True))
    result = {
        "correct": bench.failed == 0 and not missing,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in wanted.items()
        },
    }
    if args.out:
        record = {
            **result,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": host,
            "samples": samples,
            "labels": labels,
            "errors": bench.errors,
        }
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
