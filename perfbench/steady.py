"""Steadiness check: run ``run.py`` at several seeds per workload and
print the median and quartiles of every end-to-end metric.

The spread of a metric is the distance between its first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of its
median.  A metric is steady when its spread is under a third of the
bound ``BENCHMARK.json`` gives it (``setup_s`` is exempt: its bound
only limits how far its median may move).  Seeds run interleaved
across workloads, one process at a time.

Usage::

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] \\
        [--first-seed 0] [--seconds N] [--out steady.json]

``--out`` writes a record that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

from workloads import (
    BENCH_DIR,
    ROOT,
    TMP_ROOT,
    WORKLOADS,
    host_identity,
    load_spec,
    spread,
)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One ``run.py --trace 0`` invocation; returns its full record
    (result, host identity, per-run samples, errors)."""
    TMP_ROOT.mkdir(exist_ok=True)
    fd, out = tempfile.mkstemp(dir=TMP_ROOT, suffix=".json")
    os.close(fd)
    argv = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        "--out", out,
    ]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(
                f"{workload} seed {seed}: exit {proc.returncode}\n"
                f"{proc.stderr}"
            )
        with open(out) as handle:
            record = json.load(handle)
    finally:
        os.unlink(out)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    for error in record["errors"]:
        print(f"    FAILED {error}", file=sys.stderr)
    return record


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    for name in workloads:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}")
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    runs: dict[str, list] = {name: [] for name in workloads}
    for seed in seeds:
        for name in workloads:
            result = run_once(name, seed, args.seconds)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs[name].append({**result, "metrics": metrics})
            print(
                f"  {name} seed {seed}: correct={result['correct']} "
                + " ".join(f"{k}={v:.5g}" for k, v in metrics.items()),
                file=sys.stderr,
                flush=True,
            )

    steady = True
    for name in workloads:
        print(f"{name} ({len(runs[name])} runs)")
        print(
            f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
            f"{'spread':>9}{'bound':>7}  verdict"
        )
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values = [r["metrics"][key] for r in runs[name]]
            median, q1, q3, width = spread(values)
            bound = metric["bound"]
            if key == "setup_s":
                verdict = "(not checked)"
            elif width < bound / 3:
                verdict = "steady"
            elif width <= bound:
                verdict = "within bound, not steady"
                steady = False
            else:
                verdict = "TOO WIDE"
                steady = False
            print(
                f"  {key:<14}{median:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                f"{width:>8.1%}{bound:>7.2f}  {verdict}"
            )
        incorrect = sum(not r["correct"] for r in runs[name])
        if incorrect:
            steady = False
            print(f"  {incorrect} run(s) failed the output check")
    if args.out:
        record = {
            "host": host_identity(args.first_seed),
            "seconds": args.seconds,
            "runs": runs,
        }
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
