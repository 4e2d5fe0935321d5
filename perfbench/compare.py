"""Compare two ``steady.py --out`` records, metric by metric and
workload by workload.

Runs pair up in order (``steady.py`` runs seeds in ascending order, so
records made with the same ``--first-seed`` pair equal inputs).
Each end-to-end metric on each workload is labelled with the paired
rule of the choosing-metrics method:

* ``better`` — the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ, in the better direction,
  by more than the parent's own quartile distance;
* ``unresolved`` — otherwise, when either side's spread (quartile
  distance over median) is wider than the metric's bound, unless every
  run of the change reads better than every run of the parent;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``unchanged`` — everything else.

Usage::

    python3 perfbench/compare.py PARENT.json CHANGE.json

Exits 1 when any pairing is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys

from workloads import load_spec, spread


def label(parent, change, better: str, bound: float) -> tuple[str, float]:
    """``(label, relative median change)`` for one metric x workload;
    ``parent``/``change`` are values paired by position."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, p_q1, p_q3, p_width = spread(parent)
    c_med, _, _, c_width = spread(change)
    rel = (c_med - p_med) / p_med if p_med else 0.0
    gain = sign * (c_med - p_med)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "better", rel
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(p_width, c_width) > bound and not dominates:
        return "unresolved", rel
    if -sign * rel > bound:
        return "worse", rel
    return "unchanged", rel


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path) as handle:
            records.append(json.load(handle))
    parent, change = records
    for side, record in zip(("parent", "change"), records):
        host = record["host"]
        print(
            f"{side}: git {host['git_sha']} dirty={host['git_dirty']} "
            f"src {host['src_sha256'][:12]} python {host['python']} "
            f"numpy {host['numpy']} nproc {host['nproc']} "
            f"load {host['loadavg'][0]:.2f}"
        )
    spec = load_spec()
    any_worse = False
    print(
        f"{'workload':<26}{'metric':<14}{'parent':>12}{'change':>12}"
        f"{'delta':>9}  label"
    )
    for name in sorted(set(parent["runs"]) & set(change["runs"])):
        pairs = list(zip(parent["runs"][name], change["runs"][name]))
        for metric in spec["end_to_end"]:
            key = metric["name"]
            p = [a["metrics"][key] for a, _ in pairs]
            c = [b["metrics"][key] for _, b in pairs]
            verdict, rel = label(p, c, metric["better"], metric["bound"])
            any_worse |= verdict == "worse"
            print(
                f"{name:<26}{key:<14}{statistics.median(p):>12.6g}"
                f"{statistics.median(c):>12.6g}{rel:>+8.1%}  {verdict}"
            )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
