#!/usr/bin/env python3
"""Assertions on the ``--json`` reports of the CLI smoke runs.

Stdlib-only (runs in CI without importing the package).  Each
subcommand reads one report written by ``repro serve/control --json``
and checks what its smoke run must show; CI's serving, tenancy and
telemetry jobs call it after each run, and
``tests/test_smoke_checks.py`` runs every check on tiny reports.

Exits 0 when the report passes; exits 1 naming the failed check
otherwise.

Usage::

    python tools/smoke_checks.py CHECK REPORT.json
"""

from __future__ import annotations

import json
import sys


def energy_and_classes(payload: dict) -> None:
    """A shedding + autoscale control run reports energy and per-class
    SLO statistics."""
    r = payload["reports"][0]
    assert r["energy_joules"] > 0 and r["class_stats"], r


def deadline_aware(payload: dict) -> None:
    """Deadline-aware routing reports its policy and per-class
    statistics."""
    r = payload["reports"][0]
    assert r["policy"] == "deadline-aware" and r["class_stats"], r


def energy_aware(payload: dict) -> None:
    """Energy-aware routing on a DVFS fleet reports its policy and a
    positive energy."""
    r = payload["reports"][0]
    assert r["policy"] == "energy-aware" and r["energy_joules"] > 0, r


def multi_fleet(payload: dict) -> None:
    """A two-fleet spillover run conserves requests, spills, and keeps
    per-model statistics."""
    r = payload["multi_fleet"]
    assert r["conserved"], r
    assert len(r["fleets"]) == 2
    assert r["spilled_requests"] > 0, "donor never spilled"
    assert r["fleets"][0]["model_stats"], "per-model stats missing"


def priority_donors(payload: dict) -> None:
    """Priority-shedding donors spill, and every offered request is
    completed or shed."""
    r = payload["multi_fleet"]
    assert r["spilled_requests"] > 0, "donors never spilled"
    assert r["offered_requests"] == (
        r["completed_requests"] + r["shed_requests"]
    ), r


def predictive(payload: dict) -> None:
    """The predictive governor acts."""
    r = payload["reports"][0]
    assert r["autoscale_events"] > 0, r


def two_timelines(payload: dict) -> None:
    """An observed two-fleet run carries a sampled metrics timeline
    per fleet."""
    timelines = payload["metrics"]["timelines"]
    assert len(timelines) == 2, timelines
    assert all(t["samples"] for t in timelines), timelines


def observed_fold(payload: dict) -> None:
    """An observed round-robin control run still drains on the event
    fold, and samples metrics."""
    engine = payload["engine"][0]
    assert engine["dispatch"] == "fold", engine
    assert payload["metrics"]["timelines"][0]["samples"]


def dropped_samples(payload: dict) -> None:
    """A too-fine metrics window overflows the sample ring."""
    timeline = payload["metrics"]["timelines"][0]
    assert timeline["dropped_samples"] > 0, timeline["dropped_samples"]


#: Subcommand -> check, in CI order: the serving job's three, the
#: tenancy job's three, the telemetry job's three.
CHECKS = {
    "energy-and-classes": energy_and_classes,
    "deadline-aware": deadline_aware,
    "energy-aware": energy_aware,
    "multi-fleet": multi_fleet,
    "priority-donors": priority_donors,
    "predictive": predictive,
    "two-timelines": two_timelines,
    "observed-fold": observed_fold,
    "dropped-samples": dropped_samples,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[0] not in CHECKS:
        print(
            "usage: smoke_checks.py CHECK REPORT.json  "
            f"(CHECK: {', '.join(CHECKS)})",
            file=sys.stderr,
        )
        return 2
    name, path = argv
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    try:
        CHECKS[name](payload)
    except (AssertionError, KeyError, IndexError, TypeError) as exc:
        print(f"{path}: {name} failed: {exc!r}", file=sys.stderr)
        return 1
    print(f"{path}: {name} OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
