#!/usr/bin/env python3
"""A/B the engine's kernels against the general loop, end to end.

Runs each CLI shape below twice in one process — as dispatched, and
with ``force_general()`` from ``tests/general_loop.py`` (the general
``(time, seq)`` heap loop, kept there as the test oracle) serving the
same work — and checks:

* every engine of the dispatched run reports the expected path;
* every engine of the forced run reports ``general``;
* the physics payload (``reports``, or ``multi_fleet`` for a
  multi-fleet run) of the two ``--json`` files is identical.

The shapes cover round-robin deadline shedding, the default
least-loaded ``repro control`` and ``repro serve``, a governed
two-fleet diurnal run with spillover, a governed run stepped in
checkpoint slices, and the configurations only the general loop used
to serve: deadline-aware, affinity and energy-aware routing, and
priority shedding under autoscaling.

Exits 0 and prints one line per shape when every check passes; exits
1 with the first failure otherwise.

Usage::

    PYTHONPATH=src python tools/dispatch_ab.py [--workdir DIR]
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from general_loop import force_general  # noqa: E402

#: Shape name -> (CLI arguments, expected dispatch of every engine).
#: ``{dir}`` is the working directory.
SHAPES = {
    "rr-deadline": (
        "control --requests 5000 --qps 6000 --instances 2 "
        "--policy round-robin --shedding deadline --seed 3",
        "fold",
    ),
    "default-control": ("control --requests 5000 --seed 3", "fold"),
    "default-serve": ("serve --requests 5000 --seed 3", "fold"),
    "governed-two-fleet": (
        "control --multi-fleet-qps 10000,3000 --modulator diurnal "
        "--diurnal-period 2 --spillover deadline --shedding deadline "
        "--autoscale predictive --requests 5000 --seed 3",
        "fold",
    ),
    "checkpointed-governed": (
        "control --mix mixed --qps 1500 --requests 5000 --instances 3 "
        "--shedding deadline --autoscale utilization --seed 9 "
        "--checkpoint {dir}/ckpt.pkl --checkpoint-every 0.2",
        "fold",
    ),
    "deadline-aware": (
        "control --requests 5000 --qps 9000 --shedding deadline "
        "--policy deadline-aware --seed 3",
        "fold",
    ),
    "affinity": (
        "control --requests 5000 --qps 9000 --policy affinity --seed 3",
        "fold",
    ),
    "energy-aware": (
        "control --requests 5000 --qps 6000 --fleet 0.8x2,0.6x2 "
        "--policy energy-aware --seed 3",
        "fold",
    ),
    "priority-autoscale": (
        "control --requests 5000 --qps 9000 --shedding priority "
        "--queue-threshold 8 --autoscale utilization --seed 3",
        "fold",
    ),
}


def _run(args: list[str], json_path: Path, forced: bool) -> dict:
    from repro.cli import main

    with force_general() if forced else nullcontext():
        code = main([*args, "--json", str(json_path)], out=io.StringIO())
    if code != 0:
        raise AssertionError(f"exit {code}: repro {' '.join(args)}")
    return json.loads(json_path.read_text())


def check_shape(name: str, workdir: Path) -> str:
    """A/B one shape; returns its summary line or raises
    ``AssertionError``."""
    text, expected = SHAPES[name]
    args = text.format(dir=workdir).split()
    native = _run(args, workdir / f"{name}.json", forced=False)
    general = _run(args, workdir / f"{name}-general.json", forced=True)
    for entry in native["engine"]:
        assert entry["dispatch"] == expected, (name, native["engine"])
    for entry in general["engine"]:
        assert entry["dispatch"] == "general", (name, general["engine"])
    physics = "multi_fleet" if "multi_fleet" in native else "reports"
    assert native[physics] == general[physics], f"{name}: physics diverged"
    return (
        f"{name}: {expected} == general "
        f"({len(native['engine'])} engine(s), {physics} identical)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workdir", type=Path, default=None,
        help="where the --json files and checkpoints go "
             "(default: a temporary directory)",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        workdir = args.workdir or Path(scratch)
        workdir.mkdir(parents=True, exist_ok=True)
        for name in SHAPES:
            try:
                print(check_shape(name, workdir))
            except AssertionError as exc:
                print(f"FAIL {exc}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
