#!/usr/bin/env python3
"""A/B the engine's columnar kernels against its general loop, end to end.

Runs each CLI shape below twice in one process — as dispatched, and
with :meth:`repro.serve.engine.Engine._fast_mode` declining every
kernel so the general event loop serves the same work — and checks:

* every engine of the dispatched run reports the expected path;
* every engine of the forced run reports ``general`` with a non-empty
  ``fallback``;
* the physics payload (``reports``, or ``multi_fleet`` for a
  multi-fleet run) of the two ``--json`` files is identical.

The shapes cover round-robin deadline shedding, the default
least-loaded ``repro control`` and ``repro serve``, a governed
two-fleet diurnal run with spillover, and a governed run stepped in
checkpoint slices.

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
from unittest import mock

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
}

_FORCED = "forced general loop"


def _decline(engine, arena):
    """``Engine._fast_mode`` that turns every kernel down, recording
    why (so the forced run's ``fallback`` is diagnosable)."""
    engine._fast_reason = _FORCED
    return None


def _run(args: list[str], json_path: Path, forced: bool) -> dict:
    from repro.cli import main
    from repro.serve.engine import Engine

    patch = mock.patch.object(Engine, "_fast_mode", _decline)
    with patch if forced else nullcontext():
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
        assert entry.get("fallback"), (name, general["engine"])
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
