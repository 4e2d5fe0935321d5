"""Regenerate ``perfbench/refs.json``: the physics digest of every
reference workload at seeds ``0..N-1``.

The benchmark's output check compares each run's ``--json`` physics
payload (``reports`` or ``multi_fleet``, without ``engine``/``metrics``)
against these digests.  Regenerate only when a change is *meant* to
alter simulated results, never for a performance change::

    python3 perfbench/make_refs.py --seeds 100
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from workloads import BENCH_DIR, SRC, TMP_ROOT, WORKLOADS, digest

REFS_PATH = BENCH_DIR / "refs.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from repro.cli import main as repro_main

    names = sorted({w.reference_name for w in WORKLOADS.values()})
    digests: dict[str, dict[str, str]] = {name: {} for name in names}
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        out = tmp / "out.json"
        for seed in range(args.seeds):
            for name in names:
                argv_ = WORKLOADS[name].argv(seed, out, None)
                if repro_main(argv_, out=io.StringIO()) != 0:
                    raise SystemExit(f"{name} seed {seed} failed")
                with open(out) as handle:
                    digests[name][str(seed)] = digest(json.load(handle))
            print(f"seed {seed} done", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(REFS_PATH, "w") as handle:
        json.dump({"digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
