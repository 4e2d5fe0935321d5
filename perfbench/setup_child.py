"""Set-up probe: import ``repro.cli`` and build one workload's service
profiles in a fresh interpreter, then print ``time.perf_counter()``.

The parent subtracts its own ``perf_counter()`` taken just before the
spawn (``CLOCK_MONOTONIC`` on Linux, shared across processes), so the
figure covers interpreter start-up, imports and the profile build —
everything paid before the first request is generated.

Usage::

    python perfbench/setup_child.py {control|fleets|serve} FLEETS
"""

import sys
import time

import repro.cli  # noqa: F401  (the import is what is being timed)
from repro.control.simulator import ControlScenario, build_control_fleet
from repro.serve import ServingScenario
from repro.serve.profile import build_mix


def main() -> int:
    plane, fleets = sys.argv[1], int(sys.argv[2])
    if plane == "serve":
        scenario = ServingScenario()
        build_mix(scenario.mix, scenario.config, scenario.weight_bandwidth)
    else:
        for _ in range(fleets):
            build_control_fleet(ControlScenario())
    print(repr(time.perf_counter()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
