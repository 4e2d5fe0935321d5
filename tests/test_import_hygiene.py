"""Import hygiene: serving and control runs load only the serving stack.

Package ``__init__``s resolve their public names on first access
(:mod:`repro._lazy`), so ``repro serve``/``repro control`` never import
the paper's training, quantization, DSE or experiment code.  The gate
runs each invocation in a fresh interpreter and inspects
``sys.modules`` *after* ``main()`` returns: an import hoisted into a
command branch would undo the saving while the bare ``import
repro.cli`` still looked clean.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a serving/control run must never load.
PAPER_SIDE = (
    "repro.quant",
    "repro.dse",
    "repro.datasets",
    "repro.arch.accelerator",
    "repro.parallel.tasks",
    "repro.sim.runner",
    "repro.eval.figures",
    "repro.eval.workloads",
    "repro.nn.trainer",
    "repro.nn.layers",
    "concurrent.futures.process",
)

#: Slow imports a serving/control run has no use for: ``numpy.ma``
#: loads on the first ``np.unique``/``np.percentile`` call.
SLOW_IMPORTS = ("numpy.ma",)

_CHILD = """
import json, sys
import repro.cli
argv = json.loads(sys.argv[1])
if argv is not None:
    with open(sys.argv[2], "w") as sink:
        code = repro.cli.main(argv, out=sink)
    assert code == 0, code
forbidden = json.loads(sys.argv[3])
print(json.dumps(sorted(name for name in forbidden if name in sys.modules)))
"""

#: id -> CLI argv (``{tmp}`` is replaced by the test's tmp directory);
#: ``None`` only imports ``repro.cli``.
RUNS = {
    "import": None,
    "control-default": ["control", "--requests", "400"],
    "control-rr-traced-metered": [
        "control", "--requests", "2000", "--qps", "12000",
        "--shedding", "deadline", "--policy", "round-robin",
        "--trace", "{tmp}/t.json", "--metrics-every", "0.05",
        "--json", "{tmp}/r.json",
    ],
    "control-multi-fleet": [
        "control", "--multi-fleet-qps", "4000,1500",
        "--modulator", "diurnal", "--diurnal-period", "2",
        "--spillover", "deadline", "--shedding", "deadline",
        "--autoscale", "predictive", "--requests", "800",
        "--json", "{tmp}/m.json",
    ],
    "control-checkpointed": [
        "control", "--requests", "800", "--checkpoint", "{tmp}/c.ckpt",
        "--checkpoint-every", "0.05",
    ],
    "serve-sketch": [
        "serve", "--policy", "round-robin", "--stats", "sketch",
        "--requests", "2000",
    ],
}


@pytest.mark.parametrize("run", list(RUNS))
def test_serving_runs_skip_the_paper_stack(run, tmp_path):
    argv = RUNS[run]
    if argv is not None:
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [
            sys.executable, "-c", _CHILD,
            json.dumps(argv), str(tmp_path / "out.txt"),
            json.dumps(PAPER_SIDE + SLOW_IMPORTS),
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


LAZY_PACKAGES = (
    "repro",
    "repro.arch",
    "repro.nn",
    "repro.sim",
    "repro.parallel",
    "repro.power",
    "repro.eval",
)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyNamespace:
    def test_names_resolve_to_their_submodule_exports(self, package):
        pkg = importlib.import_module(package)
        exported = [
            (module, name)
            for module, names in pkg._EXPORTS.items()
            for name in names
        ]
        assert sorted(pkg.__all__) == sorted(
            ["__version__"] * (package == "repro")
            + [name for _, name in exported]
        )
        for module, name in exported:
            source = importlib.import_module(module, package)
            expected = (
                source
                if source.__name__ == f"{package}.{name}"
                else getattr(source, name)
            )
            assert getattr(pkg, name) is expected, (package, name)

    def test_dir_covers_all(self, package):
        pkg = importlib.import_module(package)
        assert set(pkg.__all__) <= set(dir(pkg))

    def test_unknown_attribute_names_the_package(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match=repr(package)):
            pkg.no_such_name


def test_star_import_binds_every_public_name():
    import repro

    namespace: dict = {}
    exec("from repro import *", namespace)
    for name in repro.__all__:
        assert namespace[name] is getattr(repro, name)
