"""EDEA reproduction: dual-engine depthwise-separable-convolution accelerator.

A functional and cycle-level Python reproduction of *"EDEA: Efficient
Dual-Engine Accelerator for Depthwise Separable Convolution with Direct
Data Transfer"* (Chen et al., SOCC 2024), including every substrate the
evaluation depends on:

* :mod:`repro.nn` — NumPy MobileNetV1 + training,
* :mod:`repro.quant` — int8/LSQ quantization and Non-Conv folding,
* :mod:`repro.datasets` — synthetic CIFAR10 stand-in,
* :mod:`repro.dse` — the Section II design-space exploration,
* :mod:`repro.arch` / :mod:`repro.sim` — the dual-engine accelerator and
  its cycle-accurate pipeline model,
* :mod:`repro.power` — calibrated power/area/technology-scaling models,
* :mod:`repro.eval` — one reproducible experiment per paper figure/table,
* :mod:`repro.parallel` — process fan-out and persistent result caching
  for sweeps, DSE candidates, and experiments.

Quickstart::

    from repro import prepare_workload, run_experiment

    workload = prepare_workload(width_multiplier=0.25)   # fast demo size
    print(run_experiment("fig13").text)                  # paper Fig. 13

Every name below resolves on first access (see :mod:`repro._lazy`), so
``import repro`` is cheap and a serving run never loads the training,
quantization or DSE code.
"""

from ._lazy import lazy_exports

__version__ = "1.1.0"

_EXPORTS = {
    ".errors": (
        "ReproError",
        "ConfigError",
        "ShapeError",
        "QuantizationError",
        "FixedPointError",
        "SimulationError",
        "BufferError_",
        "EvaluationError",
    ),
    ".nn": (
        "DSCLayerSpec",
        "MOBILENET_V1_CIFAR10_SPECS",
        "mobilenet_v1_specs",
        "build_mobilenet_v1",
    ),
    ".quant": ("QuantizedMobileNet", "quantize_mobilenet"),
    ".dse": ("LoopOrder", "TilingConfig", "explore", "best_point"),
    ".arch": ("ArchConfig", "EDEA_CONFIG", "DSCAccelerator", "LayerRunStats"),
    ".sim": ("AcceleratorRunner", "layer_latency"),
    ".parallel": (
        "ParallelExecutor",
        "ResultCache",
        "DesignPointResult",
        "design_point_sweep",
    ),
    ".power": ("PowerModel", "AreaModel", "ScalingModel"),
    ".eval": (
        "prepare_workload",
        "ExperimentWorkload",
        "run_experiment",
        "list_experiments",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__.insert(0, "__version__")
