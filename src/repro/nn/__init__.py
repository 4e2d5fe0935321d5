"""NumPy neural-network substrate: layers, models, training.

Provides the float reference implementation of MobileNetV1 (the network the
EDEA paper evaluates), a layer-wise backpropagation trainer, and the
functional primitives the quantized reference path and the hardware model
are validated against.

Names resolve on first access (see :mod:`repro._lazy`), so the serving
stack can read layer geometry from :mod:`repro.nn.zoo` without loading
the trainer.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".functional": ("functional",),
    ".layers": (
        "Layer",
        "Parameter",
        "Conv2d",
        "DepthwiseConv2d",
        "PointwiseConv2d",
        "BatchNorm2d",
        "ReLU",
        "GlobalAvgPool",
        "Linear",
    ),
    ".model": ("Sequential",),
    ".optim": ("SGD",),
    ".trainer": ("Trainer", "TrainResult"),
    ".loss": ("softmax", "cross_entropy", "cross_entropy_backward", "accuracy"),
    ".mobilenet": (
        "DSCLayerSpec",
        "MOBILENET_V1_CIFAR10_SPECS",
        "mobilenet_v1_specs",
        "build_mobilenet_v1",
        "KERNEL_SIZE",
        "NUM_CLASSES",
    ),
    ".zoo": (
        "mobilenet_v1_imagenet_specs",
        "mobilenet_v2_dsc_specs",
        "custom_dsc_specs",
        "ZOO_MODELS",
        "zoo_specs",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
