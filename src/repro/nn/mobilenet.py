"""MobileNetV1 for CIFAR10: layer geometry and model builder.

The EDEA evaluation targets the 13 depthwise-separable (DSC) layers of
MobileNetV1 adapted to 32x32 CIFAR10 inputs: the stem convolution runs with
stride 1 (the usual CIFAR adaptation) and the four stride-2 DSC layers land
at indices 1, 3, 5 and 11, exactly as the paper reports ("layers 1, 3, 5 and
11 exhibit a reduced number of MAC operations due to the stride of 2"), with
layers 11/12 reaching the 2x2 feature maps the paper calls out.

:data:`MOBILENET_V1_CIFAR10_SPECS` is the single source of truth for the
layer geometry; the DSE models, the accelerator simulator and the evaluation
harness all consume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError

if TYPE_CHECKING:
    from .model import Sequential

__all__ = [
    "DSCLayerSpec",
    "MOBILENET_V1_CIFAR10_SPECS",
    "mobilenet_v1_specs",
    "build_mobilenet_v1",
    "KERNEL_SIZE",
    "NUM_CLASSES",
]

KERNEL_SIZE = 3
"""Depthwise kernel size (3x3 throughout MobileNetV1)."""

NUM_CLASSES = 10
"""CIFAR10 class count."""


@dataclass(frozen=True)
class DSCLayerSpec:
    """Geometry of one depthwise-separable layer.

    Attributes:
        index: Layer index, 0..12 (the paper's x-axis).
        in_size: Input spatial extent R (= C; maps are square).
        stride: Depthwise stride (1 or 2).
        in_channels: D, the DWC/PWC input channel count.
        out_channels: K, the PWC output channel count.
    """

    index: int
    in_size: int
    stride: int
    in_channels: int
    out_channels: int

    def __post_init__(self) -> None:
        if self.stride not in (1, 2):
            raise ConfigError(f"stride must be 1 or 2 (got {self.stride})")
        if self.in_size < 1 or self.in_channels < 1 or self.out_channels < 1:
            raise ConfigError(f"invalid layer geometry: {self}")

    @property
    def out_size(self) -> int:
        """Output spatial extent N (= M) after the stride-s depthwise."""
        # 3x3, padding 1: stride 1 preserves size, stride 2 halves it.
        return (self.in_size + self.stride - 1) // self.stride

    @property
    def dwc_macs(self) -> int:
        """Multiply-accumulates in the depthwise convolution."""
        n = self.out_size
        return n * n * self.in_channels * KERNEL_SIZE * KERNEL_SIZE

    @property
    def pwc_macs(self) -> int:
        """Multiply-accumulates in the pointwise convolution."""
        n = self.out_size
        return n * n * self.in_channels * self.out_channels

    @property
    def total_macs(self) -> int:
        """MACs in the whole DSC layer."""
        return self.dwc_macs + self.pwc_macs

    @property
    def total_ops(self) -> int:
        """Operations (1 MAC = 2 ops, the paper's GOPS convention)."""
        return 2 * self.total_macs


def _base_channel_plan() -> list[tuple[int, int, int]]:
    """(stride, in_channels, out_channels) for each DSC layer at width 1.0."""
    return [
        (1, 32, 64),
        (2, 64, 128),
        (1, 128, 128),
        (2, 128, 256),
        (1, 256, 256),
        (2, 256, 512),
        (1, 512, 512),
        (1, 512, 512),
        (1, 512, 512),
        (1, 512, 512),
        (1, 512, 512),
        (2, 512, 1024),
        (1, 1024, 1024),
    ]


def mobilenet_v1_specs(
    input_size: int = 32, width_multiplier: float = 1.0
) -> list[DSCLayerSpec]:
    """Build the DSC layer specs for a given input size and width.

    Args:
        input_size: Spatial size fed to the stem (CIFAR10: 32).
        width_multiplier: MobileNet width multiplier; channel counts are
            scaled and rounded to a multiple of 8 (the accelerator's Td) so
            reduced-width models still tile exactly.

    Returns:
        Thirteen :class:`DSCLayerSpec` entries.
    """
    if input_size < 4:
        raise ConfigError(f"input_size too small: {input_size}")
    if width_multiplier <= 0:
        raise ConfigError(
            f"width_multiplier must be positive (got {width_multiplier})"
        )

    def scale(channels: int) -> int:
        scaled = max(8, int(round(channels * width_multiplier / 8)) * 8)
        return scaled

    specs = []
    size = input_size  # stem conv is stride 1 and keeps the size
    for idx, (stride, d_in, d_out) in enumerate(_base_channel_plan()):
        spec = DSCLayerSpec(
            index=idx,
            in_size=size,
            stride=stride,
            in_channels=scale(d_in),
            out_channels=scale(d_out),
        )
        specs.append(spec)
        size = spec.out_size
    return specs


MOBILENET_V1_CIFAR10_SPECS: list[DSCLayerSpec] = mobilenet_v1_specs()
"""The canonical 13-layer geometry the paper evaluates."""


def build_mobilenet_v1(
    num_classes: int = NUM_CLASSES,
    input_size: int = 32,
    width_multiplier: float = 1.0,
    seed: int = 0,
) -> Sequential:
    """Construct a float MobileNetV1 for CIFAR10-like inputs.

    The layer order inside each DSC block is DW conv → BN → ReLU → PW conv
    → BN → ReLU, which is what the Non-Conv unit folds between the engines.

    Args:
        num_classes: Classifier width.
        input_size: Input spatial size.
        width_multiplier: Channel width multiplier (1.0 = paper model).
        seed: Seed for deterministic weight initialization.

    Returns:
        A :class:`Sequential` model.
    """
    # The float layers are imported here, not at module level, so the
    # layer geometry above stays cheap for the serving stack.
    from .layers import (
        BatchNorm2d,
        Conv2d,
        DepthwiseConv2d,
        GlobalAvgPool,
        Linear,
        PointwiseConv2d,
        ReLU,
    )
    from .model import Sequential

    rng = np.random.default_rng(seed)
    specs = mobilenet_v1_specs(input_size, width_multiplier)
    stem_out = specs[0].in_channels

    model = Sequential()
    model.add(
        Conv2d(3, stem_out, kernel_size=3, stride=1, padding=1, rng=rng)
    )
    model.add(BatchNorm2d(stem_out))
    model.add(ReLU())
    for spec in specs:
        model.add(
            DepthwiseConv2d(
                spec.in_channels,
                kernel_size=KERNEL_SIZE,
                stride=spec.stride,
                padding=1,
                rng=rng,
            )
        )
        model.add(BatchNorm2d(spec.in_channels))
        model.add(ReLU())
        model.add(
            PointwiseConv2d(spec.in_channels, spec.out_channels, rng=rng)
        )
        model.add(BatchNorm2d(spec.out_channels))
        model.add(ReLU())
    model.add(GlobalAvgPool())
    model.add(Linear(specs[-1].out_channels, num_classes, rng=rng))
    return model
