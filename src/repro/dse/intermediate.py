"""Intermediate-activation traffic elimination (paper Fig. 3).

The paper's baseline counts external activation accesses of a DSC layer as
DWC input + DWC output + PWC input + PWC output; direct DWC→PWC transfer
through the on-chip intermediate buffer removes the DWC-output write and
the PWC-input read, leaving DWC input + PWC output.

Two counting modes are provided:

* ``"unique"`` (default): each tensor element is counted once per logical
  transfer — the cleanest apples-to-apples comparison.
* ``"tiled"``: the DWC input includes halo re-reads and the PWC input is
  re-read once per kernel group, i.e. the Table II traffic under the chosen
  architecture tiling.

The paper reports per-layer reductions of 15.4%–46.9% and 34.7% in total;
our ``"unique"`` mode yields 25%–50% per layer and ≈40% total — same
sawtooth shape (stride-2 layers benefit least); ``repro report`` checks
the total against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..nn.mobilenet import MOBILENET_V1_CIFAR10_SPECS, DSCLayerSpec
from .tiling import TilingConfig

__all__ = ["IntermediateAccessReport", "intermediate_access_report"]

_DEFAULT_TILING = TilingConfig(tn=2, tm=2, td=8, tk=16)


@dataclass(frozen=True)
class LayerIntermediateAccess:
    """Fig. 3 data for one layer."""

    index: int
    baseline: int
    optimized: int

    @property
    def eliminated(self) -> int:
        """Accesses removed by direct DWC→PWC transfer."""
        return self.baseline - self.optimized

    @property
    def reduction_percent(self) -> float:
        """Per-layer reduction percentage (the Fig. 3 line)."""
        return 100.0 * self.eliminated / self.baseline


@dataclass
class IntermediateAccessReport:
    """Fig. 3 data for all layers."""

    layers: list[LayerIntermediateAccess]

    @property
    def total_baseline(self) -> int:
        """Sum of baseline accesses over all layers."""
        return sum(layer.baseline for layer in self.layers)

    @property
    def total_optimized(self) -> int:
        """Sum of optimized accesses over all layers."""
        return sum(layer.optimized for layer in self.layers)

    @property
    def total_reduction_percent(self) -> float:
        """Network-level reduction (paper: 34.7%)."""
        return (
            100.0
            * (self.total_baseline - self.total_optimized)
            / self.total_baseline
        )

    @property
    def min_reduction_percent(self) -> float:
        """Smallest per-layer reduction (paper: 15.4%)."""
        return min(layer.reduction_percent for layer in self.layers)

    @property
    def max_reduction_percent(self) -> float:
        """Largest per-layer reduction (paper: 46.9%)."""
        return max(layer.reduction_percent for layer in self.layers)


def _layer_counts(
    spec: DSCLayerSpec, mode: str, tiling: TilingConfig
) -> LayerIntermediateAccess:
    r, n = spec.in_size, spec.out_size
    d, k = spec.in_channels, spec.out_channels
    if mode == "unique":
        dwc_in = r * r * d
        dwc_out = n * n * d
        pwc_in = n * n * d
        pwc_out = n * n * k
    elif mode == "tiled":
        tr = tiling.input_tile(spec.stride)
        tiles = -(-n // tiling.tn) * (-(-n // tiling.tm))
        dwc_in = tr * tr * d * tiles
        dwc_out = n * n * d
        pwc_in = n * n * d * (-(-k // tiling.tk))
        pwc_out = n * n * k
    else:
        raise ConfigError(f"unknown counting mode {mode!r}")
    return LayerIntermediateAccess(
        index=spec.index,
        baseline=dwc_in + dwc_out + pwc_in + pwc_out,
        optimized=dwc_in + pwc_out,
    )


def intermediate_access_report(
    specs: list[DSCLayerSpec] | None = None,
    mode: str = "unique",
    tiling: TilingConfig = _DEFAULT_TILING,
) -> IntermediateAccessReport:
    """Build the Fig. 3 report for a network.

    Args:
        specs: Layer geometry (defaults to MobileNetV1-CIFAR10).
        mode: Counting mode, ``"unique"`` or ``"tiled"``.
        tiling: Architecture tiling used by the ``"tiled"`` mode.
    """
    specs = specs if specs is not None else MOBILENET_V1_CIFAR10_SPECS
    return IntermediateAccessReport(
        layers=[_layer_counts(spec, mode, tiling) for spec in specs]
    )
