"""Memory-access counting for DWC/PWC under a loop order and tiling.

This module implements both:

* the **closed-form equations of Table II** (valid for loop order La with
  exact divisibility), and
* a **general tiled-loop model** for either order with ceiling division,
  which reduces to the Table II forms in their domain (checked by tests).

Counting conventions (documented here because the paper does not fully
specify them):

* *ifmap reads*: every element of every DWC input tile, including halo
  overlap between neighbouring tiles (``Tr x Tc`` per ``Tn x Tm`` outputs);
  PWC input tiles are re-read once per kernel group (``ceil(K/Tk)``) since
  only one ``Td``-slice is buffered at a time.
* *weight reads*: weights are re-fetched whenever an outer loop invalidates
  the weight buffer — under La (spatial inside channel) DWC/PWC weights are
  fetched exactly once; under Lb (channel inside spatial) they are fetched
  once per spatial tile.
* *psum spills*: under La the PWC partial sums of a whole feature map slice
  outlive the per-tile accumulators and spill to a buffer once per
  non-final channel group (counted with a configurable per-spill access
  factor, default 1.0 modelling a read-modify-write accumulation port);
  under Lb accumulation completes inside the PE registers, so no spills.
* *ofmap writes*: each output element written once.

Activation traffic = ifmap reads + psum spills + ofmap writes; this is the
upper bar of Fig. 2b, the weight traffic the lower bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError
from ..nn.mobilenet import KERNEL_SIZE, DSCLayerSpec
from .loops import LoopOrder
from .tiling import TilingConfig

__all__ = [
    "AccessCounts",
    "AccessModelConfig",
    "dwc_access",
    "pwc_access",
    "layer_access",
    "table2_dwc_activation_access",
    "table2_dwc_weight_access",
    "table2_pwc_activation_access",
    "table2_pwc_weight_access",
]


@dataclass(frozen=True)
class AccessCounts:
    """Access counts of one convolution under one mapping."""

    ifmap_reads: int
    weight_reads: int
    ofmap_writes: int
    psum_spills: int = 0

    @property
    def activation(self) -> int:
        """Total activation traffic (reads + spills + writes)."""
        return self.ifmap_reads + self.psum_spills + self.ofmap_writes

    @property
    def total(self) -> int:
        """Activation plus weight traffic."""
        return self.activation + self.weight_reads

    def __add__(self, other: "AccessCounts") -> "AccessCounts":
        return AccessCounts(
            ifmap_reads=self.ifmap_reads + other.ifmap_reads,
            weight_reads=self.weight_reads + other.weight_reads,
            ofmap_writes=self.ofmap_writes + other.ofmap_writes,
            psum_spills=self.psum_spills + other.psum_spills,
        )


@dataclass(frozen=True)
class AccessModelConfig:
    """Tunable counting conventions (see module docstring)."""

    psum_access_factor: float = 1.0
    count_psum: bool = True

    def __post_init__(self) -> None:
        if self.psum_access_factor < 0:
            raise ConfigError(
                f"psum_access_factor must be >= 0 "
                f"(got {self.psum_access_factor})"
            )


DEFAULT_ACCESS_CONFIG = AccessModelConfig()


def _tile_counts(
    spec: DSCLayerSpec, tiling: TilingConfig
) -> tuple[int, int, int]:
    """(spatial tiles, channel groups, kernel groups) for a layer."""
    n = spec.out_size
    n_spatial = math.ceil(n / tiling.tn) * math.ceil(n / tiling.tm)
    n_channel = math.ceil(spec.in_channels / tiling.td)
    n_kernel = math.ceil(spec.out_channels / tiling.tk)
    return n_spatial, n_channel, n_kernel


def dwc_access(
    spec: DSCLayerSpec,
    tiling: TilingConfig,
    order: LoopOrder,
) -> AccessCounts:
    """Access counts of the depthwise convolution of one layer."""
    n_spatial, n_channel, _ = _tile_counts(spec, tiling)
    tr = tiling.input_tile(spec.stride)
    ifmap = tr * tr * tiling.td * n_spatial * n_channel
    weight_once = KERNEL_SIZE * KERNEL_SIZE * tiling.td * n_channel
    if order.spatial_inside_channel:
        weight = weight_once  # weights live across the spatial scan
    else:
        weight = weight_once * n_spatial  # re-fetched per spatial tile
    ofmap = tiling.outputs_per_tile * tiling.td * n_spatial * n_channel
    return AccessCounts(
        ifmap_reads=ifmap, weight_reads=weight, ofmap_writes=ofmap
    )


def pwc_access(
    spec: DSCLayerSpec,
    tiling: TilingConfig,
    order: LoopOrder,
    config: AccessModelConfig = DEFAULT_ACCESS_CONFIG,
) -> AccessCounts:
    """Access counts of the pointwise convolution of one layer."""
    n_spatial, n_channel, n_kernel = _tile_counts(spec, tiling)
    per_tile = tiling.outputs_per_tile
    ifmap = per_tile * tiling.td * n_spatial * n_channel * n_kernel
    weight_once = tiling.td * tiling.tk * n_channel * n_kernel
    if order.spatial_inside_channel:
        weight = weight_once
        psum = 0
        if config.count_psum and n_channel > 1:
            spills = per_tile * tiling.tk * n_spatial * (n_channel - 1)
            psum = int(round(spills * n_kernel * config.psum_access_factor))
    else:
        weight = weight_once * n_spatial
        psum = 0  # accumulation completes inside the PE registers
    ofmap = per_tile * tiling.tk * n_spatial * n_kernel
    return AccessCounts(
        ifmap_reads=ifmap,
        weight_reads=weight,
        ofmap_writes=ofmap,
        psum_spills=psum,
    )


def layer_access(
    spec: DSCLayerSpec,
    tiling: TilingConfig,
    order: LoopOrder,
    config: AccessModelConfig = DEFAULT_ACCESS_CONFIG,
) -> AccessCounts:
    """Combined DWC + PWC access counts of one DSC layer."""
    return dwc_access(spec, tiling, order) + pwc_access(
        spec, tiling, order, config
    )


# --- Table II closed forms (loop order La) ---------------------------------


def table2_dwc_activation_access(
    spec: DSCLayerSpec, tiling: TilingConfig
) -> int:
    """Table II, DWC activation: ``Tr*Tc*D*(N*M)/(Tn*Tm)``."""
    tr = tiling.input_tile(spec.stride)
    n = spec.out_size
    return (
        tr * tr * spec.in_channels * n * n
        // (tiling.tn * tiling.tm)
    )


def table2_dwc_weight_access(spec: DSCLayerSpec) -> int:
    """Table II, DWC weight: ``H*W*D``."""
    return KERNEL_SIZE * KERNEL_SIZE * spec.in_channels


def table2_pwc_activation_access(
    spec: DSCLayerSpec, tiling: TilingConfig
) -> int:
    """Table II, PWC activation: ``N*M*D*K/Tk``."""
    n = spec.out_size
    return n * n * spec.in_channels * spec.out_channels // tiling.tk


def table2_pwc_weight_access(spec: DSCLayerSpec) -> int:
    """Table II, PWC weight: ``D*K``."""
    return spec.in_channels * spec.out_channels
