"""Architecture configuration of the EDEA accelerator.

The shipped defaults describe the paper's implemented design point (chosen
by the Section II DSE): loop order La, output tile Tn=Tm=2, channel tile
Td=8, kernel tile Tk=16, 3x3 depthwise kernels, 1 GHz clock, 9-cycle
pipeline initiation, and a DWC ifmap buffer that holds input for an 8x8
output tile per channel group (the tile bound that reproduces the paper's
per-layer latency/throughput exactly — ``repro report`` checks it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError
from ..nn.mobilenet import KERNEL_SIZE

__all__ = ["ArchConfig", "EDEA_CONFIG"]


@dataclass(frozen=True)
class ArchConfig:
    """Parameters of the dual-engine accelerator.

    Attributes:
        td: Input-channel tile (channels processed in parallel).
        tk: PWC kernel tile (kernels processed in parallel).
        tn: Output tile height.
        tm: Output tile width.
        kernel_size: Depthwise kernel extent (3 throughout MobileNet).
        clock_hz: Clock frequency after signoff (1 GHz at TT, 0.8 V).
        init_cycles: Pipeline initiation interval before the first PWC
            output of a tile (Fig. 7: 9 cycles).
        max_output_tile: Largest square output tile (per channel group)
            the DWC ifmap buffer supports; larger maps are split.
    """

    td: int = 8
    tk: int = 16
    tn: int = 2
    tm: int = 2
    kernel_size: int = KERNEL_SIZE
    clock_hz: float = 1.0e9
    init_cycles: int = 9
    max_output_tile: int = 8

    def __post_init__(self) -> None:
        for name in ("td", "tk", "tn", "tm", "kernel_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.clock_hz <= 0:
            raise ConfigError(f"clock_hz must be positive ({self.clock_hz})")
        if self.init_cycles < 0:
            raise ConfigError("init_cycles must be >= 0")
        if self.max_output_tile < self.tn or self.max_output_tile < self.tm:
            raise ConfigError(
                "max_output_tile must be at least the output tile size"
            )
        if self.max_output_tile % self.tn or self.max_output_tile % self.tm:
            raise ConfigError(
                "max_output_tile must be a multiple of Tn and Tm"
            )

    # --- engine sizes -------------------------------------------------

    @property
    def dwc_macs_per_cycle(self) -> int:
        """DWC engine MAC count (paper: 8*3*3*2*2 = 288)."""
        return self.td * self.kernel_size**2 * self.tn * self.tm

    @property
    def pwc_macs_per_cycle(self) -> int:
        """PWC engine MAC count (paper: 8*16*2*2 = 512)."""
        return self.td * self.tk * self.tn * self.tm

    @property
    def total_macs_per_cycle(self) -> int:
        """Total PE count (paper Table III: 800)."""
        return self.dwc_macs_per_cycle + self.pwc_macs_per_cycle

    # --- buffer geometry ----------------------------------------------

    @property
    def dwc_input_tile_stride1(self) -> int:
        """Buffered input extent for a max output tile at stride 1."""
        return self.max_output_tile + self.kernel_size - 1

    @property
    def dwc_input_tile_stride2(self) -> int:
        """Buffered input extent for a max output tile at stride 2."""
        return 2 * self.max_output_tile + self.kernel_size - 2

    @property
    def dwc_ifmap_buffer_entries(self) -> int:
        """DWC ifmap buffer capacity in int8 entries (worst-case tile)."""
        extent = max(self.dwc_input_tile_stride1, self.dwc_input_tile_stride2)
        return extent * extent * self.td

    @property
    def intermediate_buffer_entries(self) -> int:
        """Intermediate (DWC→PWC) buffer capacity in int8 entries."""
        return self.tn * self.tm * self.td

    @property
    def dwc_weight_buffer_entries(self) -> int:
        """DWC weight buffer capacity in int8 entries."""
        return self.td * self.kernel_size**2

    @property
    def pwc_weight_buffer_entries(self) -> int:
        """PWC weight buffer capacity in int8 entries."""
        return self.td * self.tk

    @property
    def offline_buffer_entries(self) -> int:
        """Offline (Non-Conv k/b constants) buffer capacity in entries.

        One (k, b) pair per channel of the current Td group.
        """
        return 2 * self.td

    # --- derived performance ------------------------------------------

    @property
    def peak_ops_per_second(self) -> float:
        """Peak throughput if every MAC fired every cycle (2 ops/MAC)."""
        return 2.0 * self.total_macs_per_cycle * self.clock_hz

    @property
    def cycle_time_s(self) -> float:
        """Clock period in seconds."""
        return 1.0 / self.clock_hz

    def spatial_tiles(self, out_size: int) -> int:
        """Number of ifmap tiles a layer with output ``out_size`` needs."""
        return math.ceil(out_size / self.max_output_tile) ** 2


EDEA_CONFIG = ArchConfig()
"""The paper's implemented design point."""
