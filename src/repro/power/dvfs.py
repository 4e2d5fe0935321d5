"""Voltage/frequency operating-point model (DVFS study).

EDEA's published numbers are at one operating point: 0.8 V, 1 GHz at the
TT corner.  This module models how throughput and energy efficiency move
when that point changes, using the standard first-order CMOS relations
the paper's normalization reference (Latotzke & Gemmeke, 2021) builds on:

* maximum frequency follows the alpha-power law
  ``f_max ∝ (V - V_th)^alpha / V`` (alpha ≈ 1.3 in scaled nodes),
* dynamic energy per operation scales with ``V²``,
* leakage power scales roughly with ``V³`` around nominal.

All constants are normalized to the published 0.8 V / 1 GHz /
13.43 TOPS/W point, so the model answers relative "what if" questions —
e.g. the classic result that peak *energy efficiency* sits below the peak
*performance* voltage — without claiming absolute silicon accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["OperatingPoint", "DVFSModel", "frequency_scaled_latency"]

NOMINAL_VOLTAGE_V = 0.8
NOMINAL_FREQUENCY_HZ = 1.0e9
NOMINAL_PEAK_EE_TOPS_W = 13.43


@dataclass(frozen=True)
class OperatingPoint:
    """One (voltage, frequency) point with derived metrics.

    Attributes:
        voltage_v: Supply voltage.
        frequency_hz: Clock frequency actually run at (must not exceed
            the voltage's ``f_max``).
        throughput_factor: Throughput relative to 0.8 V / 1 GHz.
        energy_efficiency_tops_w: Modelled peak TOPS/W at this point.
        dynamic_power_factor / leakage_power_factor: Power components
            relative to nominal.
    """

    voltage_v: float
    frequency_hz: float
    throughput_factor: float
    energy_efficiency_tops_w: float
    dynamic_power_factor: float
    leakage_power_factor: float

    @property
    def latency_scale(self) -> float:
        """Latency multiplier vs the nominal 1 GHz clock (cycle counts
        are frequency-independent, so latency stretches as 1/f)."""
        return NOMINAL_FREQUENCY_HZ / self.frequency_hz


class DVFSModel:
    """First-order DVFS model anchored at the paper's operating point."""

    def __init__(
        self,
        v_threshold: float = 0.35,
        alpha: float = 1.3,
        leakage_fraction: float = 0.08,
    ) -> None:
        """Create a model.

        Args:
            v_threshold: Effective threshold voltage of the 22 nm FDSOI
                process (FDSOI bodies allow ~0.3-0.4 V effective Vth).
            alpha: Velocity-saturation exponent of the alpha-power law.
            leakage_fraction: Share of total power that is leakage at the
                nominal point (post-layout digital logic: a few percent).
        """
        if not 0.0 < v_threshold < NOMINAL_VOLTAGE_V:
            raise ConfigError(
                f"v_threshold must be in (0, {NOMINAL_VOLTAGE_V}) "
                f"(got {v_threshold})"
            )
        if alpha < 1.0 or alpha > 2.0:
            raise ConfigError(f"alpha must be in [1, 2] (got {alpha})")
        if not 0.0 <= leakage_fraction < 1.0:
            raise ConfigError(
                f"leakage_fraction must be in [0, 1) (got {leakage_fraction})"
            )
        self.v_threshold = v_threshold
        self.alpha = alpha
        self.leakage_fraction = leakage_fraction

    def max_frequency_hz(self, voltage_v: float) -> float:
        """Alpha-power-law maximum frequency at ``voltage_v``."""
        if voltage_v <= self.v_threshold:
            raise ConfigError(
                f"voltage {voltage_v} V is at or below threshold "
                f"{self.v_threshold} V"
            )
        def speed(v: float) -> float:
            return (v - self.v_threshold) ** self.alpha / v

        return NOMINAL_FREQUENCY_HZ * speed(voltage_v) / speed(
            NOMINAL_VOLTAGE_V
        )

    def operating_point(
        self, voltage_v: float, frequency_hz: float | None = None
    ) -> OperatingPoint:
        """Evaluate a (voltage, frequency) point.

        Args:
            voltage_v: Supply voltage.
            frequency_hz: Clock; defaults to the voltage's ``f_max``.

        Raises:
            ConfigError: If the voltage is not finite, or the requested
                frequency is not positive or exceeds ``f_max``.
        """
        if not math.isfinite(voltage_v):
            raise ConfigError(f"voltage must be finite (got {voltage_v} V)")
        f_max = self.max_frequency_hz(voltage_v)
        f = f_max if frequency_hz is None else float(frequency_hz)
        if not f > 0:  # NaN fails too
            raise ConfigError(f"frequency must be positive (got {f})")
        if f > f_max * (1 + 1e-9):
            raise ConfigError(
                f"{f / 1e9:.3f} GHz exceeds f_max "
                f"{f_max / 1e9:.3f} GHz at {voltage_v} V"
            )
        v_ratio = voltage_v / NOMINAL_VOLTAGE_V
        f_ratio = f / NOMINAL_FREQUENCY_HZ
        dynamic = v_ratio**2 * f_ratio
        leakage = v_ratio**3
        # Energy/op: dynamic part ∝ V²; leakage part ∝ leakage power / f.
        energy_factor = (1 - self.leakage_fraction) * v_ratio**2 + (
            self.leakage_fraction * leakage / f_ratio
        )
        return OperatingPoint(
            voltage_v=voltage_v,
            frequency_hz=f,
            throughput_factor=f_ratio,
            energy_efficiency_tops_w=NOMINAL_PEAK_EE_TOPS_W / energy_factor,
            dynamic_power_factor=dynamic,
            leakage_power_factor=leakage,
        )

    def sweep(
        self, voltages: list[float]
    ) -> list[OperatingPoint]:
        """Evaluate the f_max point at each voltage (a V-f curve)."""
        return [self.operating_point(v) for v in voltages]

    def best_efficiency_point(
        self, voltages: list[float]
    ) -> OperatingPoint:
        """The sweep point with the highest modelled TOPS/W."""
        points = self.sweep(voltages)
        if not points:
            raise ConfigError("voltage sweep is empty")
        return max(points, key=lambda p: p.energy_efficiency_tops_w)


def frequency_scaled_latency(
    nominal_seconds: float, point: OperatingPoint
) -> float:
    """Stretch a latency measured at the nominal 1 GHz clock to
    ``point``'s frequency (used by DVFS-heterogeneous serving fleets)."""
    if nominal_seconds < 0:
        raise ConfigError(
            f"nominal_seconds must be non-negative ({nominal_seconds})"
        )
    return nominal_seconds * point.latency_scale
