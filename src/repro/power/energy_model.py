"""Activity-gated component power model (paper Figs. 9 and 11).

Absolute power cannot be derived without the paper's netlist and PrimeTime
flow, so this model is *calibrated*, not derived.  Its
structure follows the mechanism the paper identifies: layer power falls as
the activation zero percentage rises (zero operands gate the multipliers),
and the component split at the reference point matches the Fig. 9 power
breakdown.

Model.  For a layer ``l`` with measured engine utilizations ``u_dwc, u_pwc``
(busy cycles / total cycles) and engine-input zero fractions
``z_dwc, z_pwc``:

    P(l) = S * [  w_pwc * u_pwc(l) * g(z_pwc(l))
                + w_dwc * u_dwc(l) * g(z_dwc(l))
                + (w_ncu + w_buf) * (u_dwc(l) + u_pwc(l)) / 2
                + w_clk + w_ctrl + w_other ]

where ``w_*`` are the Fig. 9 power shares, ``g(z) = beta + (1-beta)*(1-z)``
is the switching factor (``beta`` = residual toggling with a zero operand),
and ``S`` is a global scale.  ``S`` and ``beta`` are fit so the paper's two
published endpoints are met exactly: layer 1 = 117.7 mW (highest) and
layer 12 = 67.7 mW (lowest); every other layer's power then follows the
*measured* activity of our simulator runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.accelerator import LayerRunStats
from ..errors import ConfigError

__all__ = ["PowerBreakdownShares", "PowerModel", "LayerPower"]

#: Paper Fig. 9 (right): power shares.  The paper labels PWC (66.23%) and
#: DWC (15.70%) explicitly and says the "others" slice is the clock tree;
#: our assignment of the remaining slices to clock/non-conv/buffers/control
#: is a documented labelling choice.
PAPER_POWER_SHARES = {
    "pwc_engine": 0.6623,
    "dwc_engine": 0.1570,
    "clock_tree": 0.0614,
    "nonconv": 0.0420,
    "buffers": 0.0349,
    "control": 0.0348,
    "other": 0.0075,
}

#: Paper-reported endpoint powers used for calibration (Section IV-A).
PAPER_LAYER1_POWER_W = 0.1177
PAPER_LAYER12_POWER_W = 0.0677


@dataclass(frozen=True)
class PowerBreakdownShares:
    """Component shares of total power at the reference activity."""

    pwc_engine: float = PAPER_POWER_SHARES["pwc_engine"]
    dwc_engine: float = PAPER_POWER_SHARES["dwc_engine"]
    clock_tree: float = PAPER_POWER_SHARES["clock_tree"]
    nonconv: float = PAPER_POWER_SHARES["nonconv"]
    buffers: float = PAPER_POWER_SHARES["buffers"]
    control: float = PAPER_POWER_SHARES["control"]
    other: float = PAPER_POWER_SHARES["other"]

    def __post_init__(self) -> None:
        total = (
            self.pwc_engine
            + self.dwc_engine
            + self.clock_tree
            + self.nonconv
            + self.buffers
            + self.control
            + self.other
        )
        if not 0.99 <= total <= 1.01:
            raise ConfigError(f"power shares must sum to 1 (got {total:.4f})")

    @property
    def constant(self) -> float:
        """Activity-independent share (clock tree + control + other)."""
        return self.clock_tree + self.control + self.other

    @property
    def tracking(self) -> float:
        """Share tracking mean engine duty (Non-Conv units + buffers)."""
        return self.nonconv + self.buffers


@dataclass(frozen=True)
class LayerPower:
    """Power estimate for one layer.

    Attributes:
        total_watts: Estimated layer power.
        components: Per-component watts (keys as in PAPER_POWER_SHARES).
    """

    total_watts: float
    components: dict


class PowerModel:
    """Calibrated activity-to-power mapping."""

    def __init__(
        self,
        shares: PowerBreakdownShares | None = None,
        scale_watts: float = 0.15,
        beta: float = 0.3,
    ) -> None:
        """Create a model with explicit parameters (see also ``calibrate``).

        Args:
            shares: Component power shares at reference activity.
            scale_watts: Global scale ``S``.
            beta: Residual switching factor for a zero operand, in (0, 1].
        """
        if scale_watts <= 0:
            raise ConfigError(f"scale_watts must be positive ({scale_watts})")
        if not 0.0 < beta <= 1.0:
            raise ConfigError(f"beta must be in (0, 1] (got {beta})")
        self.shares = shares if shares is not None else PowerBreakdownShares()
        self.scale_watts = scale_watts
        self.beta = beta
        self.calibration_note: str | None = None

    # --- core model ------------------------------------------------------

    def switching_factor(self, zero_fraction: float) -> float:
        """``g(z) = beta + (1 - beta) * (1 - z)``."""
        if not 0.0 <= zero_fraction <= 1.0:
            raise ConfigError(
                f"zero_fraction must be in [0, 1] (got {zero_fraction})"
            )
        return self.beta + (1.0 - self.beta) * (1.0 - zero_fraction)

    def _relative_activity(self, stats: LayerRunStats) -> dict:
        s = self.shares
        g_dwc = self.switching_factor(stats.dwc_zero_fraction)
        g_pwc = self.switching_factor(stats.pwc_zero_fraction)
        duty = (stats.dwc_utilization + stats.pwc_utilization) / 2.0
        return {
            "pwc_engine": s.pwc_engine * stats.pwc_utilization * g_pwc,
            "dwc_engine": s.dwc_engine * stats.dwc_utilization * g_dwc,
            "nonconv": s.nonconv * duty,
            "buffers": s.buffers * duty,
            "clock_tree": s.clock_tree,
            "control": s.control,
            "other": s.other,
        }

    def layer_power(self, stats: LayerRunStats) -> LayerPower:
        """Estimate one layer's power from its run statistics."""
        parts = {
            name: self.scale_watts * value
            for name, value in self._relative_activity(stats).items()
        }
        return LayerPower(
            total_watts=sum(parts.values()), components=parts
        )

    def layer_energy_joules(
        self, stats: LayerRunStats, clock_hz: float
    ) -> float:
        """Energy of one layer run."""
        return self.layer_power(stats).total_watts * (
            stats.cycles / clock_hz
        )

    def layer_efficiency_tops_per_watt(
        self, stats: LayerRunStats, clock_hz: float
    ) -> float:
        """Energy efficiency of one layer (Fig. 12's metric)."""
        power = self.layer_power(stats).total_watts
        throughput = stats.throughput_ops_per_second(clock_hz)
        return throughput / power / 1e12

    # --- calibration ------------------------------------------------------

    @classmethod
    def calibrate(
        cls,
        layer_stats: list[LayerRunStats],
        high_power_watts: float = PAPER_LAYER1_POWER_W,
        low_power_watts: float = PAPER_LAYER12_POWER_W,
        high_layer: int = 1,
        low_layer: int = 12,
        shares: PowerBreakdownShares | None = None,
        strict: bool = False,
    ) -> "PowerModel":
        """Fit ``(S, beta)`` to the paper's two published endpoints.

        Finds ``beta`` by bisection so the power *ratio* between the high
        and low layers matches, then sets ``S`` to hit the absolute value.

        The paper's 117.7/67.7 mW ratio reflects a fully-trained CIFAR10
        network whose deep layers are 95%+ sparse; a briefly-trained
        synthetic workload has a flatter sparsity profile, which can make
        the exact ratio unreachable.  With ``strict=False`` (default) the
        model then takes the feasible extreme (maximum dynamic range),
        matches the high endpoint exactly, and records the shortfall in
        :attr:`PowerModel.calibration_note`; with ``strict=True`` it
        raises instead.

        Args:
            layer_stats: Measured stats for all layers (indexable by the
                ``layer_index`` attribute).
            high_power_watts / low_power_watts: Calibration targets.
            high_layer / low_layer: Which layer indices the targets refer
                to (paper: layers 1 and 12).
            shares: Component shares (defaults to Fig. 9).
            strict: Raise instead of falling back when the ratio is
                unreachable.

        Raises:
            ConfigError: When ``strict`` and the measured activities
                cannot produce the requested ratio for any ``beta``.
        """
        if high_power_watts <= low_power_watts:
            raise ConfigError(
                "calibration expects high_power_watts > low_power_watts"
            )
        by_index = {s.layer_index: s for s in layer_stats}
        try:
            stats_hi = by_index[high_layer]
            stats_lo = by_index[low_layer]
        except KeyError as exc:
            raise ConfigError(
                f"layer stats missing calibration layer {exc}"
            ) from exc
        target_ratio = high_power_watts / low_power_watts

        def ratio_at(beta: float) -> float:
            model = cls(shares=shares, scale_watts=1.0, beta=beta)
            hi = model.layer_power(stats_hi).total_watts
            lo = model.layer_power(stats_lo).total_watts
            return hi / lo

        lo_beta, hi_beta = 1e-6, 1.0
        ratio_sparse, ratio_uniform = ratio_at(lo_beta), ratio_at(hi_beta)
        # g(z) flattens as beta -> 1, so the ratio is monotone in beta.
        note = None
        if (
            min(ratio_sparse, ratio_uniform)
            <= target_ratio
            <= max(ratio_sparse, ratio_uniform)
        ):
            for _ in range(100):
                mid = 0.5 * (lo_beta + hi_beta)
                above = ratio_at(mid) > target_ratio
                if above == (ratio_sparse > target_ratio):
                    lo_beta = mid
                else:
                    hi_beta = mid
            beta = 0.5 * (lo_beta + hi_beta)
        else:
            message = (
                f"target power ratio {target_ratio:.3f} is outside the "
                f"achievable range [{min(ratio_sparse, ratio_uniform):.3f}, "
                f"{max(ratio_sparse, ratio_uniform):.3f}] for the measured "
                "activities"
            )
            if strict:
                raise ConfigError(message)
            # Take the feasible extreme with the largest dynamic range and
            # match the high-power endpoint exactly.
            beta = (
                lo_beta if ratio_sparse >= ratio_uniform else hi_beta
            )
            achieved = ratio_at(beta)
            note = (
                message
                + f"; using beta={beta:.6f} (achieved ratio "
                f"{achieved:.3f}) and matching the "
                f"{high_power_watts * 1e3:.1f} mW endpoint"
            )
        probe = cls(shares=shares, scale_watts=1.0, beta=beta)
        scale = high_power_watts / probe.layer_power(stats_hi).total_watts
        model = cls(shares=shares, scale_watts=scale, beta=beta)
        model.calibration_note = note
        return model
