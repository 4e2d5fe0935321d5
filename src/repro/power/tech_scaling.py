"""Technology and precision normalization for cross-work comparison.

Table III of the paper normalizes prior works to 22 nm / 0.8 V / 8 bit
"following the methodology in [19]" (Latotzke & Gemmeke, IEEE Access 2021).
[19] uses per-node empirical factors rather than a single closed form, and
the paper prints the resulting normalized numbers; we therefore keep the
paper's published normalized values as data (see
:mod:`repro.eval.comparison`) and provide here a transparent parametric
power-law model for *our own* scaling estimates and ablations:

* energy efficiency  ∝ (L / 22 nm)^alpha_e * (V / 0.8 V)^beta_e
* area efficiency    ∝ (L / 22 nm)^alpha_a
* precision: ops scale by ``(bits / 8)^2`` (the paper's footnote — a
  W x A multiplier array grows quadratically with word length).

Defaults ``alpha_e = 2, beta_e = 0, alpha_a = 2`` approximate the paper's
published factors within ~5% for two of the four rows and within ~25% for
the others; ``repro report`` checks the normalized energy-efficiency
claims built on them against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["ScalingModel", "precision_ops_factor"]

REFERENCE_TECH_NM = 22.0
REFERENCE_VOLTAGE_V = 0.8
REFERENCE_PRECISION_BITS = 8


def precision_ops_factor(precision_bits: int) -> float:
    """Throughput multiplier when normalizing to 8-bit ops.

    The paper's Table III footnote: values are normalized to 8 bits using
    ``(precision / 8)²`` — e.g. a 16-bit MAC counts as four 8-bit ops.
    """
    if precision_bits < 1:
        raise ConfigError(f"precision must be >= 1 bit ({precision_bits})")
    return (precision_bits / REFERENCE_PRECISION_BITS) ** 2


@dataclass(frozen=True)
class ScalingModel:
    """Power-law technology scaling to the 22 nm / 0.8 V reference."""

    alpha_energy: float = 2.0
    beta_energy: float = 0.0
    alpha_area: float = 2.0

    def energy_efficiency_factor(
        self, tech_nm: float, voltage_v: float
    ) -> float:
        """Multiplier applied to TOPS/W when scaling to the reference."""
        if tech_nm <= 0 or voltage_v <= 0:
            raise ConfigError("technology node and voltage must be positive")
        return (tech_nm / REFERENCE_TECH_NM) ** self.alpha_energy * (
            voltage_v / REFERENCE_VOLTAGE_V
        ) ** self.beta_energy

    def area_efficiency_factor(self, tech_nm: float) -> float:
        """Multiplier applied to GOPS/mm² when scaling to the reference."""
        if tech_nm <= 0:
            raise ConfigError("technology node must be positive")
        return (tech_nm / REFERENCE_TECH_NM) ** self.alpha_area

    def normalize_energy_efficiency(
        self,
        tops_per_watt: float,
        tech_nm: float,
        voltage_v: float,
        precision_bits: int = 8,
    ) -> float:
        """Scale a published TOPS/W figure to 22 nm / 0.8 V / 8 bit."""
        return (
            tops_per_watt
            * self.energy_efficiency_factor(tech_nm, voltage_v)
            * precision_ops_factor(precision_bits)
        )

    def normalize_area_efficiency(
        self,
        gops_per_mm2: float,
        tech_nm: float,
        precision_bits: int = 8,
    ) -> float:
        """Scale a published GOPS/mm² figure to 22 nm / 8 bit."""
        return (
            gops_per_mm2
            * self.area_efficiency_factor(tech_nm)
            * precision_ops_factor(precision_bits)
        )
