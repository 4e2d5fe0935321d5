"""Power, energy, area and technology-scaling models (paper Section IV).

Names resolve on first access (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".energy_model": (
        "PowerModel",
        "PowerBreakdownShares",
        "LayerPower",
        "PAPER_POWER_SHARES",
        "PAPER_LAYER1_POWER_W",
        "PAPER_LAYER12_POWER_W",
    ),
    ".area_model": (
        "AreaModel",
        "PAPER_AREA_SHARES",
        "PAPER_DIE",
        "paper_total_area_mm2",
    ),
    ".tech_scaling": ("ScalingModel", "precision_ops_factor"),
    ".metrics": ("gops", "tops_per_watt", "gops_per_mm2", "energy_joules"),
    ".dvfs": ("DVFSModel", "OperatingPoint", "frequency_scaled_latency"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
