"""Hardware architecture model: engines, buffers, Non-Conv units,
external memory, and the top-level dual-engine accelerator (paper
Section III).

Names resolve on first access (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".params": ("ArchConfig", "EDEA_CONFIG"),
    ".buffers": ("Buffer", "BufferSet"),
    ".memory": ("ExternalMemory",),
    ".pe": ("MACUnit", "mac_multiply", "adder_tree_sum"),
    ".dwc_engine": ("DWCEngine", "DWCTileResult"),
    ".pwc_engine": ("PWCEngine", "PWCTileResult"),
    ".nonconv": ("NonConvUnitBank",),
    ".accelerator": ("DSCAccelerator", "LayerRunStats"),
    ".unified": (
        "UnifiedEngineModel",
        "SerialDualEngineModel",
        "BaselineLatency",
        "dual_vs_baselines",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
