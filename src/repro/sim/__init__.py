"""Cycle-level simulation: pipeline timing (Eqs. 1-2), network runner
with bit-exact verification, run statistics, and pipeline tracing.

Names resolve on first access (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".fastpath": ("analytic_layer_stats",),
    ".pipeline": ("LatencyBreakdown", "eq1_tile_latency_cycles", "layer_latency"),
    ".runner": ("AcceleratorRunner",),
    ".schedule": (
        "OpKind",
        "ScheduleOp",
        "generate_layer_schedule",
        "schedule_summary",
    ),
    ".stats": ("NetworkRunStats",),
    ".tracer": ("STAGES", "PipelineEvent", "trace_tile_pipeline"),
    ".faults": ("FaultSpec", "FaultImpact", "inject_weight_fault", "measure_impact"),
    ".batch": ("BatchResult", "run_batch"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
