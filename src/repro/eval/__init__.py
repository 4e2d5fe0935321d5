"""Evaluation harness: one reproducible experiment per paper figure/table,
shared workload preparation, and plain-text reporting.

Names resolve on first access (see :mod:`repro._lazy`), so rendering a
serving or control report never loads the experiment workloads.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".figures": (
        "ExperimentResult",
        "EXPERIMENTS",
        "run_experiment",
        "list_experiments",
    ),
    ".workloads": (
        "ExperimentWorkload",
        "prepare_workload",
        "clear_workload_cache",
    ),
    ".layer_stats": ("LayerPerformance", "layer_performance_series"),
    ".efficiency": (
        "EfficiencyReport",
        "LayerEfficiency",
        "build_efficiency_report",
        "paper_profile_stats",
    ),
    ".comparison": ("ComparisonRow", "build_comparison", "edea_speedups"),
    ".report": ("render_table", "render_series"),
    ".serving": (
        "render_serving_report",
        "render_serving_sweep",
        "render_throughput_latency",
    ),
    ".control": (
        "render_control_report",
        "render_control_sweep",
        "report_to_dict",
    ),
    ".paper_data": (
        "SotaWork",
        "SOTA_WORKS",
        "EDEA_TABLE3_ROW",
        "PAPER_HEADLINE",
        "PAPER_FIG12_EE_TOPS_W",
        "PAPER_FIG13_THROUGHPUT_GOPS",
        "PAPER_FIG11_LAYER12_ZEROS",
        "PAPER_FIG3_REDUCTION",
    ),
    ".charts": ("bar_chart", "grouped_bar_chart"),
    ".roofline": ("LayerRoofline", "roofline_analysis"),
    ".summary": ("ClaimCheck", "reproduction_report", "render_report"),
    ".sweep": ("SweepPoint", "width_resolution_sweep"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
