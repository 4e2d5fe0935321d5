"""Text/JSON views of engine telemetry.

Two small surfaces kept out of the report dataclass's JSON form on
purpose: engine execution counters (events processed, peak heap,
dispatch path) and the windowed metrics timeline derived by
:mod:`repro.obs.metrics`.  Both are *execution* telemetry —
how a run was carried out, not what it computed — so they ride next to
the report payload rather than inside it, keeping cached and golden
report dicts byte-identical across telemetry changes.
"""

from __future__ import annotations

from .report import render_table

__all__ = [
    "TIMELINE_MAX_ROWS",
    "engine_counters_dict",
    "render_engine_counters",
    "render_metrics_timeline",
]

#: Most rows the text timeline prints per fleet.  A finer window is
#: shown as evenly spaced samples, first and last included; ``--json``
#: carries the full series.
TIMELINE_MAX_ROWS = 40


def engine_counters_dict(report) -> dict | None:
    """Engine execution counters as JSON, or ``None`` when the report
    predates them (empty dispatch tag — e.g. restored from a cache
    entry written before the counters existed)."""
    if not report.engine_dispatch:
        return None
    counters = {
        "events": report.engine_events,
        "peak_heap": report.engine_peak_heap,
        "dispatch": report.engine_dispatch,
    }
    # Only general-loop runs carry a fallback diagnosis; the key is
    # conditional so fast-path payloads keep their historical shape.
    fallback = getattr(report, "engine_fallback", "")
    if fallback and report.engine_dispatch == "general":
        counters["fallback"] = fallback
    return counters


def render_engine_counters(report) -> str:
    """The engine-counter table, or ``""`` when counters are absent."""
    counters = engine_counters_dict(report)
    if counters is None:
        return ""
    rows = [
        ["events processed", counters["events"]],
        ["peak event-heap size", counters["peak_heap"]],
        ["dispatch path", counters["dispatch"]],
    ]
    if "fallback" in counters:
        rows.append(["fast-path fallback", counters["fallback"]])
    return render_table(
        "Engine execution",
        ["Metric", "Value"],
        rows,
    )


def _mean(values) -> float:
    # Zero-instance fleets can't happen, but a defensive guard keeps
    # the renderer total on any payload shape.
    return sum(values) / len(values) if values else 0.0


def render_metrics_timeline(payload: dict) -> str:
    """The rolling metrics timeline(s) as text tables.

    ``payload`` is :meth:`repro.obs.Observability.metrics_payload`'s
    shape.  Every rate/mean in the samples is pre-guarded at sampling
    time, so zero-duration and zero-admitted runs render finite zeros
    rather than raising or printing ``-inf``.  At most
    :data:`TIMELINE_MAX_ROWS` rows per fleet.
    """
    sections = []
    for timeline in payload["timelines"]:
        label = timeline.get("label") or f"fleet {timeline['pid']}"
        title = (
            f"Metrics timeline — {label} "
            f"(window={timeline['window_s']}s"
        )
        if timeline["dropped_samples"]:
            title += f", {timeline['dropped_samples']} oldest dropped"
        samples = timeline["samples"]
        total = len(samples)
        if total > TIMELINE_MAX_ROWS:
            # Steps of >= 1 sample: distinct picks, first and last kept.
            last = TIMELINE_MAX_ROWS - 1
            samples = [
                samples[k * (total - 1) // last] for k in range(last + 1)
            ]
            title += (
                f", {last + 1} of {total} samples; full series in --json"
            )
        title += ")"
        # Times and utilizations print at 3 decimals: the default
        # 2-decimal float cell would repeat 1 ms sample times.
        rows = [
            [
                f"{s['t']:,.3f}",
                round(s["offered_qps"], 1),
                round(s["admitted_qps"], 1),
                round(s["shed_qps"], 1),
                round(_mean(s["queue_depth"]), 1),
                f"{_mean(s['utilization']):,.3f}",
                round(s["batch_size_mean"], 2),
                round(s["power_w"], 1),
            ]
            for s in samples
        ]
        if not rows:
            rows = [["(no samples)", "", "", "", "", "", "", ""]]
        sections.append(
            render_table(
                title,
                [
                    "t (s)",
                    "Offered/s",
                    "Admitted/s",
                    "Shed/s",
                    "Queue",
                    "Util",
                    "Batch",
                    "Power W",
                ],
                rows,
            )
        )
    return "\n\n".join(sections)
