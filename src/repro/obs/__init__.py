"""Engine telemetry: span tracing, rolling metrics, trace export.

One observability layer under both planes: every serve and control
scenario funnels its requests through the single
:class:`~repro.serve.engine.Engine` kernel, whose execution paths all
write the same arena columns — so telemetry is *derived* from the
drained columns rather than recorded per event.  The pieces:

* :class:`TraceRecorder` — per-request lifecycle spans (arrival ->
  batch launch -> complete, or a shed instant) and instant events
  (governor actions, DVFS transitions, spillover forwards) as Chrome
  trace-event JSON, loadable in Perfetto / ``chrome://tracing``.
* :mod:`repro.obs.metrics` — windowed series (offered/admitted/shed
  rate, queue depth, utilization, batch size, power, forecaster
  level/trend), the newest samples of each fleet kept, embedded in
  ``--json`` reports.
* :mod:`repro.obs.derive` — spans, counters, and timelines computed
  from a drained run's ``start``/``finish``/``shed``/``instance``
  columns, in one pass over the columns per fleet.
* :class:`GovernorObserver` — the only live attachment, and only on
  governed runs: wraps the governor to log the control-side facts
  (power-up/down, DVFS, forecaster state) the columns cannot show.
* :class:`Observability` — the per-run session that wires the above,
  derives each fleet once per run for every output, and aggregates
  conservation counters.

Observing a run never changes its execution path: no run gets an
extra hook or tick, so traced ``rr``/``ll``/``rr-ctl`` runs stay on
their columnar kernels.
"""

from .governor import GovernorObserver
from .session import Observability
from .trace import TraceRecorder, render_trace_summary, summarize_trace

__all__ = [
    "GovernorObserver",
    "Observability",
    "TraceRecorder",
    "render_trace_summary",
    "summarize_trace",
]
