"""One observability session spanning a whole CLI run.

:class:`Observability` is the object the simulators thread through
their wiring.  :meth:`Observability.observe` registers each engine's
fleet and request stream; after the run drained, the trace and the
metrics timelines are derived from the stream's columns
(:mod:`repro.obs.derive`).  Only a *governor* is wrapped — a
:class:`GovernorObserver` that logs control-side facts at the ticks it
runs anyway — so no run gets an extra hook or tick, and every run
keeps its execution path.  An inactive session (no trace, no metrics)
registers nothing.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError
from . import derive
from .governor import ControlLog, GovernorObserver
from .metrics import check_window
from .trace import TraceRecorder

__all__ = ["Observability"]


class _Observed:
    """One registered engine: what derivation needs after drain."""

    __slots__ = ("label", "fleet", "requests", "initial", "active", "log")

    def __init__(self, label, fleet, requests, log) -> None:
        self.label = label
        self.fleet = fleet
        self.requests = requests
        # Operating points and the active count before the run: the
        # governor log records every later change.
        self.initial = [
            (instance.latency_scale, instance.busy_power_w)
            for instance in fleet.instances
        ]
        self.active = sum(
            1 for instance in fleet.instances if instance.active
        )
        self.log = log


class Observability:
    """Session-wide telemetry configuration and state.

    Args:
        trace: Record per-request spans and instant events.
        metrics_every_s: Metrics sampling window in simulated seconds;
            ``None`` disables the timeline.
    """

    def __init__(
        self,
        trace: bool = False,
        metrics_every_s: float | None = None,
    ) -> None:
        if metrics_every_s is not None:
            check_window(metrics_every_s, "metrics interval")
        self.recorder = TraceRecorder() if trace else None
        self.metrics_every_s = metrics_every_s
        self._observed: dict[int, _Observed] = {}

    @property
    def active(self) -> bool:
        return (
            self.recorder is not None
            or self.metrics_every_s is not None
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def observe(
        self,
        pid: int,
        label: str,
        fleet,
        requests,
        governor=None,
    ):
        """Register one engine's fleet and request stream (before the
        run starts); returns the governor the run should use — wrapped
        in a :class:`GovernorObserver` when there is one.

        Idempotent per ``pid``.
        """
        log = None
        if governor is not None:
            log = ControlLog(self.metrics_every_s)
            governor = GovernorObserver(governor, log, self.recorder, pid)
        self._observed[pid] = _Observed(label, fleet, requests, log)
        if self.recorder is not None:
            self.recorder.set_process_name(pid, label)
            for instance in fleet.instances:
                self.recorder.set_thread_name(
                    pid, instance.index, f"instance {instance.index}"
                )
        return governor

    def spill(
        self,
        donor_pid: int,
        target_pid: int,
        request,
        hop_ms: float,
    ) -> None:
        """Record one spillover forward (tenancy's exchange barrier)."""
        if self.recorder is None:
            return
        self.recorder.instant(
            "spill",
            cat="spillover",
            ts_s=request.arrival,
            pid=donor_pid,
            args={
                "target": target_pid,
                "model": request.model,
                "hop_ms": hop_ms,
            },
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def spec(self) -> dict:
        """The configuration a checkpoint stores so a resume can check
        it re-ran with matching telemetry flags."""
        return {
            "trace": self.recorder is not None,
            "metrics_every_s": self.metrics_every_s,
        }

    @staticmethod
    def check_resume(spec: dict | None, obs) -> None:
        """Validate a resume's telemetry flags against the checkpoint.

        A traced checkpoint resumed without ``--trace`` (or vice versa)
        would silently produce a partial trace; fail loudly instead.
        """
        want = spec or {"trace": False, "metrics_every_s": None}
        have = (
            obs.spec()
            if obs is not None
            else {"trace": False, "metrics_every_s": None}
        )
        if want != have:
            def _flags(entry: dict) -> str:
                parts = []
                if entry["trace"]:
                    parts.append("--trace")
                if entry["metrics_every_s"] is not None:
                    parts.append(
                        f"--metrics-every {entry['metrics_every_s']}"
                    )
                return " ".join(parts) or "no telemetry flags"
            raise ReproError(
                "checkpoint was taken with "
                f"{_flags(want)} but this resume passed "
                f"{_flags(have)}: rerun the resume with the "
                "checkpoint's telemetry flags"
            )

    def take_over(self, saved: "Observability") -> None:
        """Continue ``saved``'s session: the session a checkpoint
        pickled alongside its execution, whose governor wrappers log
        into ``saved``'s recorder and logs.  Call after
        :meth:`check_resume` validated that both share one spec."""
        self.recorder = saved.recorder
        self._observed = saved._observed

    # ------------------------------------------------------------------
    # Output (call after the observed engines drained)
    # ------------------------------------------------------------------

    def _derived(self) -> list:
        """``(pid, observed, columns, schedule)`` per engine."""
        result = []
        for pid in sorted(self._observed):
            observed = self._observed[pid]
            cols = derive.columns(observed.requests)
            sched = derive.Schedule(
                cols, observed.fleet, observed.initial, observed.log
            )
            result.append((pid, observed, cols, sched))
        return result

    def counts(self) -> dict:
        """Aggregate conservation counters across every observed engine
        (one per fleet): spans + sheds must equal offered."""
        offered = completed = shed = 0
        for observed in self._observed.values():
            cols = derive.columns(observed.requests)
            offered += len(cols)
            completed += int(np.count_nonzero(cols.start >= 0.0))
            shed += int(np.count_nonzero(cols.shed))
        return {
            "offered": offered,
            "completed": completed,
            "shed": shed,
        }

    def trace_events(self) -> list:
        """Every derived span and shed instant as one encoded
        ``(ts_us, texts)`` block per fleet (:func:`derive.trace_events`),
        batches numbered across fleets in launch order (start time,
        fleet, instance)."""
        derived = self._derived()
        if not derived:
            return []
        starts = np.concatenate([d[3].start for d in derived])
        pids = np.concatenate(
            [np.full(len(d[3].start), d[0]) for d in derived]
        )
        insts = np.concatenate([d[3].inst for d in derived])
        ids = np.empty(len(starts), dtype=np.int64)
        ids[np.lexsort((insts, pids, starts))] = np.arange(
            1, len(starts) + 1
        )
        blocks = []
        offset = 0
        for pid, _, cols, sched in derived:
            count = len(sched.start)
            blocks.append(
                derive.trace_events(
                    pid, cols, sched, ids[offset:offset + count]
                )
            )
            offset += count
        return blocks

    def _check_traced(self) -> None:
        if self.recorder is None:
            raise ReproError(
                "no trace was recorded (session started without trace)"
            )

    def trace_payload(self) -> dict:
        """The complete Chrome trace-event object :meth:`write_trace`
        writes (recorded instants + derived spans + counters), parsed
        from the same encoded text."""
        self._check_traced()
        return self.recorder.to_payload(
            self.counts(), self.trace_events()
        )

    def write_trace(self, path) -> None:
        self._check_traced()
        self.recorder.write(
            path, other_data=self.counts(), events=self.trace_events()
        )

    def metrics_payload(self) -> dict | None:
        """The ``--json`` report's ``metrics`` section, or ``None``."""
        if self.metrics_every_s is None:
            return None
        timelines = []
        for pid, observed, cols, sched in self._derived():
            entry = {"pid": pid, "label": observed.label}
            entry.update(
                derive.timeline(
                    cols,
                    sched,
                    self.metrics_every_s,
                    observed.active,
                    observed.log,
                ).to_payload()
            )
            timelines.append(entry)
        return {
            "window_s": self.metrics_every_s,
            "timelines": timelines,
        }
