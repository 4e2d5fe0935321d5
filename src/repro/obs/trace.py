"""Chrome trace-event recording for engine runs.

:class:`TraceRecorder` accumulates *instant* events (``ph == "i"``) and
writes them, with the *complete* spans (``ph == "X"``) that
:func:`complete_events` builds from columns, as
the Chrome trace-event JSON object format — a ``traceEvents`` array
plus ``otherData`` — which Perfetto (https://ui.perfetto.dev) and
``chrome://tracing`` load directly.  Simulated seconds map to trace
microseconds, fleets map to trace *processes* (``pid``), instances to
*threads* (``tid``), so the per-instance timeline renders as one lane
per accelerator.

During a run the recorder only holds control-side instants (governor
actions, spillover forwards); request/batch spans and shed instants are
derived from the drained arena columns at write time and passed to
:meth:`TraceRecorder.write` (see :mod:`repro.obs.derive`).  Recording is
deterministic: events carry no wall-clock component, the writer orders
them by timestamp with list order breaking ties, and the recorded list
round-trips through ``state_dict`` / ``load_state_dict`` — a
killed-and-resumed run reproduces the trace byte for byte.
"""

from __future__ import annotations

import json
import os
import tempfile

from ..errors import ReproError

__all__ = [
    "TraceRecorder",
    "complete_events",
    "instant_events",
    "summarize_trace",
    "render_trace_summary",
]


def _us(ts_s: float) -> float:
    """Simulated seconds -> trace microseconds (µs), stabilized so the
    JSON rendering stays compact and deterministic."""
    return round(ts_s * 1e6, 3)


def complete_events(names, cat, ts_s, dur_s, pid, tids, args) -> list:
    """Complete spans (``ph == "X"``) over columns: ``ts_s`` /
    ``dur_s`` are float arrays of simulated seconds (``x * 1e6``
    elementwise rounds exactly as :func:`_us` does a scalar),
    ``names`` / ``tids`` / ``args`` are sequences with one non-empty
    ``args`` dict per span."""
    return [
        {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": ts,
            "dur": dur,
            "pid": pid,
            "tid": tid,
            "args": arg,
        }
        for name, ts, dur, tid, arg in zip(
            names,
            [round(x, 3) for x in (ts_s * 1e6).tolist()],
            [round(x, 3) for x in (dur_s * 1e6).tolist()],
            tids,
            args,
        )
    ]


class TraceRecorder:
    """Accumulates trace events; one recorder spans a whole run (all
    fleets of a multi-fleet scenario share it)."""

    def __init__(self) -> None:
        self._events: list[dict] = []
        # Display names are wiring-time configuration, rebuilt
        # deterministically on resume — deliberately *not* part of
        # state_dict.
        self._process_names: dict[int, str] = {}
        self._thread_names: dict[tuple[int, int], str] = {}

    def __len__(self) -> int:
        return len(self._events)

    def set_process_name(self, pid: int, name: str) -> None:
        self._process_names[pid] = name

    def set_thread_name(self, pid: int, tid: int, name: str) -> None:
        self._thread_names[(pid, tid)] = name

    def instant(
        self,
        name: str,
        cat: str,
        ts_s: float,
        pid: int,
        tid: int | None = None,
        args: dict | None = None,
    ) -> None:
        """Record one instant event (``ph == "i"``; thread-scoped when
        ``tid`` is given, process-scoped otherwise)."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "ts": _us(ts_s),
            "pid": pid,
        }
        if tid is not None:
            event["tid"] = tid
            event["s"] = "t"
        else:
            event["tid"] = 0
            event["s"] = "p"
        if args:
            event["args"] = args
        self._events.append(event)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        return {"events": list(self._events)}

    def load_state_dict(self, state: dict) -> None:
        self._events = list(state["events"])

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def to_payload(
        self, other_data: dict | None = None, events=()
    ) -> dict:
        """The Chrome trace-event JSON object: the recorded events
        followed by ``events`` (derived spans), sorted by ``ts``."""
        metadata = []
        for pid, name in sorted(self._process_names.items()):
            metadata.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "args": {"name": name},
                }
            )
        for (pid, tid), name in sorted(self._thread_names.items()):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        # Stable sort: ties keep list order, so the byte layout is a
        # pure function of the simulated schedule.
        events = self._events + list(events)
        events.sort(key=_ts)
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": dict(other_data or {}),
        }

    def write(
        self, path, other_data: dict | None = None, events=()
    ) -> None:
        """Atomically write the trace file (temp file + rename)."""
        payload = self.to_payload(other_data, events)
        directory = os.path.dirname(os.path.abspath(path))
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=directory, prefix=".trace-", suffix=".json"
            )
        except OSError as exc:
            raise ReproError(
                f"cannot write trace file {path}: {exc}"
            ) from exc
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                _dump_compact(payload, handle)
                handle.write("\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


def _ts(event: dict) -> float:
    return event["ts"]


#: Events per encoded slice in :func:`_dump_compact`.
_DUMP_SLICE = 4096


def _dump_compact(payload: dict, handle) -> None:
    """Write ``json.dumps(payload, separators=(",", ":"))`` — the same
    bytes — encoding ``traceEvents`` a slice at a time, so a large
    trace never holds its whole JSON text in memory at once."""
    events = payload["traceEvents"]
    handle.write('{"traceEvents":[')
    for lo in range(0, len(events), _DUMP_SLICE):
        if lo:
            handle.write(",")
        text = json.dumps(
            events[lo:lo + _DUMP_SLICE],
            separators=(",", ":"),
            check_circular=False,
        )
        handle.write(text[1:-1])
    rest = json.dumps(
        {key: value for key, value in payload.items()
         if key != "traceEvents"},
        separators=(",", ":"),
    )
    handle.write("]," + rest[1:])


def instant_events(name, cat, ts_s, pid, tids, args) -> list:
    """Thread-scoped :meth:`TraceRecorder.instant` events over columns
    (``ts_s`` a float array; one ``tid`` and one non-empty ``args`` per
    event)."""
    return [
        {
            "name": name,
            "cat": cat,
            "ph": "i",
            "ts": ts,
            "pid": pid,
            "tid": tid,
            "s": "t",
            "args": arg,
        }
        for ts, tid, arg in zip(
            [round(x, 3) for x in (ts_s * 1e6).tolist()], tids, args
        )
    ]


def summarize_trace(path) -> dict:
    """Digest a trace-event file into headline numbers.

    Returns a plain dict: event counts by phase and by category, the
    simulated time span covered, per-process span counts, and the
    writer's ``otherData`` (conservation counters) verbatim.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read trace file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(
            f"trace file {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ReproError(
            f"trace file {path} is not a trace-event JSON object "
            "(no traceEvents key)"
        )
    events = payload["traceEvents"]
    by_phase: dict[str, int] = {}
    by_cat: dict[str, int] = {}
    by_pid: dict[int, int] = {}
    t_min = None
    t_max = None
    for event in events:
        ph = event.get("ph", "?")
        by_phase[ph] = by_phase.get(ph, 0) + 1
        if ph == "M":
            continue
        cat = event.get("cat", "?")
        by_cat[cat] = by_cat.get(cat, 0) + 1
        pid = event.get("pid", 0)
        by_pid[pid] = by_pid.get(pid, 0) + 1
        ts = float(event.get("ts", 0.0))
        end = ts + float(event.get("dur", 0.0))
        t_min = ts if t_min is None else min(t_min, ts)
        t_max = end if t_max is None else max(t_max, end)
    return {
        "events": sum(
            count for ph, count in by_phase.items() if ph != "M"
        ),
        "by_phase": by_phase,
        "by_category": by_cat,
        "by_process": by_pid,
        "span_us": (
            0.0 if t_min is None else round(t_max - t_min, 3)
        ),
        "other_data": dict(payload.get("otherData", {})),
    }


def render_trace_summary(path, summary: dict) -> str:
    """Human-readable rendering of :func:`summarize_trace`."""
    lines = [f"Trace summary: {path}"]
    span_ms = summary["span_us"] * 1e-3
    lines.append(
        f"  {summary['events']} events over {span_ms:.3f} ms simulated"
    )
    for cat in sorted(summary["by_category"]):
        lines.append(f"  {cat:<12} {summary['by_category'][cat]}")
    if len(summary["by_process"]) > 1:
        procs = ", ".join(
            f"pid {pid}: {count}"
            for pid, count in sorted(summary["by_process"].items())
        )
        lines.append(f"  processes    {procs}")
    other = summary["other_data"]
    if other:
        counts = ", ".join(
            f"{key}={other[key]}" for key in sorted(other)
        )
        lines.append(f"  counters     {counts}")
    return "\n".join(lines)
