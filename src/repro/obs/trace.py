"""Chrome trace-event recording and export for engine runs.

:class:`TraceRecorder` writes the Chrome trace-event JSON object format
— a ``traceEvents`` array plus ``otherData`` — which Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing`` load directly.
Simulated seconds map to trace microseconds, fleets map to trace
*processes* (``pid``), instances to *threads* (``tid``), so the
per-instance timeline renders as one lane per accelerator.

During a run the recorder only holds the few control-side instants
(governor actions, spillover forwards) as dicts.  Request/batch spans
and shed instants are encoded at write time straight from the drained
arena columns (:func:`repro.obs.derive.trace_events`): one fixed text
template per event kind (:data:`SHED`, :data:`BATCH`, :data:`REQUEST`,
:data:`REQUEST_SLACK`), filled row by row (:func:`fill`) with numbers
spelled from integers (:class:`Number`) and names JSON-encoded once
per distinct string (:func:`encoded`) — no per-span dict and no
``json.dumps`` or float ``repr`` per event.
The text is byte-identical to ``json.dumps(payload, separators=(",",
":"))`` of the equivalent dicts; :meth:`TraceRecorder.to_payload` is a
``json.loads`` of that same text.

Recording is deterministic: events carry no wall-clock component, the
writer orders them by timestamp with list order breaking ties (the
recorded instants first, then the derived blocks in the order given),
and the recorder rides a checkpoint inside its pickled session — a
killed-and-resumed run reproduces the trace byte for byte.
"""

from __future__ import annotations

import json

import numpy as np

from .._atomic import write_atomic
from ..errors import ReproError

__all__ = [
    "TraceRecorder",
    "SHED",
    "BATCH",
    "REQUEST",
    "REQUEST_SLACK",
    "Number",
    "encoded",
    "fill",
    "summarize_trace",
    "render_trace_summary",
]

_COMPACT = (",", ":")

#: Event templates, one per derived kind, with the key order the
#: dict-built events had.  ``%r`` slots take a :class:`Number`, ``%s``
#: slots :func:`encoded` names, ``%d`` slots ints.
SHED = (
    '{"name":"shed","cat":"admission","ph":"i","ts":%r,"pid":%d,'
    '"tid":%d,"s":"t","args":{"model":%s,"class":%s}}'
)
BATCH = (
    '{"name":%s,"cat":"batch","ph":"X","ts":%r,"dur":%r,"pid":%d,'
    '"tid":%d,"args":{"batch":%d,"size":%d}}'
)
REQUEST = (
    '{"name":%s,"cat":"request","ph":"X","ts":%r,"dur":%r,"pid":%d,'
    '"tid":%d,"args":{"batch":%d,"class":%s,"wait_ms":%r}}'
)
REQUEST_SLACK = REQUEST[:-2] + ',"slack_ms":%r}}'

#: Events per joined slice of the written text.
_SLICE = 4096


def _us(ts_s: float) -> float:
    """Simulated seconds -> trace microseconds (µs), stabilized so the
    JSON rendering stays compact and deterministic."""
    return round(ts_s * 1e6, 3)


def _rounded(values: np.ndarray, digits: int) -> np.ndarray:
    """``round(v, digits)`` of every element, bit for bit.

    ``rint(v * 10**digits) / 10**digits`` is Python's correctly rounded
    ``round`` whenever ``rint`` rounds the exact product: that holds
    unless the computed product lies within its rounding error of a
    half-integer (or is not finite).  Those few elements are redone
    with ``round`` itself.
    """
    scale = 10.0 ** digits
    with np.errstate(over="ignore", invalid="ignore"):
        y = values * scale
        out = np.rint(y) / scale
        near_half = ~(
            np.abs(y - np.floor(y) - 0.5)
            > 4.0 * np.spacing(np.maximum(np.abs(y), 1.0))
        )
    for i in np.flatnonzero(near_half).tolist():
        out[i] = round(float(values[i]), digits)
    return out


#: ``_FRACTION[f]``: the text after the integer part of ``i + f/1000``
#: as ``repr`` spells it (trailing zeros stripped, ``.0`` for none);
#: ``_PAD``/``_TAIL`` spell the leading and trailing three of six
#: fraction digits.
_FRACTION = np.array(
    ["." + (f"{f:03d}".rstrip("0") or "0") for f in range(1000)],
    dtype=object,
)
_PAD = np.array([f".{f:03d}" for f in range(1000)], dtype=object)
_TAIL = np.array([f"{f:03d}".rstrip("0") for f in range(1000)], dtype=object)


class Number:
    """A float column rounded to ``digits`` (3 or 6) decimals, for a
    template's ``%r`` slot: the text is ``json.dumps(round(v,
    digits))``.

    ``values`` holds the rounded floats.  Their ``repr`` is spelled
    from integers instead of per-float shortest-digit conversion: for
    ``|k| < 2**50``, ``k = rint(values * 10**digits)`` recovers the
    rounded decimal exactly and the float spacing is finer than
    ``10**-digits``, so the shortest round-tripping digits are exactly
    ``k``'s — a signed integer part (``head``) plus a fraction from a
    table (``tail``).  The few rows this cannot spell (``repr``
    exponents below ``1e-4`` or at large magnitudes, a negative value
    with zero integer part, non-finite values) take ``repr`` itself
    as the head and an empty tail.
    """

    __slots__ = ("values", "head", "tail")

    def __init__(self, values: np.ndarray, digits: int) -> None:
        if digits not in (3, 6):
            raise ValueError(f"digits must be 3 or 6, got {digits}")
        self.values = _rounded(values, digits)
        scale = 10**digits
        with np.errstate(over="ignore", invalid="ignore"):
            k = np.rint(self.values * scale)
            mag = np.abs(k)
            slow = (
                ~(mag < 2.0**50)
                | (np.signbit(k) & (mag < scale))
                | ((mag > 0) & (mag < 10.0 ** (digits - 4)))
            )
        whole, part = np.divmod(
            np.where(slow, 0.0, mag).astype(np.int64), scale
        )
        self.head = np.where(k < 0, -whole, whole).astype(object)
        if digits == 3:
            self.tail = _FRACTION[part]
        else:
            hi, lo = np.divmod(part, 1000)
            self.tail = np.where(
                lo == 0, _FRACTION[hi], _PAD[hi] + _TAIL[lo]
            )
        for i in np.flatnonzero(slow).tolist():
            self.head[i] = repr(float(self.values[i]))
            self.tail[i] = ""

    def __getitem__(self, rows) -> "Number":
        part = object.__new__(Number)
        for name in Number.__slots__:
            setattr(part, name, getattr(self, name)[rows])
        return part


def encoded(names) -> np.ndarray:
    """``json.dumps`` of each name, as an object array to index by a
    name-index column."""
    result = np.empty(len(names), dtype=object)
    result[:] = [json.dumps(name) for name in names]
    return result


def fill(template: str, *columns) -> list:
    """``template % row`` for each row of equal-length ``columns``:
    arrays, or a :class:`Number` per ``%r`` slot."""
    lists = []
    for column in columns:
        if isinstance(column, Number):
            lists.append(column.head.tolist())
            lists.append(column.tail.tolist())
        else:
            lists.append(column.tolist())
    return list(map(template.replace("%r", "%s%s").__mod__, zip(*lists)))


class TraceRecorder:
    """Accumulates trace events; one recorder spans a whole run (all
    fleets of a multi-fleet scenario share it)."""

    def __init__(self) -> None:
        self._events: list[dict] = []
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
    # Output
    # ------------------------------------------------------------------

    def _metadata(self) -> list:
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
        return metadata

    def _text(self, other_data: dict | None, events):
        """The trace file text (without the final newline), in slices.

        ``events`` are derived ``(ts_us, texts)`` blocks: rounded
        timestamps and encoded events, each block in list order.  The
        recorded instants come first in list order, and a stable sort
        on ``ts`` keeps list order at ties, so the byte layout is a
        pure function of the simulated schedule.
        """
        keys = [np.array([e["ts"] for e in self._events], dtype=float)]
        texts = [np.empty(len(self._events), dtype=object)]
        texts[0][:] = [
            json.dumps(e, separators=_COMPACT) for e in self._events
        ]
        for ts, block in events:
            keys.append(ts)
            texts.append(block)
        body = np.concatenate(texts)[
            np.argsort(np.concatenate(keys), kind="stable")
        ]
        head = ",".join(
            json.dumps(m, separators=_COMPACT) for m in self._metadata()
        )
        yield '{"traceEvents":[' + head
        sep = "," if head else ""
        for lo in range(0, len(body), _SLICE):
            yield sep + ",".join(body[lo:lo + _SLICE].tolist())
            sep = ","
        yield '],"displayTimeUnit":"ms","otherData":' + json.dumps(
            dict(other_data or {}), separators=_COMPACT
        ) + "}"

    def to_payload(
        self, other_data: dict | None = None, events=()
    ) -> dict:
        """The Chrome trace-event JSON object :meth:`write` writes
        (parsed from the same text): metadata, then the recorded
        instants and the derived ``events`` blocks sorted by ``ts``."""
        return json.loads("".join(self._text(other_data, events)))

    def write(
        self, path, other_data: dict | None = None, events=()
    ) -> None:
        """Atomically write the trace file (temp file + rename)."""

        def dump(handle) -> None:
            handle.writelines(self._text(other_data, events))
            handle.write("\n")

        write_atomic(
            path,
            dump,
            f"cannot write trace file {path}",
            prefix=".trace-",
            suffix=".json",
        )


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
