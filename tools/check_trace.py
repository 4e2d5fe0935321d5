#!/usr/bin/env python3
"""Validate a trace written by ``repro serve/control --trace``.

Stdlib-only (runs in CI without installing the package). Checks:

* the file is well-formed Chrome trace-event JSON — a top-level object
  with a ``traceEvents`` list (the format Perfetto and
  ``chrome://tracing`` load);
* every event is a known phase (``X`` complete span, ``i`` instant,
  ``M`` metadata) with the fields that phase requires, and every
  ``X`` span has a non-negative duration;
* non-metadata timestamps are monotone non-decreasing in file order
  (the recorder sorts on write; a violation means a torn or
  hand-edited file);
* the span-conservation invariant against the embedded counters:
  request spans == completed, shed instants == shed, and
  spans + shed == offered — every offered request ends in exactly one
  terminal event;
* schedule physics, which the counters cannot vouch for (they are
  derived from the same columns as the spans): batch spans on one
  ``(pid, tid)`` lane never overlap, every request span's ``batch`` id
  names a batch span on the same lane, each batch's ``size`` equals
  its member count, and no member arrived after its batch launched;
* canonical form: the file text equals
  ``json.dumps(json.loads(text), separators=(",", ":")) + "\n"`` —
  the writer encodes events from text templates, and this is the
  contract those templates must keep (key order, number spelling,
  string escapes, no stray whitespace).

Exits 0 and prints a one-line summary when the trace passes; exits 1
with the first violation otherwise.

Usage::

    python tools/check_trace.py out.trace.json
"""

from __future__ import annotations

import json
import sys

_PHASES = {"X", "i", "M"}

#: Span ``ts`` and ``dur`` are each rounded to 1 ns (0.001 µs), so a
#: batch launched at its predecessor's completion may appear to start
#: up to two rounding quanta before that predecessor ends.
_OVERLAP_TOL_US = 0.002


def check_trace(path: str) -> str:
    """Validate one trace file; returns the summary line.

    Raises:
        ValueError: On the first violation found.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        payload = json.loads(text)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(
            f"{path}: top level must be an object, got "
            f"{type(payload).__name__}"
        )
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError(f"{path}: no traceEvents list")
    # Compared while the text is alive anyway (the check's peak memory
    # stays the parse's), reported after every other rule.
    noncanonical_at = _noncanonical_at(text, payload)
    del text

    last_ts = None
    request_spans = 0
    shed_instants = 0
    batches: dict = {}  # id -> (lane, ts, dur, size)
    members: list = []  # (event index, batch id, lane, ts)
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"{path}: event {i} is not an object")
        phase = event.get("ph")
        if phase not in _PHASES:
            raise ValueError(
                f"{path}: event {i} has unknown phase {phase!r}"
            )
        if phase == "M":
            continue
        for key in ("name", "ts", "pid", "tid"):
            if key not in event:
                raise ValueError(
                    f"{path}: event {i} ({event.get('name')!r}) "
                    f"is missing {key!r}"
                )
        ts = event["ts"]
        if not isinstance(ts, (int, float)):
            raise ValueError(
                f"{path}: event {i} has non-numeric ts {ts!r}"
            )
        if last_ts is not None and ts < last_ts:
            raise ValueError(
                f"{path}: timestamps regress at event {i} "
                f"({ts} after {last_ts}); events must be sorted"
            )
        last_ts = ts
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"{path}: span {i} ({event['name']!r}) has "
                    f"invalid duration {dur!r}"
                )
            lane = (event["pid"], event["tid"])
            args = event.get("args") or {}
            if event.get("cat") == "request":
                request_spans += 1
                if "batch" in args:
                    members.append((i, args["batch"], lane, ts))
            elif event.get("cat") == "batch":
                batch = args.get("batch")
                if batch in batches:
                    raise ValueError(
                        f"{path}: batch id {batch!r} is used by two "
                        "batch spans"
                    )
                batches[batch] = (lane, ts, dur, args.get("size"))
        elif event["name"] == "shed":
            shed_instants += 1

    _check_schedule(path, batches, members)

    counters = payload.get("otherData") or {}
    for key in ("offered", "completed", "shed"):
        if key not in counters:
            raise ValueError(
                f"{path}: otherData is missing the {key!r} counter"
            )
    offered = counters["offered"]
    completed = counters["completed"]
    shed = counters["shed"]
    if request_spans != completed:
        raise ValueError(
            f"{path}: {request_spans} request spans but "
            f"{completed} completed requests"
        )
    if shed_instants != shed:
        raise ValueError(
            f"{path}: {shed_instants} shed instants but "
            f"{shed} shed requests"
        )
    if request_spans + shed_instants != offered:
        raise ValueError(
            f"{path}: spans ({request_spans}) + shed "
            f"({shed_instants}) != offered ({offered}); a request "
            "was dropped or double-counted"
        )
    if noncanonical_at is not None:
        raise ValueError(
            f"{path}: not in canonical compact form near character "
            f"{noncanonical_at} (the text must equal "
            "json.dumps(json.loads(text), separators=(',', ':')) plus a "
            "newline)"
        )
    return (
        f"{path}: OK — {len(events)} events, {request_spans} request "
        f"spans + {shed_instants} shed == {offered} offered"
    )


#: List items encoded per piece of the canonical text; small pieces keep
#: the comparison's own memory to a few hundred KiB.
_ITEMS = 64


def _noncanonical_at(text: str, payload: dict) -> int | None:
    """Where ``text`` first departs from ``json.dumps(payload,
    separators=(",", ":")) + "\\n"``, or ``None`` when it does not.
    The canonical side is encoded a piece at a time
    (:func:`_canonical_pieces`), never as a second whole copy."""
    pos = 0
    for piece in _canonical_pieces(payload):
        if not text.startswith(piece, pos):
            return pos
        pos += len(piece)
    return None if pos == len(text) else pos


def _canonical_pieces(payload: dict):
    """The canonical text of ``payload`` plus a newline, one top-level
    key or value, or a slice of a top-level list's items, at a time."""
    yield "{"
    for i, (key, value) in enumerate(payload.items()):
        yield ("," if i else "") + _compact(key) + ":"
        if isinstance(value, list):
            yield "["
            for lo in range(0, len(value), _ITEMS):
                items = _compact(value[lo:lo + _ITEMS])[1:-1]
                yield ("," if lo else "") + items
            yield "]"
        else:
            yield _compact(value)
    yield "}\n"


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _check_schedule(path: str, batches: dict, members: list) -> None:
    """Batch/request schedule physics (see the module docstring)."""
    counts: dict = {}
    for i, batch, lane, ts in members:
        found = batches.get(batch)
        if found is None or found[0] != lane:
            raise ValueError(
                f"{path}: request span {i} names batch {batch!r}, which "
                f"is not a batch span on its lane {lane}"
            )
        if ts > found[1]:
            raise ValueError(
                f"{path}: request span {i} arrived at {ts} after its "
                f"batch {batch!r} launched at {found[1]}"
            )
        counts[batch] = counts.get(batch, 0) + 1
    lanes: dict = {}
    for batch, (lane, ts, dur, size) in batches.items():
        if counts.get(batch, 0) != size:
            raise ValueError(
                f"{path}: batch {batch!r} has size {size!r} but "
                f"{counts.get(batch, 0)} member request spans"
            )
        lanes.setdefault(lane, []).append((ts, dur, batch))
    for lane, spans in lanes.items():
        spans.sort()
        for (ts, dur, batch), (next_ts, _, next_batch) in zip(
            spans, spans[1:]
        ):
            if next_ts < ts + dur - _OVERLAP_TOL_US:
                raise ValueError(
                    f"{path}: batches {batch!r} and {next_batch!r} "
                    f"overlap on lane {lane} ({next_ts} < {ts} + {dur})"
                )


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: check_trace.py TRACE.json", file=sys.stderr)
        return 2
    try:
        print(check_trace(argv[0]))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
