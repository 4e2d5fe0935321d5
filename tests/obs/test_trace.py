"""TraceRecorder: event shapes, the template encoder, determinism,
persistence, summaries."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import ControlScenario, simulate_controlled
from repro.control.slo import SLOClass
from repro.errors import ReproError
from repro.obs import (
    Observability,
    TraceRecorder,
    render_trace_summary,
    summarize_trace,
)
from repro.obs import trace
from repro.serve import ServingScenario, simulate

_COMPACT = (",", ":")


def _recorded(recorder):
    return recorder.to_payload()["traceEvents"]


def _span(template, name, ts_s, dur_s, tid, *args):
    """One templated complete span (``ph == "X"``) on pid 1."""
    return trace.fill(
        template,
        trace.encoded([name]),
        trace.Number(np.array([ts_s]) * 1e6, 3),
        trace.Number(np.array([dur_s]) * 1e6, 3),
        np.array([1]),
        np.array([tid]),
        *args,
    )[0]


def _block(*events):
    """A derived ``(ts_us, texts)`` block from ``(ts_us, text)`` pairs
    in list order."""
    texts = np.empty(len(events), dtype=object)
    texts[:] = [text for _, text in events]
    return np.array([ts for ts, _ in events], dtype=float), texts


class TestEventShapes:
    def test_complete_span(self):
        text = _span(trace.BATCH, "m", 0.25, 0.5, 2, np.array([3]),
                     np.array([4]))
        event = {
            "name": "m",
            "cat": "batch",
            "ph": "X",
            "ts": 250_000.0,
            "dur": 500_000.0,
            "pid": 1,
            "tid": 2,
            "args": {"batch": 3, "size": 4},
        }
        assert json.loads(text) == event
        assert text == json.dumps(event, separators=_COMPACT)

    @pytest.mark.parametrize("slack", [None, -2.5])
    def test_request_span(self, slack):
        template = trace.REQUEST if slack is None else trace.REQUEST_SLACK
        extra = () if slack is None else (
            trace.Number(np.array([slack]), 6),
        )
        text = _span(
            template, "m", 0.25, 0.5, 2, np.array([3]),
            trace.encoded(["gold"]), trace.Number(np.array([0.125]), 6),
            *extra,
        )
        args = {"batch": 3, "class": "gold", "wait_ms": 0.125}
        if slack is not None:
            args["slack_ms"] = slack
        event = {
            "name": "m",
            "cat": "request",
            "ph": "X",
            "ts": 250_000.0,
            "dur": 500_000.0,
            "pid": 1,
            "tid": 2,
            "args": args,
        }
        assert text == json.dumps(event, separators=_COMPACT)

    def test_shed_instant(self):
        (text,) = trace.fill(
            trace.SHED,
            trace.Number(np.array([1.5e-3]) * 1e6, 3),
            np.array([0]),
            np.array([3]),
            trace.encoded(["m"]),
            trace.encoded([""]),
        )
        assert text == json.dumps(
            {
                "name": "shed",
                "cat": "admission",
                "ph": "i",
                "ts": 1500.0,
                "pid": 0,
                "tid": 3,
                "s": "t",
                "args": {"model": "m", "class": ""},
            },
            separators=_COMPACT,
        )

    def test_thread_scoped_instant(self):
        recorder = TraceRecorder()
        recorder.instant("shed", cat="admission", ts_s=1.0, pid=0, tid=3)
        (event,) = _recorded(recorder)
        assert event["ph"] == "i"
        assert (event["tid"], event["s"]) == (3, "t")

    def test_process_scoped_instant(self):
        recorder = TraceRecorder()
        recorder.instant("spill", cat="spillover", ts_s=1.0, pid=4)
        (event,) = _recorded(recorder)
        assert (event["tid"], event["s"]) == (0, "p")

    def test_batch_ids_are_monotone(self):
        """Derived batch ids count launches in time order, and every
        request span names its batch."""
        obs = Observability(trace=True)
        simulate(ServingScenario(requests=200, seed=2), obs=obs)
        events = obs.trace_payload()["traceEvents"]
        batches = [e for e in events if e.get("cat") == "batch"]
        assert [e["args"]["batch"] for e in batches] == list(
            range(1, len(batches) + 1)
        )
        sizes = {e["args"]["batch"]: e["args"]["size"] for e in batches}
        members = {}
        for event in events:
            if event.get("cat") == "request":
                batch = event["args"]["batch"]
                members[batch] = members.get(batch, 0) + 1
        assert members == sizes

    def test_timestamps_map_to_microseconds(self):
        recorder = TraceRecorder()
        recorder.instant("x", cat="c", ts_s=1.2345678901, pid=0)
        (event,) = _recorded(recorder)
        assert event["ts"] == 1_234_567.89


class TestPayloadOrdering:
    def test_events_sorted_by_timestamp_insertion_tiebreak(self):
        recorder = TraceRecorder()
        recorder.instant("late", cat="c", ts_s=2.0, pid=0)
        recorder.instant("early", cat="c", ts_s=1.0, pid=0)
        recorder.instant("tie-a", cat="c", ts_s=1.5, pid=0)
        recorder.instant("tie-b", cat="c", ts_s=1.5, pid=0)
        names = [e["name"] for e in _recorded(recorder)]
        assert names == ["early", "tie-a", "tie-b", "late"]

    def test_recorded_instants_lead_derived_blocks_at_ties(self):
        """Ties keep list order: recorded instants, then the derived
        blocks in the order given, each in its own list order."""
        recorder = TraceRecorder()
        recorder.instant("rec", cat="c", ts_s=1e-6, pid=0)
        first = _block((1.0, '{"name":"a","ts":1.0}'),
                       (0.5, '{"name":"b","ts":0.5}'))
        second = _block((1.0, '{"name":"c","ts":1.0}'),
                        (0.5, '{"name":"d","ts":0.5}'))
        names = [
            e["name"]
            for e in recorder.to_payload(events=[first, second])[
                "traceEvents"
            ]
        ]
        assert names == ["b", "d", "rec", "a", "c"]

    def test_metadata_precedes_events(self):
        recorder = TraceRecorder()
        recorder.instant("x", cat="c", ts_s=0.0, pid=0)
        recorder.set_process_name(0, "fleet 0")
        recorder.set_thread_name(0, 1, "instance 1")
        events = _recorded(recorder)
        assert [e["ph"] for e in events] == ["M", "M", "i"]
        assert events[0]["args"] == {"name": "fleet 0"}

    def test_other_data_embedded(self):
        recorder = TraceRecorder()
        payload = recorder.to_payload({"offered": 7})
        assert payload["otherData"] == {"offered": 7}
        assert payload["displayTimeUnit"] == "ms"


class TestWriteAndSummarize:
    def _sample(self, path):
        recorder = TraceRecorder()
        recorder.set_process_name(0, "fleet 0")
        recorder.instant("shed", cat="admission", ts_s=0.002, pid=0, tid=1)
        spans = _block(
            (0.0, _span(trace.REQUEST, "m", 0.0, 0.004, 0, np.array([0]),
                        trace.encoded([""]),
                        trace.Number(np.array([1.0]), 6))),
            (1000.0, _span(trace.BATCH, "m", 0.001, 0.002, 0,
                           np.array([0]), np.array([1]))),
        )
        recorder.write(
            path,
            other_data={"offered": 2, "completed": 1, "shed": 1},
            events=[spans],
        )

    def test_written_file_is_compact_json_with_newline(self, tmp_path):
        path = tmp_path / "t.json"
        self._sample(path)
        text = path.read_text()
        assert text.endswith("\n")
        assert ": " not in text  # compact separators
        assert json.loads(text)["displayTimeUnit"] == "ms"

    @pytest.mark.parametrize("events", [0, 1, 5, 6])
    def test_sliced_write_equals_one_shot_json(
        self, tmp_path, monkeypatch, events
    ):
        """The writer joins events a slice at a time; the bytes must
        equal a one-shot compact dump, at and around slice edges."""
        monkeypatch.setattr(trace, "_SLICE", 3)
        recorder = TraceRecorder()
        recorder.set_process_name(0, "fleet 0")
        for i in range(events):
            recorder.instant("x", cat="c", ts_s=i * 1e-3, pid=0, tid=i)
        derived = _block(*(
            (i * 1e3, _span(trace.BATCH, "m", i * 1e-3, 1e-3, i,
                            np.array([i]), np.array([1])))
            for i in range(events)
        ))
        path = tmp_path / "t.json"
        recorder.write(
            path, other_data={"offered": events}, events=[derived]
        )
        expected = json.dumps(
            recorder.to_payload({"offered": events}, [derived]),
            separators=_COMPACT,
        )
        assert path.read_text() == expected + "\n"
        assert len(json.loads(expected)["traceEvents"]) == 2 * events + 1

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._sample(a)
        self._sample(b)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_raises_repro_error(self, tmp_path):
        recorder = TraceRecorder()
        with pytest.raises(ReproError):
            recorder.write(tmp_path / "no" / "dir" / "t.json")

    def test_directory_path_raises_repro_error(self, tmp_path):
        with pytest.raises(ReproError, match="cannot write trace file"):
            TraceRecorder().write(tmp_path)
        assert list(tmp_path.parent.glob(".trace-*")) == []

    def test_summary_counts_and_span(self, tmp_path):
        path = tmp_path / "t.json"
        self._sample(path)
        summary = summarize_trace(path)
        assert summary["events"] == 3
        assert summary["by_phase"] == {"M": 1, "X": 2, "i": 1}
        assert summary["by_category"] == {
            "request": 1, "batch": 1, "admission": 1
        }
        assert summary["span_us"] == 4000.0
        assert summary["other_data"]["offered"] == 2
        text = render_trace_summary(path, summary)
        assert "3 events" in text
        assert "offered=2" in text

    def test_summary_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            summarize_trace(tmp_path / "nope.json")

    def test_summary_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="not valid JSON"):
            summarize_trace(path)

    def test_summary_non_trace_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"reports": []}')
        with pytest.raises(ReproError, match="traceEvents"):
            summarize_trace(path)


#: Finite floats with the awkward corners drawn often: signed zeros,
#: sub-µs values, values at rounding halves, and magnitudes whose
#: ``repr`` takes an exponent.
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-3, max_value=1e-3),
    st.sampled_from(
        [0.0, -0.0, 5e-7, -5e-7, 0.0005, 2.5e-6, 1e10, 1e16,
         2.0**50 / 1e3, 2.0**50 / 1e6, -(2.0**50) / 1e3 - 0.5]
    ),
    st.integers(-10**9, 10**9).map(lambda k: k / 2000),
    st.floats(min_value=1e10, max_value=1e22).map(lambda x: x * 1e6),
    st.floats(min_value=-1e13, max_value=1e13),
)


class TestNumberText:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_FLOATS, min_size=1, max_size=40),
           st.sampled_from([3, 6]))
    def test_text_equals_json_dumps_of_round(self, values, digits):
        number = trace.Number(np.array(values, dtype=float), digits)
        assert trace.fill("%r", number) == [
            json.dumps(round(x, digits)) for x in values
        ]
        assert number.values.tolist() == [round(x, digits) for x in values]

    def test_slow_rows_render_inside_templates(self):
        """Rows spelled by ``repr`` itself (exponents, small negatives)
        still fill the whole template."""
        values = np.array([1.25, 5e-7 * 1e3, -0.5, 3e17])
        texts = trace.fill('{"a":%r,"b":%d}', trace.Number(values, 6),
                           np.arange(4))
        assert texts == [
            json.dumps({"a": round(x, 6), "b": i}, separators=_COMPACT)
            for i, x in enumerate(values.tolist())
        ]


class TestEscapedNames:
    def test_slo_class_name_encodes_as_json_dumps(self, tmp_path):
        """Names with quotes, backslashes and non-ASCII characters are
        encoded exactly as ``json.dumps`` encodes them; the file is
        in canonical compact form."""
        name = 'gold "vip" \\ caf\u00e9'
        scenario = ControlScenario(
            requests=300,
            instances=2,
            qps=6_000.0,
            shedding="deadline",
            seed=2,
            slo_classes=(
                SLOClass(name, deadline_ms=5.0, priority=0),
                SLOClass("bulk", deadline_ms=float("inf"), priority=1),
            ),
        )
        obs = Observability(trace=True)
        simulate_controlled(scenario, obs=obs)
        path = tmp_path / "t.json"
        obs.write_trace(path)
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(
            json.loads(text), separators=_COMPACT
        ) + "\n"
        assert '"class":' + json.dumps(name) in text
        events = json.loads(text)["traceEvents"]
        classes = {
            e["args"]["class"] for e in events if e.get("cat") == "request"
        }
        assert classes == {name, "bulk"}
        slack = {
            e["args"]["class"]: "slack_ms" in e["args"]
            for e in events
            if e.get("cat") == "request"
        }
        assert slack == {name: True, "bulk": False}
