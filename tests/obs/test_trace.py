"""TraceRecorder: event shapes, determinism, persistence, summaries."""

import json

import numpy as np
import pytest

from repro.errors import ReproError
from repro.obs import (
    Observability,
    TraceRecorder,
    render_trace_summary,
    summarize_trace,
)
from repro.obs.trace import complete_events
from repro.serve import ServingScenario, simulate


def _recorded(recorder):
    return recorder.to_payload()["traceEvents"]


class TestEventShapes:
    def test_complete_span(self):
        (event,) = complete_events(
            ["m"], "request", np.array([0.25]), np.array([0.5]),
            pid=1, tids=[2], args=[{"batch": 3}],
        )
        assert event == {
            "name": "m",
            "cat": "request",
            "ph": "X",
            "ts": 250_000.0,
            "dur": 500_000.0,
            "pid": 1,
            "tid": 2,
            "args": {"batch": 3},
        }

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


class TestStateDict:
    def test_round_trip_preserves_events(self):
        recorder = TraceRecorder()
        recorder.instant("spill", cat="spillover", ts_s=0.1, pid=0)
        recorder.instant("power-up", cat="governor", ts_s=0.2, pid=0, tid=1)
        restored = TraceRecorder()
        restored.load_state_dict(recorder.state_dict())
        assert _recorded(restored) == _recorded(recorder)

    def test_display_names_are_not_state(self):
        """Names are wiring-time config, rebuilt by register_fleet on
        resume — a restored recorder starts nameless."""
        recorder = TraceRecorder()
        recorder.set_process_name(0, "fleet 0")
        restored = TraceRecorder()
        restored.load_state_dict(recorder.state_dict())
        assert _recorded(restored) == []


class TestWriteAndSummarize:
    def _sample(self, path):
        recorder = TraceRecorder()
        recorder.set_process_name(0, "fleet 0")
        recorder.instant("shed", cat="admission", ts_s=0.002, pid=0, tid=1)
        spans = [
            *complete_events(
                ["m"], "request", np.array([0.0]), np.array([0.004]),
                pid=0, tids=[0], args=[{"batch": 0}],
            ),
            *complete_events(
                ["m"], "batch", np.array([0.001]), np.array([0.002]),
                pid=0, tids=[0], args=[{"batch": 0}],
            ),
        ]
        recorder.write(
            path,
            other_data={"offered": 2, "completed": 1, "shed": 1},
            events=spans,
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
        """The writer encodes events a slice at a time; the bytes must
        equal a one-shot compact dump, at and around slice edges."""
        import repro.obs.trace as trace

        monkeypatch.setattr(trace, "_DUMP_SLICE", 3)
        recorder = TraceRecorder()
        recorder.set_process_name(0, "fleet 0")
        for i in range(events):
            recorder.instant("x", cat="c", ts_s=i * 1e-3, pid=0, tid=i)
        path = tmp_path / "t.json"
        recorder.write(path, other_data={"offered": events})
        expected = json.dumps(
            recorder.to_payload({"offered": events}),
            separators=(",", ":"),
        )
        assert path.read_text() == expected + "\n"

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._sample(a)
        self._sample(b)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_raises_repro_error(self, tmp_path):
        recorder = TraceRecorder()
        with pytest.raises(ReproError):
            recorder.write(tmp_path / "no" / "dir" / "t.json")

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
