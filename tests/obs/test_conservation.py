"""Span conservation and trace determinism across the execution grid.

Every admitted request must close exactly one complete span, every
shed request exactly one shed instant, and spans + sheds == offered —
across arrival shapes, hooked/hook-free planes, and kill/resume.  The
trace itself must be a pure function of the scenario: byte-identical
across repeated runs and across a mid-run checkpoint cut.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import checkpoint as cp
from repro.checkpoint import (
    resume_checkpointed,
    run_control_checkpointed,
    save_checkpoint,
)
from repro.control import (
    ControlScenario,
    MultiFleetScenario,
    simulate_controlled,
    simulate_multi_fleet,
)
from repro.obs import Observability
from repro.serve import ServingScenario, simulate

ARRIVALS = ("poisson", "bursty", "diurnal")

_CHECK_TRACE = (
    Path(__file__).resolve().parents[2] / "tools" / "check_trace.py"
)


def _span_counts(obs) -> tuple[int, int]:
    events = obs.trace_payload()["traceEvents"]
    spans = sum(
        1
        for e in events
        if e["ph"] == "X" and e.get("cat") == "request"
    )
    sheds = sum(
        1 for e in events if e["ph"] == "i" and e["name"] == "shed"
    )
    return spans, sheds


def _assert_conserved(obs, offered: int) -> None:
    counts = obs.counts()
    spans, sheds = _span_counts(obs)
    assert spans == counts["completed"]
    assert sheds == counts["shed"]
    assert spans + sheds == counts["offered"] == offered


def _serve_scenario(arrival: str) -> ServingScenario:
    return ServingScenario(
        requests=600,
        instances=2,
        seed=13,
        arrival=arrival,
        diurnal_period_s=0.5,
    )


def _control_scenario(arrival: str) -> ControlScenario:
    return ControlScenario(
        requests=600,
        instances=2,
        qps=2_500.0,
        seed=13,
        arrival=arrival,
        diurnal_period_s=0.5,
        shedding="deadline",
        autoscale="utilization",
        min_instances=1,
    )


class TestConservationGrid:
    @pytest.mark.parametrize("arrival", ARRIVALS)
    def test_serve_hook_free(self, arrival):
        obs = Observability(trace=True)
        scenario = _serve_scenario(arrival)
        report = simulate(scenario, obs=obs)
        _assert_conserved(obs, scenario.requests)
        assert obs.counts()["shed"] == 0
        assert obs.counts()["completed"] == report.requests

    @pytest.mark.parametrize("arrival", ARRIVALS)
    def test_control_hooked(self, arrival):
        obs = Observability(trace=True)
        scenario = _control_scenario(arrival)
        report = simulate_controlled(scenario, obs=obs)
        _assert_conserved(obs, scenario.requests)
        assert obs.counts()["shed"] == report.shed_requests
        assert obs.counts()["completed"] == report.requests

    @pytest.mark.parametrize("arrival", ARRIVALS)
    def test_resume_from_checkpoint(self, arrival, tmp_path):
        scenario = _control_scenario(arrival)
        path = tmp_path / "run.ckpt"
        obs_cut = Observability(trace=True)
        execution = cp._begin_control(scenario, obs_cut)
        engine = execution.engine
        t_cut = 0.4 * float(execution.requests.arrival[-1])
        engine.run_until(t_cut)
        save_checkpoint(
            path,
            cp._payload(
                "control", scenario, execution, t_cut, 2 * t_cut,
                obs_cut,
            ),
        )
        obs_res = Observability(trace=True)
        _, _, report = resume_checkpointed(path, obs=obs_res)
        _assert_conserved(obs_res, scenario.requests)
        assert obs_res.counts()["completed"] == report.requests

    def test_priority_preemption(self):
        """A preempted victim was admitted and queued before it was
        shed; its shed verdict lives in the column, so it still ends in
        exactly one terminal event."""
        scenario = dataclasses.replace(
            _control_scenario("bursty"),
            shedding="priority",
            queue_threshold=4,
            autoscale="none",
            qps=6_000.0,
        )
        obs = Observability(trace=True)
        report = simulate_controlled(scenario, obs=obs)
        assert report.shed_requests > 0
        _assert_conserved(obs, scenario.requests)
        assert obs.counts()["shed"] == report.shed_requests

    def test_multi_fleet_spillover(self):
        base = ControlScenario(
            requests=400,
            instances=1,
            seed=7,
            shedding="deadline",
        )
        scenario = MultiFleetScenario(
            fleets=(
                dataclasses.replace(base, qps=6_000.0),
                dataclasses.replace(base, qps=500.0),
            ),
            spillover="deadline",
            seed=7,
        )
        obs = Observability(trace=True)
        report = simulate_multi_fleet(scenario, obs=obs)
        counts = obs.counts()
        spans, sheds = _span_counts(obs)
        # Spilled requests are re-offered at the receiver, so the
        # engine-local invariant holds with them counted twice.
        assert spans + sheds == counts["offered"]
        events = obs.trace_payload()["traceEvents"]
        spills = [e for e in events if e["name"] == "spill"]
        assert len(spills) == report.spilled_requests
        assert {e["pid"] for e in events if e["ph"] != "M"} >= {0, 1}


class TestTraceDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        scenario = _control_scenario("bursty")
        paths = []
        for name in ("a.json", "b.json"):
            obs = Observability(trace=True, metrics_every_s=0.05)
            simulate_controlled(scenario, obs=obs)
            path = tmp_path / name
            obs.write_trace(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_cut_and_resume_is_byte_identical(self, tmp_path):
        scenario = _control_scenario("poisson")
        obs_ref = Observability(trace=True, metrics_every_s=0.05)
        reference = run_control_checkpointed(scenario, obs=obs_ref)
        ref_path = tmp_path / "ref.json"
        obs_ref.write_trace(ref_path)

        path = tmp_path / "run.ckpt"
        obs_cut = Observability(trace=True, metrics_every_s=0.05)
        execution = cp._begin_control(scenario, obs_cut)
        engine = execution.engine
        t_cut = 0.35 * float(execution.requests.arrival[-1])
        engine.run_until(t_cut)
        save_checkpoint(
            path,
            cp._payload(
                "control", scenario, execution, t_cut, 2 * t_cut,
                obs_cut,
            ),
        )

        obs_res = Observability(trace=True, metrics_every_s=0.05)
        _, _, resumed = resume_checkpointed(path, obs=obs_res)
        res_path = tmp_path / "res.json"
        obs_res.write_trace(res_path)
        assert resumed == reference
        assert res_path.read_bytes() == ref_path.read_bytes()
        assert obs_res.metrics_payload() == obs_ref.metrics_payload()

    def test_ungoverned_cut_and_resume_is_byte_identical(self, tmp_path):
        """Without a governor the checkpoint carries no telemetry log:
        spans and metrics are re-derived from the restored arena, and
        the uninterrupted run took the event fold."""
        scenario = dataclasses.replace(
            _control_scenario("bursty"),
            autoscale="none",
            policy="round-robin",
        )
        obs_ref = Observability(trace=True, metrics_every_s=0.05)
        reference = simulate_controlled(scenario, obs=obs_ref)
        assert reference.engine_dispatch == "fold"
        ref_path = tmp_path / "ref.json"
        obs_ref.write_trace(ref_path)

        path = tmp_path / "run.ckpt"
        obs_cut = Observability(trace=True, metrics_every_s=0.05)
        execution = cp._begin_control(scenario, obs_cut)
        engine = execution.engine
        t_cut = 0.5 * float(execution.requests.arrival[-1])
        engine.run_until(t_cut)
        save_checkpoint(
            path,
            cp._payload(
                "control", scenario, execution, t_cut, 2 * t_cut,
                obs_cut,
            ),
        )
        obs_res = Observability(trace=True, metrics_every_s=0.05)
        _, _, resumed = resume_checkpointed(path, obs=obs_res)
        res_path = tmp_path / "res.json"
        obs_res.write_trace(res_path)
        assert resumed == reference
        assert res_path.read_bytes() == ref_path.read_bytes()
        assert obs_res.metrics_payload() == obs_ref.metrics_payload()

    def test_resume_flag_mismatch_fails_loudly(self, tmp_path):
        from repro.errors import ReproError

        scenario = _control_scenario("poisson")
        path = tmp_path / "run.ckpt"
        obs_cut = Observability(trace=True)
        execution = cp._begin_control(scenario, obs_cut)
        engine = execution.engine
        engine.run_until(0.05)
        save_checkpoint(
            path,
            cp._payload(
                "control", scenario, execution, 0.05, 0.1, obs_cut
            ),
        )
        with pytest.raises(ReproError, match="telemetry"):
            resume_checkpointed(path)


class TestTracedRunsMatchUntraced:
    """Telemetry is observation-only: the report physics must not
    move when tracing reroutes a fast-path run to the general loop."""

    @pytest.mark.parametrize("arrival", ARRIVALS)
    def test_serve_report_unchanged(self, arrival):
        scenario = _serve_scenario(arrival)
        assert simulate(
            scenario, obs=Observability(trace=True)
        ) == simulate(scenario)

    def test_control_report_unchanged(self):
        scenario = _control_scenario("diurnal")
        assert simulate_controlled(
            scenario, obs=Observability(trace=True, metrics_every_s=0.1)
        ) == simulate_controlled(scenario)

    def test_multi_fleet_report_unchanged(self):
        base = ControlScenario(
            requests=300, instances=1, seed=5, shedding="deadline"
        )
        scenario = MultiFleetScenario(
            fleets=(
                dataclasses.replace(base, qps=2_000.0),
                dataclasses.replace(base, qps=700.0),
            ),
            spillover="deadline",
            seed=5,
        )
        assert simulate_multi_fleet(
            scenario, obs=Observability(trace=True)
        ) == simulate_multi_fleet(scenario)


class TestCheckTraceTool:
    def test_validator_accepts_recorded_trace(self, tmp_path):
        obs = Observability(trace=True)
        simulate_controlled(_control_scenario("bursty"), obs=obs)
        path = tmp_path / "t.json"
        obs.write_trace(path)
        proc = subprocess.run(
            [sys.executable, str(_CHECK_TRACE), str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    def test_validator_rejects_broken_conservation(self, tmp_path):
        obs = Observability(trace=True)
        simulate_controlled(_control_scenario("poisson"), obs=obs)
        path = tmp_path / "t.json"
        counts = obs.counts()
        counts["offered"] += 1  # claim a request the trace never saw
        obs.recorder.write(
            path, other_data=counts, events=obs.trace_events()
        )
        proc = subprocess.run(
            [sys.executable, str(_CHECK_TRACE), str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "offered" in proc.stderr

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda text: json.dumps(json.loads(text)) + "\n",
            lambda text: text.rstrip("\n"),
            lambda text: text.replace(".0,", ".00,", 1),
        ],
        ids=["spaced-separators", "no-newline", "number-spelling"],
    )
    def test_validator_rejects_non_canonical_text(self, tmp_path, rewrite):
        """Same events, other bytes: only the canonical compact text
        passes."""
        obs = Observability(trace=True)
        simulate_controlled(_control_scenario("poisson"), obs=obs)
        path = tmp_path / "t.json"
        obs.write_trace(path)
        path.write_text(rewrite(path.read_text()))
        proc = subprocess.run(
            [sys.executable, str(_CHECK_TRACE), str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "canonical" in proc.stderr


def _mutate_first(events, cat, change):
    for event in events:
        if event.get("cat") == cat:
            change(event)
            return


def _stretch_batch(events):
    _mutate_first(events, "batch", lambda e: e.update(dur=e["dur"] + 1e6))


def _dangle_request(events):
    _mutate_first(events, "request", lambda e: e["args"].update(batch=-1))


def _grow_batch(events):
    _mutate_first(
        events, "batch", lambda e: e["args"].update(size=e["args"]["size"] + 1)
    )


def _late_member(events):
    launch = {
        e["args"]["batch"]: e["ts"]
        for e in events
        if e.get("cat") == "batch"
    }

    def change(event):
        event["ts"] = launch[event["args"]["batch"]] + 1.0

    _mutate_first(events, "request", change)


class TestCheckTraceSchedulePhysics:
    """The validator's schedule checks reject traces whose counters
    still balance but whose batches are physically impossible."""

    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory):
        import json

        obs = Observability(trace=True)
        simulate_controlled(_control_scenario("bursty"), obs=obs)
        path = tmp_path_factory.mktemp("trace") / "ok.json"
        obs.write_trace(path)
        return json.loads(path.read_text())

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (_stretch_batch, "overlap"),
            (_dangle_request, "not a batch span"),
            (_grow_batch, "member request spans"),
            (_late_member, "after its batch"),
        ],
        ids=["overlap", "dangling-batch", "size", "late-member"],
    )
    def test_rejects(self, payload, mutate, message, tmp_path):
        import copy
        import json

        broken = copy.deepcopy(payload)
        events = broken["traceEvents"]
        mutate(events)
        meta = [e for e in events if e["ph"] == "M"]
        rest = sorted(
            (e for e in events if e["ph"] != "M"), key=lambda e: e["ts"]
        )
        broken["traceEvents"] = meta + rest
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        proc = subprocess.run(
            [sys.executable, str(_CHECK_TRACE), str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert message in proc.stderr


class TestSigkillResumeTrace:
    def test_killed_run_resumes_to_identical_trace(self, tmp_path):
        """The full crash shape: a subprocess checkpointing with
        --trace is SIGKILLed, a fresh process resumes, and the trace
        bytes equal the uninterrupted run's."""
        import signal
        import time

        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            src + os.pathsep + env.get("PYTHONPATH", "")
        )
        scenario_flags = [
            "--qps", "1500", "--requests", "60000",
            "--instances", "3", "--shedding", "deadline",
            "--autoscale", "utilization", "--seed", "9",
            "--metrics-every", "0.1",
        ]
        ref = tmp_path / "ref.trace.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "control",
                *scenario_flags, "--trace", str(ref),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

        ckpt = tmp_path / "run.ckpt"
        victim = tmp_path / "victim.trace.json"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "control",
                *scenario_flags, "--trace", str(victim),
                "--checkpoint", str(ckpt),
                "--checkpoint-every", "1.0",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60.0
            while not ckpt.exists():
                if proc.poll() is not None or (
                    time.monotonic() > deadline
                ):
                    break
                time.sleep(0.02)
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert ckpt.exists(), "no checkpoint before the kill"

        resumed = tmp_path / "resumed.trace.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "control",
                "--resume", str(ckpt), "--trace", str(resumed),
                "--metrics-every", "0.1",
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert ref.read_bytes() == resumed.read_bytes()
