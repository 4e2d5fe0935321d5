"""Checkpoint determinism: pickle the execution mid-run, resume in a
fresh process, and the report — and the cache content key — must come out
byte-identical to the uninterrupted run.

The property grid cuts runs at pseudo-random mid-run times across
arrival shapes x stats modes x hooked/hook-free control planes; each
cut is resumed in a subprocess (a genuinely fresh interpreter, the
SIGKILL-and-resume shape without the signal) and compared field for
field.  The RNG bit-generator states captured after stream
construction must round-trip exactly — substream positions are part
of the contract, not just report equality.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import __version__
from repro import checkpoint as cp
from repro.checkpoint import (
    CHECKPOINT_SCHEMA,
    load_checkpoint,
    resume_checkpointed,
    run_control_checkpointed,
    run_serve_checkpointed,
    save_checkpoint,
)
from repro.control.hetero import parse_fleet_spec
from repro.control.simulator import ControlScenario, simulate_controlled
from repro.control.slo import SLOClass
from repro.errors import ConfigError, ReproError
from repro.eval.control import report_to_dict
from repro.parallel.cache import make_key
from repro.serve.arrival import capture_rng_state, restore_rng
from repro.serve.simulator import (
    Execution,
    ServingScenario,
    finalize_serving,
    simulate,
)

_SRC = str(Path(__file__).resolve().parents[2] / "src")

_RESUME_SCRIPT = """
import json, sys
from repro.checkpoint import resume_checkpointed
from repro.eval.control import report_to_dict
from repro.parallel.cache import make_key

kind, scenario, report = resume_checkpointed(sys.argv[1])
key_kind = "control_point" if kind == "control" else "serving_point"
print(json.dumps({
    "kind": kind,
    "report": report_to_dict(report),
    "key": make_key(key_kind, args=(scenario,)),
}))
"""


def _resume_in_subprocess(path) -> dict:
    """Resume ``path`` in a fresh interpreter and return its outcome."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _RESUME_SCRIPT, str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _json(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


def _cut_and_save(kind, scenario, fraction, path):
    """Run ``scenario`` up to ``fraction`` of its arrival window, then
    save a checkpoint — the mid-run state a crash would leave behind."""
    if kind == "serve":
        execution = cp._begin_serve(scenario)
        engine = execution.engine
    else:
        execution = cp._begin_control(scenario)
        engine = execution.engine
    t_cut = fraction * float(execution.requests.arrival[-1])
    engine.run_until(t_cut)
    save_checkpoint(
        path, cp._payload(kind, scenario, execution, t_cut, 2 * t_cut)
    )
    return execution, engine


class TestRunUntil:
    """The step-bounded entry point against the one-shot run."""

    def test_sliced_run_matches_one_shot(self):
        scenario = ServingScenario(
            requests=1500, seed=7, arrival="bursty", burst_factor=6.0
        )
        reference = simulate(scenario)
        assert run_serve_checkpointed(scenario) == reference

    def test_slice_boundaries_are_invisible(self):
        scenario = ServingScenario(requests=1200, seed=3)
        reference = simulate(scenario)
        execution = cp._begin_serve(scenario)
        engine = execution.engine
        t = 0.013  # deliberately misaligned with any event cadence
        while not engine.finished:
            engine.run_until(t)
            t += 0.013
        assert finalize_serving(execution) == reference

    def test_run_until_is_cumulative_and_bounded(self):
        scenario = ServingScenario(requests=1000, seed=5)
        engine = cp._begin_serve(scenario).engine
        first = engine.run_until(0.05)
        assert not engine.finished
        assert engine.state.clock == 0.05
        second = engine.run_until(float("inf"))
        assert engine.finished
        # EngineRun totals are cumulative, not per-slice.
        assert second.events >= first.events

    def test_control_sliced_matches_one_shot(self):
        scenario = ControlScenario(
            mix="mixed", qps=1200, requests=2000, instances=3,
            autoscale="utilization", shedding="deadline", seed=11,
        )
        assert run_control_checkpointed(scenario) == (
            simulate_controlled(scenario)
        )


def _serve_grid():
    cases = []
    for arrival in ("poisson", "bursty", "diurnal"):
        for stats in ("exact", "sketch"):
            cases.append(
                pytest.param(arrival, stats, id=f"{arrival}-{stats}")
            )
    return cases


class TestCheckpointProperty:
    """Cut at pseudo-random mid-run times, resume in a subprocess."""

    @pytest.mark.parametrize("arrival,stats", _serve_grid())
    def test_serve_resume_matches_uninterrupted(
        self, arrival, stats, tmp_path
    ):
        scenario = ServingScenario(
            requests=1500,
            seed=29,
            arrival=arrival,
            burst_factor=5.0,
            diurnal_period_s=2.0,
            diurnal_amplitude=0.7,
            stats=stats,
        )
        # The uninterrupted reference for every stats mode is the
        # checkpoint driver itself (sketch-mode `simulate` may take
        # the chunk-interleaved streaming path, whose RNG schedule
        # differs by design); in exact mode the driver equals
        # `simulate` bit-for-bit, which the first assert pins.
        reference = run_serve_checkpointed(scenario)
        if stats == "exact":
            assert reference == simulate(scenario)
        expected_key = make_key("serving_point", args=(scenario,))
        rnd = random.Random(hash((arrival, stats)) & 0xFFFF)
        for trial in range(2):
            path = tmp_path / f"serve-{trial}.ckpt"
            _cut_and_save(
                "serve", scenario, rnd.uniform(0.05, 0.95), path
            )
            outcome = _resume_in_subprocess(path)
            assert outcome["kind"] == "serve"
            assert outcome["report"] == json.loads(_json(reference))
            assert outcome["key"] == expected_key

    @pytest.mark.parametrize(
        "autoscale,shedding,overrides",
        [
            pytest.param("none", "none", {}, id="hook-free"),
            pytest.param("utilization", "deadline", {}, id="sizing"),
            pytest.param("dvfs", "queue-depth", {}, id="dvfs"),
            pytest.param("predictive", "deadline", {}, id="predictive"),
            # Overloaded short queues: preemption removes queued
            # victims on both sides of any cut.
            pytest.param(
                "none", "priority", {"qps": 8000, "queue_threshold": 4},
                id="priority-preemptive",
            ),
            pytest.param(
                "none", "deadline",
                {
                    "policy": "energy-aware",
                    "fleet": parse_fleet_spec("0.8x2,0.6x1"),
                },
                id="energy-aware-dvfs-fleet",
            ),
        ],
    )
    def test_control_resume_matches_uninterrupted(
        self, autoscale, shedding, overrides, tmp_path
    ):
        scenario = ControlScenario(
            mix="mixed",
            arrival="diurnal",
            qps=1400,
            requests=1500,
            instances=3,
            autoscale=autoscale,
            shedding=shedding,
            queue_threshold=32,
            seed=17,
            slo_classes=(
                SLOClass("rt", deadline_ms=30.0, target=0.9, share=0.5),
                SLOClass(
                    "batch", deadline_ms=80.0, target=0.95,
                    share=0.5, priority=1,
                ),
            ),
        )
        scenario = dataclasses.replace(scenario, **overrides)
        reference = simulate_controlled(scenario)
        if shedding == "priority":
            assert reference.shed_requests > 0
        assert run_control_checkpointed(scenario) == reference
        expected_key = make_key("control_point", args=(scenario,))
        rnd = random.Random(hash((autoscale, shedding)) & 0xFFFF)
        path = tmp_path / "control.ckpt"
        _cut_and_save(
            "control", scenario, rnd.uniform(0.05, 0.95), path
        )
        outcome = _resume_in_subprocess(path)
        assert outcome["kind"] == "control"
        assert outcome["report"] == json.loads(_json(reference))
        assert outcome["key"] == expected_key


class TestRngRoundTrip:
    """Bit-generator states are part of the checkpoint contract."""

    def test_capture_restore_resumes_the_stream(self):
        rng = np.random.default_rng(123)
        rng.random(1000)
        state = capture_rng_state(rng)
        expected = rng.random(8)
        resumed = restore_rng(state)
        assert np.array_equal(resumed.random(8), expected)

    def test_substream_position_survives_the_checkpoint_file(
        self, tmp_path
    ):
        scenario = ServingScenario(requests=800, seed=41)
        execution = cp._begin_serve(scenario)
        engine = execution.engine
        engine.run_until(0.02)
        path = tmp_path / "rng.ckpt"
        save_checkpoint(
            path, cp._payload("serve", scenario, execution, 0.02, 0.04)
        )
        payload = load_checkpoint(path)
        # Exact nested-dict equality: the PCG64 position after stream
        # construction, not merely something that produces the same
        # report.
        saved = payload["execution"].rng_state
        assert saved == execution.rng_state
        restored = restore_rng(saved)
        assert capture_rng_state(restored) == execution.rng_state


class TestCheckpointFormat:
    """Schema/version gating: clear errors, never a pickle traceback."""

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="does not exist"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_not_a_pickle(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(ReproError, match="not readable"):
            load_checkpoint(path)

    def test_not_a_checkpoint_payload(self, tmp_path):
        path = tmp_path / "other.ckpt"
        with open(path, "wb") as handle:
            pickle.dump(["some", "other", "artifact"], handle)
        with pytest.raises(ReproError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "schema.ckpt"
        with open(path, "wb") as handle:
            pickle.dump(
                {"schema": CHECKPOINT_SCHEMA + 1, "version": __version__},
                handle,
            )
        with pytest.raises(ReproError, match="schema"):
            load_checkpoint(path)

    def test_previous_schema_is_rejected(self, tmp_path):
        """A state-dict era (schema 3) checkpoint fails cleanly rather
        than resuming against the pickled-execution layout."""
        path = tmp_path / "schema3.ckpt"
        with open(path, "wb") as handle:
            pickle.dump({"schema": 3, "version": __version__}, handle)
        with pytest.raises(ReproError, match="schema 3"):
            load_checkpoint(path)

    def test_schema4_checkpoint_is_rejected(self, tmp_path, monkeypatch):
        """Schema 4 pickled per-plane execution classes (with a
        ``times`` field) that no longer exist; the loader reads the
        schema tag before anything has to resolve, so such a file gets
        the schema message, not a missing-class error."""
        import repro.serve.simulator as serve_sim

        class ServingExecution:  # the schema-4 serve record, by name
            pass

        ServingExecution.__module__ = serve_sim.__name__
        ServingExecution.__qualname__ = "ServingExecution"
        monkeypatch.setattr(
            serve_sim, "ServingExecution", ServingExecution,
            raising=False,
        )
        stale = tmp_path / "schema4.ckpt"
        with open(stale, "wb") as handle:
            pickle.dump(
                {
                    "schema": 4,
                    "version": __version__,
                    "execution": ServingExecution(),
                },
                handle,
            )
        monkeypatch.delattr(serve_sim, "ServingExecution")
        with pytest.raises(
            ReproError,
            match="uses schema 4, this build expects "
            f"{CHECKPOINT_SCHEMA}; re-run without --resume",
        ):
            load_checkpoint(stale)
        tagged = tmp_path / "schema4-tag.ckpt"
        with open(tagged, "wb") as handle:
            pickle.dump({"schema": 4, "version": __version__}, handle)
        with pytest.raises(ReproError, match="schema 4"):
            load_checkpoint(tagged)

    def test_schema5_checkpoint_is_rejected(self):
        """A real schema-5 checkpoint (a governed control run saved
        while the general loop stepped every governed run) fails with
        the schema message."""
        path = Path(__file__).parents[1] / "data" / "schema5_control.pickle"
        with pytest.raises(
            ReproError,
            match="uses schema 5, this build expects "
            f"{CHECKPOINT_SCHEMA}; re-run without --resume",
        ):
            load_checkpoint(path)

    def test_schema6_checkpoint_is_rejected(self):
        """A real schema-6 checkpoint (a governed control run with
        requests queued as views under ``Instance``'s former custom
        pickle) fails with the schema message, although its instance
        state no longer fits the class."""
        path = Path(__file__).parents[1] / "data" / "schema6_control.pickle"
        with pytest.raises(
            ReproError,
            match="uses schema 6, this build expects "
            f"{CHECKPOINT_SCHEMA}; re-run without --resume",
        ):
            load_checkpoint(path)

    def test_schema7_checkpoint_is_rejected(self, tmp_path, monkeypatch):
        """A schema-7 checkpoint, written here with that schema's
        ``Engine`` shape (its fallback-reason slot), fails with the
        schema message; the same state under the current tag is not
        readable, so the file really has the old shape."""
        from repro.serve.engine import Engine

        current = Engine.__getstate__

        def schema7_state(engine):
            _, slots = current(engine)
            return None, {**slots, "_fast_reason": ""}

        scenario = ControlScenario(
            mix="mixed", qps=1500, requests=600, instances=3,
            shedding="deadline", autoscale="utilization", seed=9,
        )
        paths = {7: tmp_path / "schema7.ckpt", 8: tmp_path / "tag8.ckpt"}
        with monkeypatch.context() as patch:
            patch.setattr(Engine, "__getstate__", schema7_state)
            for schema, path in paths.items():
                patch.setattr(cp, "CHECKPOINT_SCHEMA", schema)
                _cut_and_save("control", scenario, 0.5, path)
        assert CHECKPOINT_SCHEMA == 8
        with pytest.raises(
            ReproError,
            match="uses schema 7, this build expects 8; "
            "re-run without --resume",
        ):
            load_checkpoint(paths[7])
        with pytest.raises(ReproError, match="not readable"):
            load_checkpoint(paths[8])

    def test_current_schema_with_vanished_class_is_unreadable(
        self, tmp_path, monkeypatch
    ):
        """A current-schema payload naming a class this build lacks
        is not readable, and the message names the class."""
        import repro.serve.simulator as serve_sim

        class Vanished:
            pass

        Vanished.__module__ = serve_sim.__name__
        Vanished.__qualname__ = "Vanished"
        monkeypatch.setattr(serve_sim, "Vanished", Vanished, raising=False)
        path = tmp_path / "vanished.ckpt"
        with open(path, "wb") as handle:
            pickle.dump(
                {
                    "schema": CHECKPOINT_SCHEMA,
                    "version": __version__,
                    "execution": Vanished(),
                },
                handle,
            )
        monkeypatch.delattr(serve_sim, "Vanished")
        with pytest.raises(
            ReproError,
            match="not readable: this build has no "
            "repro.serve.simulator.Vanished",
        ):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "version.ckpt"
        with open(path, "wb") as handle:
            pickle.dump(
                {"schema": CHECKPOINT_SCHEMA, "version": "0.0.1"},
                handle,
            )
        with pytest.raises(ReproError, match="0.0.1"):
            load_checkpoint(path)

    def test_payload_carries_schema_and_version(self, tmp_path):
        scenario = ServingScenario(requests=400, seed=2)
        path = tmp_path / "tagged.ckpt"
        run_serve_checkpointed(scenario, path, every_s=0.05)
        payload = load_checkpoint(path)
        assert payload["schema"] == CHECKPOINT_SCHEMA
        assert payload["version"] == __version__
        assert payload["kind"] == "serve"

    def test_both_planes_checkpoint_one_execution_record(self, tmp_path):
        """Serve and control checkpoints pickle the same execution
        class; its busy window is read off the arena, not a copy."""
        control = ControlScenario(
            requests=600, shedding="deadline", seed=4
        )
        serve = ServingScenario(requests=600, seed=4)
        loaded = []
        for kind, scenario in (("serve", serve), ("control", control)):
            path = tmp_path / f"{kind}.ckpt"
            _cut_and_save(kind, scenario, 0.5, path)
            payload = load_checkpoint(path)
            assert payload["kind"] == kind
            loaded.append(payload["execution"])
        assert all(type(e) is Execution for e in loaded)
        assert not any(hasattr(e, "times") for e in loaded)

    def test_unwritable_path(self, tmp_path):
        scenario = ServingScenario(requests=400, seed=2)
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        with pytest.raises(ReproError, match="not writable"):
            run_serve_checkpointed(
                scenario, blocker / "x.ckpt", every_s=0.05
            )

    def test_negative_cadence(self, tmp_path):
        scenario = ServingScenario(requests=400, seed=2)
        with pytest.raises(ReproError, match="positive"):
            run_serve_checkpointed(
                scenario, tmp_path / "x.ckpt", every_s=-1.0
            )

    @pytest.mark.parametrize("every_s", [float("nan"), float("inf")])
    def test_non_finite_cadence(self, tmp_path, every_s):
        """A non-finite cadence fails up front; a NaN one would leave
        the engine clock at NaN with no checkpoint written."""
        with pytest.raises(ConfigError, match="finite"):
            run_control_checkpointed(
                ControlScenario(requests=400, seed=2),
                tmp_path / "x.ckpt",
                every_s=every_s,
            )
        assert not (tmp_path / "x.ckpt").exists()


class TestResumeKeepsCheckpointing:
    def test_resume_overwrites_the_checkpoint(self, tmp_path):
        scenario = ControlScenario(
            mix="mixed", qps=1000, requests=1500, instances=3,
            shedding="deadline", seed=13,
        )
        reference = simulate_controlled(scenario)
        path = tmp_path / "run.ckpt"
        _cut_and_save("control", scenario, 0.2, path)
        first = load_checkpoint(path)
        kind, _, report = resume_checkpointed(path)
        assert kind == "control" and report == reference
        # The resumed run kept saving on the original cadence (unless
        # it drained before the next boundary — force one by cutting
        # early with a tiny cadence).
        final = load_checkpoint(path)
        assert final["schema"] == CHECKPOINT_SCHEMA
        assert (
            final["next_checkpoint_s"] >= first["next_checkpoint_s"]
        )
