"""Checkpoint/restore for long-running simulations.

A checkpoint is one atomic pickle holding everything a fresh process
needs to continue a run and produce a report *byte-identical* to the
uninterrupted one:

* the frozen scenario (so the fleet, policy, governor, and shedder are
  rebuilt deterministically — they carry configuration, not identity);
* the request stream and arrival times as materialized *and mutated so
  far* (start/finish/shed columns change mid-run and cannot be
  regenerated);
* the engine :meth:`~repro.serve.engine.Engine.snapshot` — event heap,
  arena cursor, per-instance queues and in-flight batches, policy and
  hook ``state_dict`` s, and the exact ``np.random.Generator``
  bit-generator states captured after stream construction;
* the checkpoint cadence, so a resumed run keeps saving on schedule.

Checkpointed execution steps the engine's general loop in bounded
:meth:`~repro.serve.engine.Engine.run_until` slices — which is
bit-for-bit the one-shot run — and both the uninterrupted and the
resumed path build through the same per-plane wiring and converge on
the same ``finalize_*`` report builders.  Without a cadence a run
drains in one ``run_until(inf)``, so it dispatches to a columnar fast
path exactly as the one-shot simulators do.
Serve scenarios with ``stats="sketch"`` are the one caveat: plain
:func:`repro.serve.simulate` may take the chunk-interleaved streaming
mode whose RNG consumption differs by design, so the equality
reference for a sketch-mode resume is the uninterrupted *checkpointed*
run, not ``simulate``.

The payload is versioned (:data:`CHECKPOINT_SCHEMA` plus the ``repro``
release): loads from a different schema or release raise a clear
:class:`~repro.errors.ReproError` instead of surfacing a pickle
traceback or, worse, silently resuming with drifted semantics.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path

from . import __version__
from .control.simulator import (
    ControlScenario,
    _control_inputs,
    build_control_fleet,
    finalize_controlled,
    prepare_controlled,
)
from .errors import ConfigError, ReproError
from .power.dvfs import DVFSModel
from .serve.arrival import capture_rng_state
from .serve.simulator import (
    ServingScenario,
    _offered_qps,
    _serve_inputs,
    _wire_serving,
    finalize_serving,
    prepare_serving,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "save_checkpoint",
    "load_checkpoint",
    "run_serve_checkpointed",
    "run_control_checkpointed",
    "resume_checkpointed",
]

#: Bump when the payload layout or the state-dict contracts change
#: incompatibly; loads from another schema are rejected outright.
#: Schema 2: arenas carry the ``instance`` column and ``payload["obs"]``
#: holds ``{"spec", "state"}`` (telemetry is derived after drain).
#: Schema 3: arenas drop the ``index`` column (a view's index is its
#: row).
CHECKPOINT_SCHEMA = 3

_INF = float("inf")


def save_checkpoint(path, payload: dict) -> None:
    """Atomically write ``payload`` to ``path``.

    Same idiom as the result cache: pickle into a temporary file in the
    target directory, then ``os.replace`` — a reader (or a resume after
    SIGKILL) sees either the previous complete checkpoint or the new
    one, never a torn file.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".ckpt"
        )
    except OSError as exc:
        raise ReproError(
            f"checkpoint path {path} is not writable: {exc}"
        ) from exc
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(
                payload, handle, protocol=pickle.HIGHEST_PROTOCOL
            )
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_checkpoint(path) -> dict:
    """Read and validate a checkpoint payload.

    Raises:
        ReproError: If the file is missing, unreadable, not a repro
            checkpoint, or was written by a different checkpoint
            schema or package release.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        raise ReproError(f"checkpoint {path} does not exist") from None
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError) as exc:
        raise ReproError(
            f"checkpoint {path} is not readable: {exc}"
        ) from exc
    if not isinstance(payload, dict) or "schema" not in payload:
        raise ReproError(
            f"{path} is not a repro checkpoint "
            "(no schema tag in payload)"
        )
    if payload["schema"] != CHECKPOINT_SCHEMA:
        raise ReproError(
            f"checkpoint {path} uses schema "
            f"{payload['schema']!r}, this build expects "
            f"{CHECKPOINT_SCHEMA!r}; re-run without --resume"
        )
    if payload.get("version") != __version__:
        raise ReproError(
            f"checkpoint {path} was written by repro "
            f"{payload.get('version')!r}, this is {__version__!r}; "
            "resuming across releases is not bit-stable, re-run "
            "without --resume"
        )
    return payload


# ----------------------------------------------------------------------
# Execution builders (fresh and resumed)
# ----------------------------------------------------------------------


def _begin_serve(scenario: ServingScenario, obs=None):
    """Build and arm a fresh checkpointable serve execution."""
    execution = prepare_serving(scenario, obs=obs)
    engine = execution.engine
    engine.begin(execution.requests)
    engine.state.rng_states = {"main": execution.rng_state}
    return execution, engine, finalize_serving


def _rebuild_serve(scenario: ServingScenario, times, requests, obs=None):
    """The serve execution around an already-materialized (and
    possibly mid-run-mutated) stream, which must never be regenerated
    on resume: :func:`~repro.serve.simulator._wire_serving` over it."""
    mix, capacity, qps, *_ = _serve_inputs(scenario)
    return _wire_serving(
        scenario, mix, capacity, qps, times, requests, obs=obs
    )


def _begin_control(scenario: ControlScenario, obs=None):
    """Build and arm a fresh checkpointable control execution."""
    dvfs_model = DVFSModel()
    fleet, mix, capacity, qps, times, requests, rng = _control_inputs(
        scenario, dvfs_model
    )
    execution = prepare_controlled(
        scenario, fleet, mix, capacity, qps, times, requests,
        dvfs_model=dvfs_model, obs=obs,
    )
    execution.engine.state.rng_states = {
        "main": capture_rng_state(rng)
    }
    return execution, execution.engine, finalize_controlled


def _rebuild_control(scenario: ControlScenario, times, requests, obs=None):
    """The control execution around an already-materialized stream
    (fleet/governor/policy/shedder rebuilt deterministically; the
    engine snapshot overlays their mid-run state afterwards)."""
    dvfs_model = DVFSModel()
    fleet, mix, capacity = build_control_fleet(scenario, dvfs_model)
    return prepare_controlled(
        scenario, fleet, mix, capacity, _offered_qps(scenario, capacity),
        times, requests, dvfs_model=dvfs_model, obs=obs,
    )


# ----------------------------------------------------------------------
# Checkpointed drivers
# ----------------------------------------------------------------------


def _payload(kind, scenario, execution, every_s, next_t, obs=None) -> dict:
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "version": __version__,
        "kind": kind,
        "scenario": scenario,
        "every_s": every_s,
        "next_checkpoint_s": next_t,
        "snapshot": execution.engine.snapshot(),
        "requests": execution.requests,
        "times": execution.times,
    }
    # Telemetry configuration rides along so a resume can verify it
    # re-ran with matching flags, with the control-side facts recorded
    # so far (spans and metrics are re-derived from the stream after
    # drain).  Written only when active.
    if obs is not None and obs.active:
        payload["obs"] = {"spec": obs.spec(), "state": obs.state_dict()}
    return payload


def _drive(
    kind, scenario, execution, engine, every_s, path, next_t, obs=None
):
    """Step the engine in checkpoint-cadence slices to drain.

    The slicing is bit-for-bit the one-shot ``run_until(inf)``; with
    no checkpoint path configured it degenerates to exactly that.
    """
    if every_s is None or path is None:
        engine.run_until(_INF)
        return
    while not engine.finished:
        engine.run_until(next_t)
        next_t += every_s
        if not engine.finished:
            save_checkpoint(
                path,
                _payload(
                    kind, scenario, execution, every_s, next_t, obs
                ),
            )


def _validate_cadence(every_s) -> None:
    if every_s is not None and not 0 < every_s < _INF:
        raise ConfigError(
            f"--checkpoint-every must be finite and positive ({every_s})"
        )


def run_serve_checkpointed(
    scenario: ServingScenario,
    checkpoint_path=None,
    every_s: float | None = None,
    *,
    obs=None,
):
    """One serve-plane run with periodic checkpoints.

    Steps the general loop in ``every_s``-simulated-second slices,
    saving an atomic checkpoint after each (without a cadence it
    drains in one call, fast paths included); the report is identical
    to :func:`repro.serve.simulate` for ``stats="exact"`` scenarios
    (the general loop and the columnar fast paths agree bit-for-bit).
    """
    _validate_cadence(every_s)
    execution, engine, finalize = _begin_serve(scenario, obs)
    _drive(
        "serve", scenario, execution, engine, every_s,
        checkpoint_path, every_s if every_s is not None else _INF,
        obs,
    )
    return finalize(execution)


def run_control_checkpointed(
    scenario: ControlScenario,
    checkpoint_path=None,
    every_s: float | None = None,
    *,
    obs=None,
):
    """One control-plane run with periodic checkpoints (identical
    report to :func:`repro.control.simulate_controlled`)."""
    _validate_cadence(every_s)
    execution, engine, finalize = _begin_control(scenario, obs)
    _drive(
        "control", scenario, execution, engine, every_s,
        checkpoint_path, every_s if every_s is not None else _INF,
        obs,
    )
    return finalize(execution)


def resume_checkpointed(path, checkpoint_path=None, *, obs=None):
    """Continue a checkpointed run in a fresh process.

    Rebuilds the scenario's fleet/policy/hooks deterministically,
    overlays the snapshot (queues rebound by stream position, RNG
    states reattached, governor/forecaster state restored), and drains
    on the same cadence — producing a report byte-identical to the
    uninterrupted run.  Keeps checkpointing to ``checkpoint_path``
    (default: ``path`` itself).

    If the checkpoint was taken with telemetry active, ``obs`` must be
    an :class:`~repro.obs.Observability` configured with the same
    flags (and vice versa) — the recorded control-side state needs an
    identically configured session to land on, so a mismatch raises
    :class:`~repro.errors.ReproError` up front rather than producing a
    silently different trace.

    Returns:
        ``(kind, scenario, report)`` with ``kind`` one of ``"serve"``
        / ``"control"``.
    """
    from .obs import Observability

    payload = load_checkpoint(path)
    obs_payload = payload.get("obs")
    Observability.check_resume(
        obs_payload["spec"] if obs_payload is not None else None,
        obs if obs is not None and obs.active else None,
    )
    kind = payload["kind"]
    scenario = payload["scenario"]
    times = payload["times"]
    requests = payload["requests"]
    if kind == "serve":
        execution = _rebuild_serve(scenario, times, requests, obs)
        execution.engine.begin(requests)
        finalize = finalize_serving
    elif kind == "control":
        execution = _rebuild_control(scenario, times, requests, obs)
        finalize = finalize_controlled
    else:
        raise ReproError(
            f"checkpoint {path} has unknown kind {kind!r}"
        )
    try:
        execution.engine.restore(payload["snapshot"], requests)
        if obs_payload is not None:
            obs.load_state_dict(obs_payload["state"])
    except (KeyError, TypeError, ConfigError) as exc:
        raise ReproError(
            f"checkpoint {path} does not match this build's state "
            f"layout: {exc}"
        ) from exc
    _drive(
        kind, scenario, execution, execution.engine,
        payload["every_s"],
        checkpoint_path if checkpoint_path is not None else path,
        payload["next_checkpoint_s"],
        obs,
    )
    return kind, scenario, finalize(execution)
