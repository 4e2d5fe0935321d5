"""Checkpoint/resume for long-running simulations.

A checkpoint is one atomic pickle of the live execution — the
:class:`~repro.serve.simulator.ServingExecution` or
:class:`~repro.control.simulator.ControlExecution` mid-run: the engine
(event heap, arena cursor, counters), the fleet with its queues and
in-flight batches, the policy, the hooks (shedder, governor), the
request arena as mutated so far, and the RNG position captured right
after stream construction.  The active
:class:`~repro.obs.Observability` session rides along when there is
one, and so does the checkpoint cadence, so a resumed run keeps saving
on schedule.  A fresh process that unpickles it continues stepping the
very same objects and produces a report *byte-identical* to the
uninterrupted one: nothing is rebuilt from the scenario or overlaid
(the scenario is stored only for the caller's rendering and cache
keys).

Pickle walks the object graph, so a new stateful field is
checkpointed without being listed anywhere.  Two classes shape their
own pickles: :class:`~repro.serve.fleet.Instance` stores its queue as
``(arena, rows)`` instead of one view object per request, and
:class:`~repro.control.slo.DeadlineShedding` leaves its per-arena
column cache out.

Checkpointed execution steps the engine's general loop in bounded
:meth:`~repro.serve.engine.Engine.run_until` slices — which is
bit-for-bit the one-shot run — and converges on the same
``finalize_*`` report builders as the one-shot simulators.  Without a
cadence a run drains in one ``run_until(inf)``, so it dispatches to a
columnar fast path exactly as the one-shot simulators do.
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
    finalize_controlled,
    prepare_controlled,
)
from .errors import ConfigError, ReproError
from .power.dvfs import DVFSModel
from .serve.arrival import capture_rng_state
from .serve.simulator import (
    ServingScenario,
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

#: Bump when the payload layout or the pickled classes change
#: incompatibly; loads from another schema are rejected outright.
#: Schema 2: arenas carry the ``instance`` column and ``payload["obs"]``
#: holds ``{"spec", "state"}`` (telemetry is derived after drain).
#: Schema 3: arenas drop the ``index`` column (a view's index is its
#: row).
#: Schema 4: the payload pickles the live execution (and telemetry
#: session) instead of per-class state dicts.
CHECKPOINT_SCHEMA = 4

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
# Checkpointed drivers
# ----------------------------------------------------------------------


def _begin_serve(scenario: ServingScenario, obs=None):
    """Build and arm a fresh checkpointable serve execution."""
    execution = prepare_serving(scenario, obs=obs)
    execution.engine.begin(execution.requests)
    return execution, execution.engine, finalize_serving


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
    execution.rng_state = capture_rng_state(rng)
    return execution, execution.engine, finalize_controlled


_FINALIZERS = {"serve": finalize_serving, "control": finalize_controlled}


def _payload(kind, scenario, execution, every_s, next_t, obs=None) -> dict:
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "version": __version__,
        "kind": kind,
        "scenario": scenario,
        "every_s": every_s,
        "next_checkpoint_s": next_t,
        "execution": execution,
    }
    # An active telemetry session rides along (pickled with the
    # execution, so its registered fleets and streams, recorder and
    # governor logs stay the objects the run writes to); a resume
    # checks it re-ran with matching flags.
    if obs is not None and obs.active:
        payload["obs"] = obs
    return payload


def _drive(kind, scenario, execution, every_s, path, next_t, obs=None):
    """Step the engine in checkpoint-cadence slices to drain.

    The slicing is bit-for-bit the one-shot ``run_until(inf)``; with
    no checkpoint path configured it degenerates to exactly that.
    """
    engine = execution.engine
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
    execution, _, finalize = _begin_serve(scenario, obs)
    _drive(
        "serve", scenario, execution, every_s,
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
    execution, _, finalize = _begin_control(scenario, obs)
    _drive(
        "control", scenario, execution, every_s,
        checkpoint_path, every_s if every_s is not None else _INF,
        obs,
    )
    return finalize(execution)


def resume_checkpointed(path, checkpoint_path=None, *, obs=None):
    """Continue a checkpointed run in a fresh process.

    Unpickles the live execution and drains it on the saved cadence —
    producing a report byte-identical to the uninterrupted run.  Keeps
    checkpointing to ``checkpoint_path`` (default: ``path`` itself).

    If the checkpoint was taken with telemetry active, ``obs`` must be
    an :class:`~repro.obs.Observability` configured with the same
    flags (and vice versa); it then takes over the checkpointed
    session (recorded instants, governor logs).  A mismatch raises
    :class:`~repro.errors.ReproError` up front rather than producing a
    silently different trace.

    Returns:
        ``(kind, scenario, report)`` with ``kind`` one of ``"serve"``
        / ``"control"``.
    """
    from .obs import Observability

    payload = load_checkpoint(path)
    saved = payload.get("obs")
    Observability.check_resume(
        saved.spec() if saved is not None else None,
        obs if obs is not None and obs.active else None,
    )
    if saved is not None:
        obs.take_over(saved)
    kind = payload["kind"]
    if kind not in _FINALIZERS:
        raise ReproError(
            f"checkpoint {path} has unknown kind {kind!r}"
        )
    execution = payload["execution"]
    _drive(
        kind, payload["scenario"], execution, payload["every_s"],
        checkpoint_path if checkpoint_path is not None else path,
        payload["next_checkpoint_s"],
        obs,
    )
    return kind, payload["scenario"], _FINALIZERS[kind](execution)
