"""Checkpoint/resume for long-running simulations.

A checkpoint is one atomic pickle of the live
:class:`~repro.serve.simulator.Execution` of a serve or control run,
mid-run: the engine (event heap, arena cursor, counters), the fleet
with its queues and in-flight batches, the policy, the hooks
(shedder, governor), the request arena as mutated so far, and the RNG
position captured right after stream construction.  The active
:class:`~repro.obs.Observability` session rides along when there is
one, and so does the checkpoint cadence, so a resumed run keeps saving
on schedule.  A fresh process that unpickles it continues stepping the
very same objects and produces a report *byte-identical* to the
uninterrupted one: nothing is rebuilt from the scenario or overlaid
(the scenario is stored only for the caller's rendering and cache
keys).

Pickle walks the object graph, so a new stateful field is
checkpointed without being listed anywhere.  Instance queues hold
arena rows, so a queue pickles as a flat list of ints.  Only
:class:`~repro.serve.engine.Engine` shapes its own pickle: it leaves
the event fold's per-row lists out (they are rebuilt on the first
slice after a resume).

Checkpointed execution steps the engine in bounded
:meth:`~repro.serve.engine.Engine.run_until` slices on the path the
one-shot run takes (the event fold; only the whole-stream ``"rr"``
kernel gives way to it) — bit-for-bit the one-shot run — and converges on the same ``finalize_*`` report
builders as the one-shot simulators.
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

import pickle
from pathlib import Path

from . import __version__
from ._atomic import write_atomic
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
    Execution,
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
#: Schema 5: one ``Execution`` class for both planes, without the
#: ``times`` field (the arena's arrival column).
#: Schema 6: governed runs drain on the event fold, whose pending
#: events are one slot per instance plus a tick that sorts after every
#: instance event at its instant; the predictive governor counts
#: offered requests from the engine's cursor.
#: Schema 7: instance queues hold arena rows (no custom ``Instance``
#: pickle) and ``EngineState`` drops its static-fleet flag.
#: Schema 8: the engine has no general loop: ``Engine`` drops its
#: fallback-reason slot and ``EngineState`` its sequence counter and
#: peak-heap count.
#: Schema 9: ``Fleet`` holds one list per per-instance field and
#: ``Instance`` is a ``(fleet, index)`` view of them.
CHECKPOINT_SCHEMA = 9

_INF = float("inf")


def save_checkpoint(path, payload: dict) -> None:
    """Atomically write ``payload`` to ``path`` (a pickle written
    through :func:`~repro._atomic.write_atomic`): a reader, or a resume
    after SIGKILL, sees either the previous complete checkpoint or the
    new one, never a torn file."""
    write_atomic(
        path,
        lambda handle: pickle.dump(
            payload, handle, protocol=pickle.HIGHEST_PROTOCOL
        ),
        f"checkpoint path {path} is not writable",
        binary=True,
        suffix=".ckpt",
        make_parents=True,
    )


class _Unresolved:
    """Stand-in for a class or function a checkpoint names but this
    build cannot rebuild: it absorbs construction, state and attribute
    lookups (a bound method pickles as ``getattr(obj, name)``), so the
    payload's schema tag can still be read."""

    def __init__(self, *args, **kwargs) -> None:
        pass

    def __setstate__(self, state) -> None:
        pass

    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        return _Unresolved


class _TagReader(pickle.Unpickler):
    """Unpickler that records unresolvable names instead of raising,
    so an older checkpoint reports its schema, not a missing class.

    With ``stand_ins`` every ``repro`` name resolves to
    :class:`_Unresolved`, which also reads past classes whose pickled
    state changed shape (the tag is all such a read is good for).
    """

    def __init__(self, handle, stand_ins: bool = False) -> None:
        super().__init__(handle)
        self.stand_ins = stand_ins
        self.missing: list[str] = []

    def find_class(self, module, name):
        if self.stand_ins and module.split(".")[0] == "repro":
            return _Unresolved
        try:
            return super().find_class(module, name)
        except (AttributeError, ImportError):
            self.missing.append(f"{module}.{name}")
            return _Unresolved


#: What a failed read of a checkpoint file raises.
_READ_ERRORS = (
    OSError, pickle.UnpicklingError, EOFError, AttributeError,
    ImportError, IndexError, TypeError, ValueError,
)


def _read(path: Path, stand_ins: bool = False) -> tuple[object, list]:
    """Unpickle ``path``; returns the payload and the names it could
    not resolve."""
    with open(path, "rb") as handle:
        reader = _TagReader(handle, stand_ins)
        return reader.load(), reader.missing


def load_checkpoint(path) -> dict:
    """Read and validate a checkpoint payload.

    The schema tag is checked before anything the payload names has to
    resolve: a checkpoint from another schema fails with the schema
    message even when its classes have since been renamed, removed or
    reshaped.

    Raises:
        ReproError: If the file is missing, unreadable, not a repro
            checkpoint, or was written by a different checkpoint
            schema or package release.
    """
    path = Path(path)
    try:
        payload, missing = _read(path)
    except FileNotFoundError:
        raise ReproError(f"checkpoint {path} does not exist") from None
    except _READ_ERRORS as exc:
        # A class whose pickled state changed shape fails to rebuild;
        # a second read with every repro name stood in finds the tag.
        try:
            payload, missing = _read(path, stand_ins=True)
        except _READ_ERRORS:
            payload = None
        if not isinstance(payload, dict) or payload.get("schema") in (
            None, CHECKPOINT_SCHEMA
        ):
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
    if missing:
        raise ReproError(
            f"checkpoint {path} is not readable: this build has no "
            + ", ".join(dict.fromkeys(missing))
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


def _begin_serve(scenario: ServingScenario, obs=None) -> Execution:
    """Build and arm a fresh checkpointable serve execution."""
    execution = prepare_serving(scenario, obs=obs)
    execution.engine.begin(execution.requests)
    return execution


def _begin_control(scenario: ControlScenario, obs=None) -> Execution:
    """Build and arm a fresh checkpointable control execution."""
    dvfs_model = DVFSModel()
    fleet, mix, capacity, qps, requests, rng = _control_inputs(
        scenario, dvfs_model
    )
    execution = prepare_controlled(
        scenario, fleet, mix, capacity, qps, requests,
        dvfs_model=dvfs_model, obs=obs,
    )
    execution.rng_state = capture_rng_state(rng)
    return execution


#: Per kind: (build-and-arm, finalize).
_PLANES = {
    "serve": (_begin_serve, finalize_serving),
    "control": (_begin_control, finalize_controlled),
}


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


def _run_checkpointed(kind, scenario, checkpoint_path, every_s, obs):
    """Build, drive on the cadence, and finalize one ``kind`` run."""
    _validate_cadence(every_s)
    begin, finalize = _PLANES[kind]
    execution = begin(scenario, obs)
    _drive(
        kind, scenario, execution, every_s,
        checkpoint_path, every_s if every_s is not None else _INF,
        obs,
    )
    return finalize(execution)


def run_serve_checkpointed(
    scenario: ServingScenario,
    checkpoint_path=None,
    every_s: float | None = None,
    *,
    obs=None,
):
    """One serve-plane run with periodic checkpoints.

    Steps the engine in ``every_s``-simulated-second slices, saving
    an atomic checkpoint after each (without a cadence it drains in
    one call); the report is identical to :func:`repro.serve.simulate`
    for ``stats="exact"`` scenarios (every execution path agrees
    bit-for-bit).
    """
    return _run_checkpointed(
        "serve", scenario, checkpoint_path, every_s, obs
    )


def run_control_checkpointed(
    scenario: ControlScenario,
    checkpoint_path=None,
    every_s: float | None = None,
    *,
    obs=None,
):
    """One control-plane run with periodic checkpoints (identical
    report to :func:`repro.control.simulate_controlled`)."""
    return _run_checkpointed(
        "control", scenario, checkpoint_path, every_s, obs
    )


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
    if kind not in _PLANES:
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
    return kind, payload["scenario"], _PLANES[kind][1](execution)
