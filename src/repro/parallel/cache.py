"""Persistent, keyed result cache for simulation requests.

Every expensive computation in the reproduction — a cycle-accurate layer
simulation, a sweep point, a DSE candidate, a prepared workload — is a
pure function of its inputs (architecture configuration, layer geometry,
quantization seed, ...).  This module derives a stable content key from
those inputs and memoizes results in two tiers: an in-process dictionary
and an optional on-disk store, so identical requests are computed once
and reused across experiments, benchmarks, and CLI runs (and across
processes, when a cache directory is shared).

Keys canonicalize dataclasses, enums, and NumPy arrays, so changing any
field of an :class:`~repro.arch.params.ArchConfig` or layer spec yields a
different key — invalidation on configuration change falls out of the
keying scheme.  ``CACHE_SCHEMA_VERSION`` is folded into every key; bump
it whenever the stored value format changes to orphan stale entries.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .._atomic import write_atomic
from ..errors import ConfigError

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ResultCache",
    "canonical",
    "extension_field",
    "make_key",
    "restore_extended",
]

#: Bump to invalidate every previously stored entry.
CACHE_SCHEMA_VERSION = 1


def extension_field(default: Any) -> Any:
    """A dataclass field added *after* results already live in caches.

    :func:`canonical` omits such a field while it still equals
    ``default``, so content keys derived before the field existed — and
    every warm :class:`ResultCache` entry stored under them — keep
    resolving.  Any non-default value participates in the key exactly
    like an ordinary field.  Use this for every field grown onto a
    cached request dataclass (scenarios, configs) whose default
    preserves the old behaviour.
    """
    return dataclasses.field(
        default=default, metadata={"cache_extension": True}
    )


def restore_extended(obj: Any, state: dict) -> None:
    """``__setstate__`` body for result dataclasses grown new fields.

    A warm cache can hold values pickled before a field existed;
    default unpickling would restore an instance missing the new
    attribute, crashing the first ``dataclasses.asdict`` (or any
    access) downstream.  Backfilling absent defaulted fields keeps
    those entries fully usable — the value-side counterpart of
    :func:`extension_field`'s key stability.  Works for frozen
    dataclasses: ``__dict__`` is written directly, bypassing the
    blocked ``__setattr__``.
    """
    for f in dataclasses.fields(obj):
        if f.name in state:
            continue
        if f.default is not dataclasses.MISSING:
            state[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:
            state[f.name] = f.default_factory()
    obj.__dict__.update(state)


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serializable canonical form.

    Supports the value types that appear in simulation requests:
    primitives, tuples/lists, dicts, dataclasses (by type name and
    field values), enums (by class and member name), and NumPy arrays
    and scalars (arrays by dtype/shape/content digest).
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(repr(obj)) if obj == obj else "nan"
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, obj.name]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {}
        for f in dataclasses.fields(obj):
            # Non-comparing fields (the report's engine execution
            # counters) are not part of the value: equal objects must
            # derive equal keys, whichever execution path produced
            # them.
            if not f.compare:
                continue
            value = getattr(obj, f.name)
            # Extension fields stay out of the key at their default so
            # pre-extension keys (and warm cache entries) survive.
            if (
                f.metadata.get("cache_extension")
                and f.default is not dataclasses.MISSING
                and value == f.default
            ):
                continue
            fields[f.name] = canonical(value)
        return [type(obj).__name__, fields]
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes())
        return ["ndarray", str(obj.dtype), list(obj.shape), digest.hexdigest()]
    if isinstance(obj, np.generic):
        return canonical(obj.item())
    if isinstance(obj, (tuple, list)):
        return [canonical(item) for item in obj]
    if isinstance(obj, dict):
        return [
            [canonical(key), canonical(value)]
            for key, value in sorted(obj.items(), key=lambda kv: repr(kv[0]))
        ]
    raise TypeError(f"cannot build a cache key from {type(obj).__name__}")


def make_key(kind: str, /, **parts: Any) -> str:
    """Derive the cache key for one ``kind`` of request.

    Args:
        kind: Request family, e.g. ``"sweep_point"`` — distinct kinds
            never collide even for identical parameters.
        **parts: The request parameters (see :func:`canonical`).

    Returns:
        A hex digest string, stable across processes and sessions.
    """
    payload = json.dumps(
        [CACHE_SCHEMA_VERSION, kind, canonical(parts)],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_MISSING = object()


class ResultCache:
    """Two-tier (memory + optional disk) store of computed results.

    Args:
        cache_dir: Directory for the persistent tier; ``None`` keeps the
            cache purely in-process.  Created on first write.

    Attributes:
        hits: Number of successful lookups.
        misses: Number of failed lookups.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._memory: dict[str, Any] = {}
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / key[:2] / f"{key}.pkl"

    def lookup(self, key: str) -> Any:
        """Return the stored value for ``key``, or ``None`` if absent.

        Use :meth:`contains` to distinguish a stored ``None``.
        """
        value = self._lookup(key)
        if value is _MISSING:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def _lookup(self, key: str) -> Any:
        if key in self._memory:
            return self._memory[key]
        if self.cache_dir is not None:
            path = self._path(key)
            try:
                with open(path, "rb") as handle:
                    value = pickle.load(handle)
            except FileNotFoundError:
                return _MISSING
            except Exception:
                # Any unreadable entry — truncated file, or a stale
                # pickle referencing since-renamed classes — is a miss
                # to recompute, never a crash.  Drop the bad file so the
                # recompute's atomic write repairs the entry for every
                # later reader.
                try:
                    os.unlink(path)
                except OSError:
                    pass
                return _MISSING
            self._memory[key] = value
            return value
        return _MISSING

    def contains(self, key: str) -> bool:
        """Whether ``key`` is resolvable from either tier."""
        return self._lookup(key) is not _MISSING

    def peek(self, key: str, default: Any = None) -> Any:
        """Like :meth:`lookup` but without touching the hit/miss counters."""
        value = self._lookup(key)
        return default if value is _MISSING else value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` in memory and (when configured) on disk.

        Disk writes go through a temporary file and an atomic rename, so
        concurrent writers on one filesystem never expose torn entries.
        """
        self._memory[key] = value
        if self.cache_dir is None:
            return
        write_atomic(
            self._path(key),
            lambda handle: pickle.dump(
                value, handle, protocol=pickle.HIGHEST_PROTOCOL
            ),
            f"cache directory {self.cache_dir} is not writable",
            error=ConfigError,
            binary=True,
            suffix=".pkl",
            make_parents=True,
        )

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on a miss."""
        value = self._lookup(key)
        if value is not _MISSING:
            self.hits += 1
            return value
        self.misses += 1
        value = compute()
        self.put(key, value)
        return value

    def invalidate(self, key: str) -> None:
        """Drop one entry from both tiers (missing keys are ignored)."""
        self._memory.pop(key, None)
        if self.cache_dir is not None:
            try:
                os.unlink(self._path(key))
            except OSError:
                pass

    def clear(self) -> None:
        """Drop every entry from both tiers.

        Also sweeps ``.tmp-*`` droppings a killed writer may have left
        behind (the atomic-rename path removes its temp file on every
        normal exit, but nothing survives ``SIGKILL``).
        """
        self._memory.clear()
        if self.cache_dir is not None and self.cache_dir.is_dir():
            for bucket in self.cache_dir.iterdir():
                if bucket.is_dir():
                    for entry in bucket.glob("*.pkl"):
                        try:
                            os.unlink(entry)
                        except OSError:
                            pass
                    for stale in bucket.glob(".tmp-*"):
                        try:
                            os.unlink(stale)
                        except OSError:
                            pass

    def __len__(self) -> int:
        return len(self._memory)
