"""Atomic file writes: fill a temp file beside the target, then rename.

A reader (or a run resumed after SIGKILL) sees the previous complete
file or the new one, never a torn half-write.  The JSON report, the
trace file, checkpoints and result-cache entries all write this way.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from .errors import ReproError

__all__ = ["write_atomic"]


def write_atomic(
    path,
    write,
    message: str,
    *,
    error=ReproError,
    binary: bool = False,
    prefix: str = ".tmp-",
    suffix: str = "",
    make_parents: bool = False,
) -> None:
    """Write ``path`` atomically: ``write(handle)`` fills a temp file in
    the target's directory, which ``os.replace`` then renames onto
    ``path``.

    Every ``OSError`` — an unwritable or missing directory, a target
    that is a directory, a full disk — is raised as
    ``error(f"{message}: {exc}")``, and the temp file never outlives a
    failure.

    Args:
        path: Target file.
        write: Callable filling the open handle (text, UTF-8, unless
            ``binary``).
        message: Error prefix naming what was being written.
        error: Exception class to raise (a :class:`ReproError`).
        binary: Open the temp file in binary mode.
        prefix: Temp-file name prefix (hidden by default).
        suffix: Temp-file name suffix.
        make_parents: Create missing parent directories first.
    """
    path = Path(path)
    tmp_name = None
    try:
        if make_parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=prefix, suffix=suffix
        )
        if binary:
            handle = os.fdopen(fd, "wb")
        else:
            handle = os.fdopen(fd, "w", encoding="utf-8")
        with handle:
            write(handle)
        os.replace(tmp_name, path)
    except BaseException as exc:
        if tmp_name is not None:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise error(f"{message}: {exc}") from exc
        raise
