"""The one way tests force the engine's general event loop.

Patching :meth:`Engine._fast_mode` to decline every kernel sends the
same workload through the ``(time, seq)`` heap loop, so a fast path
can be A/B-compared against it bit for bit.
"""

from unittest import mock

from repro.serve.engine import Engine


def force_general():
    """Context manager: every run dispatches to the general loop."""
    return mock.patch.object(
        Engine, "_fast_mode", lambda self, arena: None
    )
