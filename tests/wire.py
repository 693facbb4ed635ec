"""Test-only selectors for the reference wire oracles.

The product runtime has one wire: the ring transport, with every
flat-store field riding the block halo wave.  The bit-identical
references — the deque transport and the per-message halo path — stay
as oracles, reached only through these helpers.
"""

from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.runtime import ringbuf
from repro.runtime.executor import SPMDExecutor
from repro.runtime.flatstore import build_flat_store

TRANSPORTS = ("ring", "deque")
WAVES = ("block", "per-message")


@contextmanager
def reference_wire(transport="ring", wave="block"):
    """Run executors inside on ``transport`` with halos on ``wave``.

    ``wave="per-message"`` leaves the executor without a flat store, so
    every halo collective takes the per-message reference path.
    """
    assert transport in TRANSPORTS and wave in WAVES, (transport, wave)
    with ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(ringbuf, "DEFAULT_TRANSPORT", transport))
        if wave == "per-message":
            stack.enter_context(mock.patch.object(
                SPMDExecutor, "_flat_variables", lambda self: []))
        yield


def halo_store(wave, envs, var):
    """The ``store=`` a direct halo call needs to travel on ``wave``."""
    return build_flat_store(envs, [var]) if wave == "block" else None
