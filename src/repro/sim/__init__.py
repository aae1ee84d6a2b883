"""Deterministic discrete-event simulation kernel.

A minimal-but-complete simpy-style kernel: a :class:`Simulator` drives a heap
of timestamped events; generator coroutines (:class:`Process`) yield
*waitables* (timeouts, one-shot :class:`Event` completions, store gets, ...)
and are resumed when those complete.  Tie-breaking is by schedule order, so
every run is bit-for-bit reproducible.

Kernel construction goes through :func:`build_simulator` — the one public
constructor of the epoch-batched core.  Internal modules import the class
from :mod:`repro.sim.core`.
"""

from repro.sim.core import Simulator as _CoreSimulator
from repro.sim.core import (
    Event,
    Timeout,
    Process,
    Interrupt,
    AllOf,
    AnyOf,
    PARK,
)
from repro.sim.primitives import (
    Store,
    PriorityStore,
    Resource,
    Semaphore,
    Latch,
    NotifyQueue,
)
from repro.sim.rng import RngStreams
from repro.sim.clock import NodeClock, ClockEnsemble, hunold_synchronize

__all__ = [
    "build_simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "PARK",
    "Store",
    "PriorityStore",
    "Resource",
    "Semaphore",
    "Latch",
    "NotifyQueue",
    "RngStreams",
    "NodeClock",
    "ClockEnsemble",
    "hunold_synchronize",
]


def build_simulator(*, obs=None, policy=None):
    """Build the DES kernel for a run — the one construction point.

    Returns the core :class:`~repro.sim.core.Simulator`; ``obs``/``policy``
    forward to its constructor unchanged.
    """
    return _CoreSimulator(obs=obs, policy=policy)

