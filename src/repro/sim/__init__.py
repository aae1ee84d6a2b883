"""Deterministic discrete-event simulation kernel.

A minimal-but-complete simpy-style kernel: a :class:`Simulator` drives a heap
of timestamped events; generator coroutines (:class:`Process`) yield
*waitables* (timeouts, one-shot :class:`Event` completions, store gets, ...)
and are resumed when those complete.  Tie-breaking is by schedule order, so
every run is bit-for-bit reproducible.

Kernel construction goes through :func:`build_simulator` — the one public
constructor, and the one place that knows about both the serial
epoch-batched core and the partitioned (PDES) worker kernel.  Internal
modules import the class from :mod:`repro.sim.core`.
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


def build_simulator(config=None, *, obs=None, policy=None):
    """Build the right DES kernel for a run — the one construction point.

    ``config`` is ``None`` for a serial in-process run (returns the core
    :class:`~repro.sim.core.Simulator`) or a
    :class:`~repro.config.PartitionConfig` for a partitioned run (returns
    a :class:`~repro.sim.partition.PartitionSimulator`, the window-capable
    kernel a partition worker drives).  ``obs``/``policy`` forward to the
    kernel constructor unchanged.
    """
    if config is None:
        return _CoreSimulator(obs=obs, policy=policy)
    from repro.config import PartitionConfig
    from repro.errors import ConfigError

    if not isinstance(config, PartitionConfig):
        raise ConfigError(
            f"build_simulator expects a PartitionConfig or None, "
            f"got {type(config).__name__}"
        )
    from repro.sim.partition import PartitionSimulator

    return PartitionSimulator(obs=obs, policy=policy)

