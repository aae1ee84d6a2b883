"""MPI request objects.

A request is the handle for one in-flight communication.  ``done`` flips
exactly once per *activation* (persistent requests can be re-started);
``event`` is a fresh simulation event per activation so blocking waiters can
park on it.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import MpiError
from repro.sim.core import Event, Simulator

__all__ = ["Request", "SendRequest", "RecvRequest", "PersistentRecvRequest"]


class Request:
    """Base request: completion flag + waitable event.

    ``req_id`` is handed out by the owning :class:`~repro.mpi.world.MpiWorld`
    (unique within that world); it keys the rank's rendezvous and deferred-
    completion tables and travels in wire payloads.
    """

    __slots__ = ("sim", "req_id", "done", "event", "active")

    def __init__(self, sim: Simulator, req_id: int):
        self.sim = sim
        self.req_id = req_id
        self.done = False
        self.active = True
        self.event = Event(sim)

    def _complete(self) -> None:
        if self.done:
            raise MpiError(f"request {self.req_id} completed twice")
        self.done = True
        self.event.succeed(self)


class SendRequest(Request):
    """An in-flight send (eager or rendezvous)."""

    __slots__ = ("dst", "tag", "size", "payload", "protocol")

    def __init__(
        self, sim: Simulator, req_id: int, dst: int, tag: int, size: int, payload: Any
    ):
        super().__init__(sim, req_id)
        self.dst = dst
        self.tag = tag
        self.size = size
        self.payload = payload
        self.protocol: str = ""  # "eager" | "rndv", set by the library


class RecvRequest(Request):
    """An in-flight receive.  ``source``/``recv_tag``/``recv_size``/``payload``
    are filled at match/completion time (like ``MPI_Status``)."""

    __slots__ = ("src", "tag", "max_size", "source", "recv_tag", "recv_size", "payload")

    def __init__(
        self, sim: Simulator, req_id: int, src: Optional[int], tag: Optional[int],
        max_size: int,
    ):
        super().__init__(sim, req_id)
        self.src = src  # None = MPI_ANY_SOURCE
        self.tag = tag  # None = MPI_ANY_TAG
        self.max_size = max_size
        self.source: Optional[int] = None
        self.recv_tag: Optional[int] = None
        self.recv_size: Optional[int] = None
        self.payload: Any = None


class PersistentRecvRequest(RecvRequest):
    """A persistent receive (``MPI_Recv_init``): re-armable with ``start``.

    Between completion and the next ``start`` the request is inactive and is
    ignored by ``testsome``.
    """

    __slots__ = ()

    def __init__(
        self, sim: Simulator, req_id: int, src: Optional[int], tag: Optional[int],
        max_size: int,
    ):
        super().__init__(sim, req_id, src, tag, max_size)
        self.active = False  # must be started first

    def _rearm(self) -> None:
        if self.active and not self.done:
            raise MpiError("MPI_Start on an already-active persistent request")
        self.done = False
        self.active = True
        self.source = None
        self.recv_tag = None
        self.recv_size = None
        self.payload = None
        self.event = Event(self.sim)
