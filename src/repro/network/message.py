"""Wire-level message representation."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

__all__ = ["MessageClass", "WireMessage"]


class MessageClass(enum.IntEnum):
    """NIC virtual channel.  Control messages are small and latency-critical
    (ACTIVATE, GET DATA, handshakes, RTS/CTS); data messages are bulk
    transfers.  The NIC model lets control traffic steal bandwidth from
    in-flight data instead of queueing behind it, approximating InfiniBand's
    packet-granularity QP arbitration."""

    CONTROL = 0
    DATA = 1


@dataclass
class WireMessage:
    """One message on the wire.

    ``payload`` is opaque to the network layer — the communication libraries
    put their protocol headers/bodies there.  ``size`` is what the wire
    charges (headers included), independent of the Python payload object.
    """

    src: int
    dst: int
    size: int
    msg_class: MessageClass
    payload: Any = None
    #: Library-level channel discriminator (e.g. "mpi", "lci").
    channel: str = ""
    #: Stamped by the fabric: injection time, NIC tail-departure time, and
    #: delivery time at the destination.
    inject_time: float = -1.0
    depart_time: float = -1.0
    deliver_time: float = -1.0
    #: Set only by the reliable transport (fault-injection mode): per-route
    #: sequence number and header checksum.
    seq: int = -1
    checksum: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative message size: {self.size}")
        if self.src == self.dst:
            # Self-sends are legal (loopback) but never touch the wire;
            # the fabric special-cases them.
            pass
