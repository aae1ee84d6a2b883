"""Collective operations over the simulated MPI library.

The paper's methodology uses collectives between benchmark executions
(barriers separating the 18 runs, broadcast of configuration) and its clock
synchronisation is hierarchical over groups.  These are implemented purely
in terms of the point-to-point layer, with the standard algorithms:

- :func:`barrier` — dissemination barrier, ⌈log₂ P⌉ rounds;
- :func:`bcast` — binomial-tree broadcast;
- :func:`allreduce` — recursive doubling (value + commutative op).

Each rank runs its call in its own simulated thread:
``yield from barrier(world.ranks[r], tag_base=...)``.  A given ``tag_base``
must not be reused until the collective completes (no communicator
contexts in the model — the caller provides disjoint tag ranges).
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.errors import MpiError
from repro.mpi.world import MpiRank

__all__ = ["barrier", "bcast", "allreduce", "COLLECTIVE_TAG_BASE"]

#: Default tag range for collectives; far above the runtime's AM/data tags.
COLLECTIVE_TAG_BASE = 1_000_000


def _log2_rounds(n: int) -> int:
    rounds = 0
    while (1 << rounds) < n:
        rounds += 1
    return rounds


def barrier(rank: MpiRank, tag_base: int = COLLECTIVE_TAG_BASE) -> Generator:
    """Dissemination barrier: no rank leaves before every rank has entered."""
    n = rank.world.size
    me = rank.rank
    for k in range(_log2_rounds(n)):
        dist = 1 << k
        dst = (me + dist) % n
        src = (me - dist) % n
        sreq = yield from rank.isend(dst, tag_base + k, 1)
        yield from rank.recv(src, tag_base + k, 64)
        if not sreq.done:
            yield from rank.wait(sreq)


def bcast(
    rank: MpiRank,
    root: int,
    size: int,
    payload: Any = None,
    tag_base: int = COLLECTIVE_TAG_BASE + 100,
) -> Generator[Any, Any, Any]:
    """Binomial-tree broadcast; returns the payload on every rank."""
    n = rank.world.size
    if not 0 <= root < n:
        raise MpiError(f"invalid bcast root {root}")
    # Rotate so the root is virtual rank 0.
    vrank = (rank.rank - root) % n
    rounds = _log2_rounds(n)
    value = payload
    if vrank != 0:
        # Receive from the virtual parent: clear the lowest set bit.
        parent_v = vrank & (vrank - 1)
        parent = (parent_v + root) % n
        rreq = yield from rank.recv(parent, tag_base + vrank, size)
        value = rreq.payload
    # Forward to children: set each higher bit beyond the lowest set bit.
    low = 1
    while vrank & low == 0 and low < n:
        child_v = vrank | low
        if child_v != vrank and child_v < n:
            child = (child_v + root) % n
            yield from rank.send(child, tag_base + child_v, size, payload=value)
        low <<= 1
        if vrank == 0 and low >= n:
            break
    return value


def allreduce(
    rank: MpiRank,
    value: Any,
    op: Callable[[Any, Any], Any],
    size: int = 8,
    tag_base: int = COLLECTIVE_TAG_BASE + 10_000,
) -> Generator[Any, Any, Any]:
    """Recursive-doubling allreduce for power-of-two rank counts; falls back
    to gather-to-0 + bcast otherwise.  ``op`` must be commutative."""
    n = rank.world.size
    me = rank.rank
    if n & (n - 1) == 0:
        acc = value
        for k in range(_log2_rounds(n)):
            peer = me ^ (1 << k)
            sreq = yield from rank.isend(peer, tag_base + k, size, payload=acc)
            rreq = yield from rank.recv(peer, tag_base + k, max(size, 64))
            if not sreq.done:
                yield from rank.wait(sreq)
            acc = op(acc, rreq.payload)
        return acc
    # Non-power-of-two fallback.
    if me == 0:
        acc = value
        for src in range(1, n):
            rreq = yield from rank.recv(src, tag_base + 500 + src, max(size, 64))
            acc = op(acc, rreq.payload)
        result = yield from bcast(rank, 0, size, payload=acc, tag_base=tag_base + 600)
        return result
    yield from rank.send(0, tag_base + 500 + me, size, payload=value)
    result = yield from bcast(rank, 0, size, tag_base=tag_base + 600)
    return result
