"""Task-graph generators for the registered workloads.

The §2.1 patterns typical of dynamic runtimes — a dependency ``chain``,
a multicast ``fan_out``, a 1D ``halo_exchange``, an irregular
``random_layered_dag`` and ``all_to_all_rounds`` — plus the dependence
patterns related work sweeps: a FleCSI-like 2D stencil with halo
exchange, collective-shaped reduce/broadcast trees, a nearest-neighbor
ring shift, a spawn-heavy fork-join, and a Task Bench-style tunable graph
(width × depth × dependence pattern × task granularity).  Every generator
emits directly onto the columnar :class:`~repro.runtime.taskpool.TaskGraph`
builder, so paper-scale instances stay cheap to construct.

All generators are deterministic: the only randomness (the random
layered DAG and the ``random`` Task Bench pattern) draws from a generator
seeded by the caller.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import BenchmarkError, ConfigError
from repro.runtime.taskpool import TaskGraph
from repro.units import KiB

__all__ = [
    "chain",
    "fan_out",
    "halo_exchange",
    "random_layered_dag",
    "all_to_all_rounds",
    "TASKBENCH_PATTERNS",
    "stencil2d",
    "tree_collective",
    "ring_shift",
    "fork_join",
    "taskbench_graph",
]


def chain(
    length: int, num_nodes: int, flow_bytes: int = 64 * KiB, duration: float = 5e-6
) -> TaskGraph:
    """A single dependency chain bouncing round-robin across nodes —
    the purest latency workload."""
    if length < 1:
        raise BenchmarkError("chain needs at least one task")
    g = TaskGraph()
    prev = None
    for i in range(length):
        inputs = [prev] if prev is not None else []
        t = g.add_task(node=i % num_nodes, duration=duration, inputs=inputs)
        prev = g.add_flow(t, flow_bytes)
    return g


def fan_out(
    consumers_per_node: int,
    num_nodes: int,
    flow_bytes: int = 64 * KiB,
    duration: float = 5e-6,
) -> TaskGraph:
    """One producer, consumers on every node — a multicast-tree workload."""
    g = TaskGraph()
    root = g.add_task(node=0, duration=duration, kind="root")
    flow = g.add_flow(root, flow_bytes)
    for node in range(num_nodes):
        for _ in range(consumers_per_node):
            g.add_task(node=node, duration=duration, inputs=[flow])
    return g


def halo_exchange(
    num_nodes: int,
    steps: int,
    tiles_per_node: int = 4,
    halo_bytes: int = 32 * KiB,
    duration: float = 20e-6,
) -> TaskGraph:
    """A 1D stencil: every step, each node's boundary tiles exchange halos
    with both neighbours (periodic), then compute.  Regular, bulk-
    synchronous-like traffic — the pattern MPI is optimised for, useful as
    a contrast to the runtime-style workloads."""
    if num_nodes < 2:
        raise BenchmarkError("halo exchange needs at least two nodes")
    g = TaskGraph()
    # state[node][tile] = flow feeding the next step's task there.
    state = [[None] * tiles_per_node for _ in range(num_nodes)]
    for step in range(steps):
        new_state = [[None] * tiles_per_node for _ in range(num_nodes)]
        for node in range(num_nodes):
            for tile in range(tiles_per_node):
                inputs = []
                if state[node][tile] is not None:
                    inputs.append(state[node][tile])
                    # Boundary tiles also need the neighbour's halo.
                    if tile == 0:
                        left = (node - 1) % num_nodes
                        inputs.append(state[left][tiles_per_node - 1])
                    elif tile == tiles_per_node - 1:
                        right = (node + 1) % num_nodes
                        inputs.append(state[right][0])
                t = g.add_task(
                    node=node,
                    duration=duration,
                    priority=float(steps - step),
                    inputs=inputs,
                    kind=f"step{step}",
                )
                new_state[node][tile] = g.add_flow(t, halo_bytes)
        state = new_state
    return g


def random_layered_dag(
    layers: Sequence[int],
    num_nodes: int,
    fan_in: int = 2,
    flow_bytes: int = 16 * KiB,
    duration: float = 5e-6,
    seed: int = 0,
) -> TaskGraph:
    """An irregular layered DAG with random placement and random fan-in —
    the nondeterministic communication pattern of §2.1."""
    rng = np.random.default_rng(seed)
    g = TaskGraph()
    prev_flows: list[int] = []
    for li, width in enumerate(layers):
        new_flows = []
        for _ in range(width):
            if prev_flows:
                take = min(fan_in, len(prev_flows))
                picks = rng.choice(len(prev_flows), size=take, replace=False)
                inputs = [prev_flows[int(i)] for i in picks]
            else:
                inputs = []
            t = g.add_task(
                node=int(rng.integers(num_nodes)),
                duration=duration * float(rng.uniform(0.5, 1.5)),
                inputs=inputs,
                kind=f"layer{li}",
            )
            new_flows.append(g.add_flow(t, int(flow_bytes * rng.uniform(0.25, 2.0))))
        prev_flows = new_flows
    return g


def all_to_all_rounds(
    num_nodes: int,
    rounds: int,
    flow_bytes: int = 64 * KiB,
    duration: float = 5e-6,
) -> TaskGraph:
    """Each round, every node produces one flow consumed by every other
    node — maximal incast/multicast pressure."""
    g = TaskGraph()
    prev: dict[int, list[int]] = {n: [] for n in range(num_nodes)}
    for _round in range(rounds):
        flows = {}
        for node in range(num_nodes):
            t = g.add_task(node=node, duration=duration, inputs=prev[node])
            flows[node] = g.add_flow(t, flow_bytes)
        prev = {
            node: [flows[other] for other in range(num_nodes)]
            for node in range(num_nodes)
        }
    # Sink tasks consume the final round everywhere.
    for node in range(num_nodes):
        g.add_task(node=node, duration=duration, inputs=prev[node])
    return g


#: The tunable dependence patterns of :func:`taskbench_graph`, mirroring
#: the Task Bench study's named patterns.
TASKBENCH_PATTERNS = (
    "trivial", "serial", "stencil", "fft", "random", "all_to_all",
)


def stencil2d(
    grid: int,
    steps: int,
    num_nodes: int,
    halo_bytes: int = 32 * 1024,
    duration: float = 20e-6,
) -> TaskGraph:
    """A 2D periodic stencil: ``grid × grid`` tiles, block-row partitioned.

    Each step every tile recomputes from its own previous state plus the
    four von-Neumann neighbours' halos; tiles on a partition boundary pull
    halos across nodes — the FleCSI-like halo-exchange traffic pattern.
    """
    if grid < 2:
        raise ConfigError("stencil grid must be at least 2 tiles per side")
    if steps < 1:
        raise ConfigError("stencil needs at least one step")
    g = TaskGraph()

    def owner(i: int) -> int:
        # Block-row decomposition: contiguous rows per node.
        return (i * num_nodes) // grid

    state = [[None] * grid for _ in range(grid)]
    for step in range(steps):
        new_state = [[None] * grid for _ in range(grid)]
        for i in range(grid):
            for j in range(grid):
                inputs = []
                if state[i][j] is not None:
                    inputs.append(state[i][j])
                    inputs.append(state[(i - 1) % grid][j])
                    inputs.append(state[(i + 1) % grid][j])
                    inputs.append(state[i][(j - 1) % grid])
                    inputs.append(state[i][(j + 1) % grid])
                t = g.add_task(
                    node=owner(i),
                    duration=duration,
                    priority=float(steps - step),
                    inputs=inputs,
                    kind=f"stencil{step}",
                )
                new_state[i][j] = g.add_flow(t, halo_bytes)
        state = new_state
    return g


def tree_collective(
    fanout: int,
    depth: int,
    num_nodes: int,
    rounds: int = 1,
    payload_bytes: int = 64 * 1024,
    duration: float = 5e-6,
    mode: str = "allreduce",
) -> TaskGraph:
    """A ``fanout``-ary collective tree, repeated for ``rounds``.

    ``mode="broadcast"`` fans one flow down to ``fanout**depth`` leaves,
    ``"reduce"`` gathers leaves up to the root, ``"allreduce"`` chains a
    reduce into a broadcast per round — the multicast-tree traffic the
    runtime's ACTIVATE aggregation is built for.  Vertices are placed
    round-robin across nodes in breadth-first order.
    """
    if mode not in ("broadcast", "reduce", "allreduce"):
        raise ConfigError(
            f"unknown tree mode {mode!r} "
            f"(known: broadcast, reduce, allreduce)"
        )
    if fanout < 2:
        raise ConfigError("tree fanout must be at least 2")
    if depth < 1:
        raise ConfigError("tree depth must be at least 1")
    g = TaskGraph()
    placed = 0

    def place() -> int:
        nonlocal placed
        node = placed % num_nodes
        placed += 1
        return node

    def broadcast(root_flow, step: int) -> list:
        """Fan ``root_flow`` down; returns the leaf flows."""
        level = [root_flow]
        for d in range(depth):
            nxt = []
            for flow in level:
                for _ in range(fanout):
                    t = g.add_task(node=place(), duration=duration,
                                   inputs=[flow], kind=f"bcast{step}d{d}")
                    nxt.append(g.add_flow(t, payload_bytes))
            level = nxt
        return level

    def reduce(leaf_flows, step: int):
        """Gather ``leaf_flows`` up; returns the root flow."""
        level = list(leaf_flows)
        d = 0
        while len(level) > 1:
            nxt = []
            for lo in range(0, len(level), fanout):
                group = level[lo:lo + fanout]
                t = g.add_task(node=place(), duration=duration,
                               inputs=group, kind=f"reduce{step}d{d}")
                nxt.append(g.add_flow(t, payload_bytes))
            level = nxt
            d += 1
        return level[0]

    def leaves(step: int) -> list:
        """Independent leaf producers feeding a reduce."""
        out = []
        for _ in range(fanout ** depth):
            t = g.add_task(node=place(), duration=duration,
                           kind=f"leaf{step}")
            out.append(g.add_flow(t, payload_bytes))
        return out

    carry = None
    for r in range(rounds):
        if mode == "broadcast":
            root = g.add_task(node=place(), duration=duration,
                              inputs=[carry] if carry is not None else [],
                              kind=f"root{r}")
            carry_leaves = broadcast(g.add_flow(root, payload_bytes), r)
            # Next round's root waits on one leaf (keeps rounds ordered).
            carry = carry_leaves[0]
        elif mode == "reduce":
            carry = reduce(leaves(r), r)
        else:  # allreduce: reduce up, then broadcast the result back down
            root_flow = reduce(leaves(r), r)
            carry = broadcast(root_flow, r)[0]
    # A sink consumes the final carry so the last flow is observable.
    g.add_task(node=0, duration=0.0, inputs=[carry], kind="sink")
    return g


def ring_shift(
    num_nodes: int,
    steps: int,
    flow_bytes: int = 64 * 1024,
    duration: float = 5e-6,
) -> TaskGraph:
    """A nearest-neighbor ring: every step each node consumes its left
    neighbour's previous flow plus its own, then produces one flow — the
    shift pattern of ring allreduce/halo pipelines.  Every flow crosses
    exactly one link, so the wire traffic is perfectly regular."""
    if num_nodes < 2:
        raise ConfigError("ring needs at least two nodes")
    if steps < 1:
        raise ConfigError("ring needs at least one step")
    g = TaskGraph()
    state = [None] * num_nodes
    for step in range(steps):
        new_state = [None] * num_nodes
        for node in range(num_nodes):
            inputs = []
            if state[node] is not None:
                inputs.append(state[node])
                inputs.append(state[(node - 1) % num_nodes])
            t = g.add_task(
                node=node,
                duration=duration,
                priority=float(steps - step),
                inputs=inputs,
                kind=f"ring{step}",
            )
            new_state[node] = g.add_flow(t, flow_bytes)
        state = new_state
    return g


def fork_join(
    fanout: int,
    depth: int,
    num_nodes: int,
    flow_bytes: int = 16 * 1024,
    duration: float = 5e-6,
) -> TaskGraph:
    """A spawn-heavy recursive fork-join.

    The root forks ``fanout`` children per level down to ``depth``, then
    the tree joins symmetrically back to a single task — ``fanout**depth``
    parallel leaves with bursts of small ACTIVATE traffic at every fork
    and join boundary, the dynamic-runtime pattern MPI aggregation handles
    worst.  Children scatter round-robin across nodes.
    """
    if fanout < 2:
        raise ConfigError("fork-join fanout must be at least 2")
    if depth < 1:
        raise ConfigError("fork-join depth must be at least 1")
    g = TaskGraph()
    placed = 0

    def place() -> int:
        nonlocal placed
        node = placed % num_nodes
        placed += 1
        return node

    root = g.add_task(node=place(), duration=duration, kind="fork0")
    level = [g.add_flow(root, flow_bytes)]
    for d in range(depth):
        nxt = []
        for flow in level:
            for _ in range(fanout):
                t = g.add_task(node=place(), duration=duration,
                               inputs=[flow], kind=f"fork{d + 1}")
                nxt.append(g.add_flow(t, flow_bytes))
        level = nxt
    d = 0
    while len(level) > 1:
        nxt = []
        for lo in range(0, len(level), fanout):
            t = g.add_task(node=place(), duration=duration,
                           inputs=level[lo:lo + fanout], kind=f"join{d}")
            nxt.append(g.add_flow(t, flow_bytes))
        level = nxt
        d += 1
    g.add_task(node=0, duration=0.0, inputs=level, kind="sink")
    return g


def _pattern_deps(pattern: str, width: int, layer: int, col: int,
                  fan_in: int, rng) -> list:
    """Previous-layer columns task ``(layer, col)`` depends on."""
    if pattern == "trivial":
        return []
    if pattern == "serial":
        return [col]
    if pattern == "stencil":
        return [c for c in (col - 1, col, col + 1) if 0 <= c < width]
    if pattern == "fft":
        span = max(1, width.bit_length() - 1)
        partner = col ^ (1 << ((layer - 1) % span))
        deps = [col]
        if partner != col and partner < width:
            deps.append(partner)
        return deps
    if pattern == "all_to_all":
        return list(range(width))
    # "random": a seeded draw of fan_in distinct previous columns.
    take = min(fan_in, width)
    picks = rng.choice(width, size=take, replace=False)
    return sorted(int(c) for c in picks)


def taskbench_graph(
    width: int,
    depth: int,
    pattern: str,
    num_nodes: int,
    granularity: float = 5e-6,
    flow_bytes: int = 16 * 1024,
    fan_in: int = 3,
    seed: int = 0,
) -> TaskGraph:
    """A Task Bench-style tunable graph: ``width`` columns × ``depth``
    layers with a named dependence ``pattern`` between consecutive layers
    and per-task compute ``granularity``.

    Columns map to nodes round-robin, so any cross-column dependence is a
    cross-node flow; sweeping width × depth × pattern × granularity moves
    the workload continuously between latency-bound, bandwidth-bound and
    compute-bound regimes — the axis the Task Bench comparisons sweep.
    """
    if pattern not in TASKBENCH_PATTERNS:
        raise ConfigError(
            f"unknown taskbench pattern {pattern!r} "
            f"(known: {', '.join(TASKBENCH_PATTERNS)})"
        )
    if width < 1 or depth < 1:
        raise ConfigError("taskbench width and depth must be at least 1")
    if fan_in < 1:
        raise ConfigError("taskbench fan_in must be at least 1")
    rng = np.random.default_rng(seed)
    g = TaskGraph()
    prev = [None] * width
    for layer in range(depth):
        new = [None] * width
        for col in range(width):
            deps = (
                _pattern_deps(pattern, width, layer, col, fan_in, rng)
                if layer > 0 else []
            )
            t = g.add_task(
                node=col % num_nodes,
                duration=granularity,
                priority=float(depth - layer),
                inputs=[prev[c] for c in deps],
                kind=f"tb{layer}",
            )
            new[col] = g.add_flow(t, flow_bytes)
        prev = new
    return g
