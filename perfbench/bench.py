"""The benchmark's workloads, phases, correctness check and measurements.

Every workload runs through the public layer calls in order:
``WorkloadSpec.build_config`` and ``WorkloadSpec.build_graph`` (graph
build), ``TaskGraph.validate``, ``ParsecContext(...)`` (together:
set-up) and ``ParsecContext.run`` (the run).  All runs use the serial
kernel in this one process.

:func:`measure` gives the end-to-end metrics from untraced runs;
:func:`measure_traced` adds one traced run for the per-layer metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Optional

from layers import LayerTracer, Target, public_methods

from repro.config import scaled_platform
from repro.lci.completion import CompletionQueue, Synchronizer
from repro.lci.constants import LCI_ERR_RETRY
from repro.lci.device import LciDevice, LciWorld
from repro.mpi.matching import MatchEngine
from repro.mpi.world import MpiRank, MpiWorld
from repro.network.fabric import Fabric
from repro.runtime.comm_engine import CommEngine
from repro.runtime.context import ParsecContext, RunStats
from repro.runtime.lci_backend import LciBackend
from repro.runtime.mpi_backend import MpiBackend
from repro.runtime.node import NodeRuntime
from repro.runtime.taskpool import TaskGraph
from repro.workloads import get_workload

__all__ = [
    "Workload",
    "WORKLOADS",
    "Measurement",
    "Setup",
    "Checker",
    "setup",
    "run",
    "fingerprint",
    "layer_targets",
    "measure",
    "measure_traced",
    "END_TO_END",
    "PER_LAYER",
]

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

#: ``ParsecContext.run`` horizon, the same one the registered workloads use.
UNTIL = 36_000.0
#: Fewest timed runs per untraced measurement, however short ``--seconds``.
MIN_RUNS = 3


def _hicma_platform(cfg):
    # run_hicma_benchmark's default platform (repro.bench.hicma_bench).
    return scaled_platform(num_nodes=cfg.num_nodes, cores_per_node=8)


def _graph_platform(cfg):
    # run_graph_benchmark's default platform (repro.workloads.runner).
    return scaled_platform(num_nodes=cfg.num_nodes)


def _hicma_ctx(cfg) -> dict:
    return {
        "multithreaded_activate": cfg.multithreaded_activate,
        "clock_sync": cfg.clock_sync,
        "seed": cfg.seed,
    }


def _graph_ctx(cfg) -> dict:
    return {"seed": cfg.seed}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a registered workload, a backend, params."""

    name: str
    spec: str
    backend: str
    params: dict
    platform: Callable
    ctx_kwargs: Callable
    #: Layer the graph-building code belongs to (``hicma`` or ``workloads``).
    build_layer: str

    def with_params(self, **params: Any) -> "Workload":
        """The same workload with some parameters replaced (tests)."""
        return replace(self, params={**self.params, **params})


_HICMA = {"matrix_size": 48_000, "tile_size": 1_200, "num_nodes": 16}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hicma-lci",
            spec="hicma",
            backend="lci",
            params=_HICMA,
            platform=_hicma_platform,
            ctx_kwargs=_hicma_ctx,
            build_layer="hicma",
        ),
        Workload(
            name="hicma-mpi",
            spec="hicma",
            backend="mpi",
            params=_HICMA,
            platform=_hicma_platform,
            ctx_kwargs=_hicma_ctx,
            build_layer="hicma",
        ),
        Workload(
            name="randomdag-lci",
            spec="randomdag",
            backend="lci",
            params={
                "layers": 96,
                "width": 64,
                "fan_in": 8,
                "flow_bytes": 4 * 1024,
                "num_nodes": 8,
            },
            platform=_graph_platform,
            ctx_kwargs=_graph_ctx,
            build_layer="workloads",
        ),
    )
}

#: (name, unit) of each end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mib", "MiB"),
)

#: (name, unit) of each per-layer metric, in report order.
PER_LAYER = (
    ("hicma.build_s", "s"),
    ("workloads.build_s", "s"),
    ("taskpool.validate_s", "s"),
    ("taskpool.tasks", "count"),
    ("taskpool.flows", "count"),
    ("context.init_s", "s"),
    ("sim.events", "count"),
    ("sim.us_per_event", "us"),
    ("sim.self_s", "s"),
    ("runtime.self_s", "s"),
    ("runtime.progress_calls", "count"),
    ("runtime.progress_useful", "ratio"),
    ("runtime.send_am_calls", "count"),
    ("runtime.put_calls", "count"),
    ("runtime.activates_sent", "count"),
    ("lci.self_s", "s"),
    ("lci.calls", "count"),
    ("lci.progress_calls", "count"),
    ("lci.progress_useful", "ratio"),
    ("lci.retries", "count"),
    ("mpi.self_s", "s"),
    ("mpi.calls", "count"),
    ("mpi.testsome_calls", "count"),
    ("mpi.testsome_useful", "ratio"),
    ("mpi.unexpected_msgs", "count"),
    ("network.self_s", "s"),
    ("network.sends", "count"),
    ("network.wire_bytes", "bytes"),
    ("network.us_per_send", "us"),
    ("trace.overhead", "ratio"),
    ("fail_ratio", "ratio"),
)


# -- phases -------------------------------------------------------------


@dataclass
class Setup:
    """A ready context plus how long each set-up phase took."""

    graph: TaskGraph
    ctx: ParsecContext
    seconds: float
    #: phase -> seconds: ``build``, ``validate``, ``init``.
    phases: dict


def setup(wl: Workload, seed: int) -> Setup:
    """Workload config to a ready context: build, validate, construct."""
    clock = time.perf_counter
    t0 = clock()
    spec = get_workload(wl.spec)
    cfg = spec.build_config(**wl.params, seed=seed)
    platform = wl.platform(cfg)
    graph = spec.build_graph(cfg, platform)
    t1 = clock()
    graph.validate(num_nodes=cfg.num_nodes)
    t2 = clock()
    ctx = ParsecContext(platform, backend=wl.backend, **wl.ctx_kwargs(cfg))
    t3 = clock()
    return Setup(graph, ctx, t3 - t0, {"build": t1 - t0, "validate": t2 - t1, "init": t3 - t2})


def run(s: Setup, tracer: Optional[LayerTracer] = None) -> tuple:
    """``ParsecContext.run`` to completion and drain: ``(stats, seconds)``.

    With a ``tracer`` the run is the root span of layer ``sim``, so the
    kernel's self time is what no other layer's span covers.
    """
    root = nullcontext() if tracer is None else tracer.span("sim")
    t0 = time.perf_counter()
    with root:
        stats = s.ctx.run(s.graph, until=UNTIL)
    return stats, time.perf_counter() - t0


def fingerprint(stats: RunStats) -> str:
    """SHA-256 over makespan, tasks, events, wire bytes and the
    flow-latency list (exact float bits)."""
    lat = stats.flow_latencies
    head = (
        stats.makespan,
        stats.tasks_executed,
        stats.events_processed,
        stats.wire_bytes,
        len(lat),
    )
    h = hashlib.sha256(repr(head).encode())
    h.update(array("d", lat).tobytes())
    return h.hexdigest()


def load_reference() -> dict:
    """The recorded fingerprints: ``{workload: {"backend", "params",
    "fingerprints": {seed: fingerprint}}}``."""
    return json.loads(REFERENCE.read_text())


def reference_for(wl: Workload, seed: int) -> Optional[str]:
    """The recorded fingerprint of ``wl`` on ``seed``, if there is one for
    exactly this backend and these parameters."""
    entry = load_reference().get(wl.name)
    if entry is None or entry["backend"] != wl.backend or entry["params"] != wl.params:
        return None
    return entry["fingerprints"].get(str(seed))


@dataclass
class Checker:
    """The per-run correctness check; a mismatch counts, it never raises.

    A run fails when it executed another number of tasks than the graph
    holds, when its fingerprint differs from ``expected`` (the recorded
    reference), or when it differs from the first run checked by this
    checker (repeat runs and the traced run must reproduce the untraced
    one exactly).
    """

    expected: Optional[str] = None
    attempted: int = 0
    failed: int = 0
    first: Optional[str] = None
    problems: list = field(default_factory=list)

    def check(self, s: Setup, stats: RunStats, label: str) -> None:
        self.attempted += 1
        fp = fingerprint(stats)
        bad = []
        if stats.tasks_executed != s.graph.num_tasks:
            bad.append(f"executed {stats.tasks_executed} of {s.graph.num_tasks} tasks")
        if self.expected is not None and fp != self.expected:
            bad.append(f"fingerprint {fp[:16]} != reference {self.expected[:16]}")
        if self.first is None:
            self.first = fp
        elif fp != self.first:
            bad.append(f"fingerprint {fp[:16]} != first run's {self.first[:16]}")
        if bad:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(bad))


# -- tracing targets ----------------------------------------------------


def _useful(name: str, is_useful: Callable[[Any], bool]) -> Callable:
    def probe(counts, result) -> None:
        counts[f"{name}_calls"] += 1
        if is_useful(result):
            counts[f"{name}_useful"] += 1

    return probe


def _count(name: str, when: Callable[[Any], bool] = lambda _r: True) -> Callable:
    def probe(counts, result) -> None:
        if when(result):
            counts[name] += 1

    return probe


def layer_targets() -> tuple:
    """What the traced run wraps, by layer (module package).

    Public methods of each layer's classes, plus the private entry points
    the kernel or a lower layer calls directly (thread generators, wire
    handlers, timers, completion handlers), so that time no span covers
    is the kernel's.
    """
    engine_progress = _useful("runtime.progress", lambda n: n > 0)
    send_am = _count("runtime.send_am_calls")
    put = _count("runtime.put_calls")
    retry = _count("lci.retries", lambda status: status == LCI_ERR_RETRY)
    backend_probes = {"progress": engine_progress, "send_am": send_am, "put": put}
    return (
        Target(
            NodeRuntime,
            "runtime",
            public_methods(NodeRuntime, "_worker", "_comm_thread", "_progress_thread"),
        ),
        Target(CommEngine, "runtime", public_methods(CommEngine)),
        Target(
            LciBackend,
            "runtime",
            public_methods(
                LciBackend,
                "_progress_thread_handler",
                "_native_put_handler",
                "_direct_completion",
            ),
            backend_probes,
        ),
        Target(MpiBackend, "runtime", public_methods(MpiBackend), backend_probes),
        Target(
            LciDevice,
            "lci",
            public_methods(LciDevice, "_on_wire", "_push_hw", "_tx_packet_done"),
            {
                "progress": _useful("lci.progress", lambda n: n > 0),
                "sendb": retry,
                "sendd": retry,
                "putd": retry,
                "recvd": retry,
            },
        ),
        Target(LciWorld, "lci", public_methods(LciWorld, "_apply_fin")),
        Target(CompletionQueue, "lci", public_methods(CompletionQueue)),
        Target(Synchronizer, "lci", public_methods(Synchronizer)),
        Target(
            MpiRank,
            "mpi",
            public_methods(MpiRank, "_on_wire", "_complete_rma", "_complete_send"),
            {"testsome": _useful("mpi.testsome", lambda idxs: len(idxs) > 0)},
        ),
        Target(MpiWorld, "mpi", public_methods(MpiWorld, "_apply_fin")),
        Target(
            MatchEngine,
            "mpi",
            public_methods(MatchEngine),
            {"arrive": _count("mpi.unexpected_msgs", lambda rreq: rreq is None)},
        ),
        Target(
            Fabric,
            "network",
            public_methods(Fabric, "_flush_epoch"),
            {"send": _count("network.sends")},
        ),
    )


# -- measurements -------------------------------------------------------


def peak_rss_mib() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Measurement:
    """What one benchmark invocation measured."""

    metrics: dict
    samples: dict
    checker: Checker


def measure(wl: Workload, seed: int, seconds: float) -> Measurement:
    """Untraced: the end-to-end metrics, as medians over the run's samples.

    A sample is a timed set-up, a timed run and one more timed set-up.
    Samples repeat until the next one would end after ``seconds``, and
    there are at least :data:`MIN_RUNS`.  The first set-up of a process
    pays one-time costs, imports and memory first taken from the system,
    that make it up to twice as slow as the rest; it is not timed.
    Short samples spread over the whole measuring time let the medians
    ride out the host's changes of speed, which last seconds to minutes.
    ``peak_rss_mib`` is read after the first run: later repeats in the
    same process add only allocator fragmentation, which varies from
    process to process.
    """
    checker = Checker(reference_for(wl, seed))
    setups, run_times = [], []
    setup(wl, seed)
    start = time.perf_counter()
    while True:
        gc.collect()
        s = setup(wl, seed)
        setups.append(s.seconds)
        stats, run_s = run(s)
        run_times.append(run_s)
        checker.check(s, stats, f"run {len(run_times) - 1}")
        del s, stats
        if len(run_times) == 1:
            rss = peak_rss_mib()
        gc.collect()
        setups.append(setup(wl, seed).seconds)
        done = len(run_times)
        elapsed = time.perf_counter() - start
        # Stop when one more sample of the mean length would overrun.
        if done >= MIN_RUNS and elapsed + elapsed / done > seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(run_times),
        "peak_rss_mib": rss,
    }
    return Measurement(metrics, {"setup_s": len(setups), "run_s": len(run_times)}, checker)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_traced(wl: Workload, seed: int) -> Measurement:
    """One untraced and one traced run: the per-layer metrics."""
    checker = Checker(reference_for(wl, seed))
    gc.collect()
    plain = setup(wl, seed)
    stats, plain_s = run(plain)
    checker.check(plain, stats, "untraced run")
    del plain, stats
    gc.collect()
    tracer = LayerTracer()
    tracer.calibrate()
    with tracer.installed(layer_targets()):
        s = setup(wl, seed)
        # Count the run only: the set-up phases are timed on their own.
        tracer.reset()
        stats, traced_s = run(s, tracer)
    checker.check(s, stats, "traced run")
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    events = stats.events_processed
    sends = counts["network.sends"]
    build = {"hicma": 0.0, "workloads": 0.0, wl.build_layer: s.phases["build"]}
    metrics = {
        "hicma.build_s": build["hicma"],
        "workloads.build_s": build["workloads"],
        "taskpool.validate_s": s.phases["validate"],
        "taskpool.tasks": s.graph.num_tasks,
        "taskpool.flows": s.graph.num_flows,
        "context.init_s": s.phases["init"],
        "sim.events": events,
        "sim.us_per_event": _ratio(self_s["sim"], events) * 1e6,
        "sim.self_s": self_s["sim"],
        "runtime.self_s": self_s["runtime"],
        "runtime.progress_calls": counts["runtime.progress_calls"],
        "runtime.progress_useful": _ratio(
            counts["runtime.progress_useful"], counts["runtime.progress_calls"]
        ),
        "runtime.send_am_calls": counts["runtime.send_am_calls"],
        "runtime.put_calls": counts["runtime.put_calls"],
        "runtime.activates_sent": stats.activates_sent,
        "lci.self_s": self_s["lci"],
        "lci.calls": calls["lci"],
        "lci.progress_calls": counts["lci.progress_calls"],
        "lci.progress_useful": _ratio(
            counts["lci.progress_useful"], counts["lci.progress_calls"]
        ),
        "lci.retries": counts["lci.retries"],
        "mpi.self_s": self_s["mpi"],
        "mpi.calls": calls["mpi"],
        "mpi.testsome_calls": counts["mpi.testsome_calls"],
        "mpi.testsome_useful": _ratio(
            counts["mpi.testsome_useful"], counts["mpi.testsome_calls"]
        ),
        "mpi.unexpected_msgs": counts["mpi.unexpected_msgs"],
        "network.self_s": self_s["network"],
        "network.sends": sends,
        "network.wire_bytes": stats.wire_bytes,
        "network.us_per_send": _ratio(self_s["network"], sends) * 1e6,
        "trace.overhead": traced_s / plain_s,
        "fail_ratio": checker.failed / checker.attempted,
    }
    return Measurement(metrics, {"run_s": 2}, checker)
