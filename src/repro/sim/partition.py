"""Conservative-synchronization partitioned parallel DES (PDES).

The serial kernel processes every event of a simulated cluster in one
process.  This module splits the simulated *nodes* across worker
processes: each worker owns a contiguous block of ranks (see
:func:`repro.network.fabric.partition_owner`), rebuilds the whole world
from the same job description — construction is passive, so only owned
nodes get threads and load — and drives its own
:class:`PartitionSimulator` through *windows* bounded by the LogGP link
latency ``L`` (the lookahead: no wire message can take effect sooner
than ``L`` after it was injected).

Synchronization runs in *batches* of up to :data:`WINDOW_BATCH` windows
per coordinator round-trip.  The coordinator grants every worker a
horizon ``H`` and a window quota over one pipe per worker; within the
batch the fleet self-synchronizes over pairwise worker pipes, and every
worker replays the same steps for each window:

1. Insert the pending deliveries and completion notices into the heap,
   then run the heap up to ``H``.  Deferred wire sends accumulate as
   :class:`~repro.network.fabric.WireRecord` entries.
2. Exchange outboxes with every peer and sort the concatenation by the
   canonical ``(inject, src, seq)`` total order — the same key the
   serial fabric's end-of-epoch flush replays.  Same-timestamp ties
   therefore resolve identically in both engines by construction,
   without any partition having to observe global execution order.
3. Eject the records whose destination this worker owns, in canonical
   order (:meth:`PartitionFabric.eject_delivery`), and convert ``_fin``
   payload hints into source-side completion notices (queued locally
   when the source is owned, sent to the owner otherwise).  Heap
   insertion is *deferred*: deliveries and fins are queued tagged with
   their originating send's global merge position and inserted at the
   next window in that order — the serial kernel schedules both at send
   time, so this replays its insertion order and resolves
   equal-fire-time ties identically.
4. Exchange next-event times and foreign notices.  Every worker computes
   the same next horizon ``H' = min(all next-event times ∪ all notice
   times) + L``; clamping by unapplied notice times is what makes
   reporting before application safe.

At the end of a batch each worker reports its window count, task count,
next horizon and whether the fleet is quiescent; the coordinator checks
that they agree and grants the next batch.

Safety: the earliest event in window ``k`` is exactly ``m = H_k − L``,
so any wire send in the window happens at ``t ≥ m`` and delivers at
``t + ≥L ≥ H_k`` — never in a worker's past.  Termination is global
quiescence (every heap empty, no records or notices in flight), after
which the coordinator verifies the summed task count and merges the
per-partition stats fragments into one :class:`~repro.runtime.context.
RunStats` whose floats match the serial kernel bit for bit (validated by
``tools/check_fault_determinism.py`` for partitions ∈ {1, 2, 4}).

Crash handling rides the supervision idioms of
:mod:`repro.supervise.pool`: a worker that dies (EOF) or stalls past the
heartbeat timeout is a *transient* failure — the coordinator kills the
fleet and retries the whole run (results are deterministic, so a retry
is indistinguishable from an undisturbed run).  Guard aborts
(:class:`~repro.errors.SupervisionError`) are re-raised without retry,
carrying the aborting worker's salvaged partial stats.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import (
    ConfigError,
    NetworkError,
    RuntimeBackendError,
    SupervisionError,
)
from repro.network.fabric import WIRE_MERGE_KEY, partition_owner
from repro.sim.core import Simulator

__all__ = [
    "PartitionRole",
    "PartitionSimulator",
    "lookahead_bound",
    "run_partitioned_graph",
]

#: Environment hook for crash testing: ``kill:<worker>:<window>`` makes
#: that worker SIGKILL itself at the start of that window — on the first
#: attempt only, so the supervised retry completes and the run result is
#: identical to an undisturbed one.
CHAOS_ENV = "REPRO_PARTITION_CHAOS"

#: Sync windows each worker runs per coordinator round-trip.  Wire
#: records and completion notices exchange directly between workers
#: inside a batch, so coordinator round-trips fall by about this factor.
WINDOW_BATCH = 64


@dataclass(frozen=True)
class PartitionRole:
    """This worker's place in a partitioned run.

    ``owner`` maps every node rank to its partition index; the context
    uses it to decide which nodes to load/thread and the fabric uses it
    to classify sends.
    """

    index: int
    partitions: int
    owner: tuple

    def __post_init__(self):
        if not 0 <= self.index < self.partitions:
            raise ConfigError(
                f"partition index {self.index} outside "
                f"[0, {self.partitions})"
            )


class PartitionSimulator(Simulator):
    """The DES kernel a partition worker drives window by window.

    Identical event semantics to the serial core (it *is* the core
    class) — the only addition is window bookkeeping, because the partition driver calls
    ``run(until=horizon)`` repeatedly instead of once.
    """

    def __init__(self, obs=None, policy=None):
        super().__init__(obs=obs, policy=policy)
        #: Windows completed so far (diagnostics; the driver increments).
        self.windows_run = 0


def lookahead_bound(fabric) -> float:
    """The conservative lookahead ``L``: the minimum base wire latency.

    Taken over *all* ordered node pairs — not just cross-partition ones —
    because every wire send (including intra-partition) defers to the
    barrier and must deliver no earlier than the window horizon.  A
    single-node fabric has no wire pairs and returns ``inf`` (windows
    then run to local exhaustion).
    """
    n = fabric.num_nodes
    best = math.inf
    for src in range(n):
        for dst in range(n):
            if src != dst:
                lat = fabric.base_latency(src, dst)
                if lat < best:
                    best = lat
    if n > 1 and not best > 0.0:
        raise NetworkError(
            f"non-positive minimum link latency {best!r}: conservative "
            f"partitioned execution needs strictly positive lookahead"
        )
    return best


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


def _chaos_window(wid: int, attempt: int) -> Optional[int]:
    """Window at which this worker should SIGKILL itself (chaos hook)."""
    spec = os.environ.get(CHAOS_ENV, "")
    if not spec or attempt != 0:
        return None
    try:
        action, target, window = spec.split(":")
        if action == "kill" and int(target) == wid:
            return int(window)
    except ValueError:
        pass
    return None


def _fin_call(ctx, channel: str, node: int, ref: int):
    """The ``(fn, args)`` applying one source-side completion notice."""
    if channel == "lci":
        device = ctx.lci_world.devices[node]
        return device._push_hw, (("fin", ref),)
    if channel == "mpi":
        rank = ctx.mpi_world.ranks[node]
        return rank._apply_fin, (ref,)
    raise RuntimeBackendError(f"unknown fin channel {channel!r}")


class _PeerLost(Exception):
    """A peer worker's pipe broke mid-exchange: the fleet is dying.

    The worker exits silently — its coordinator pipe closes, the
    coordinator sees EOF and treats the whole fleet as transiently dead
    (:class:`_WorkerDied`), exactly as when the peer's own pipe closes.
    """


def _exchange(peers, payload):
    """One all-to-all round over the pairwise worker pipes.

    ``peers`` is this worker's row of the fleet's pipe matrix (``None``
    at its own index, and ``None`` entirely for a single-worker fleet).
    Sends ``payload`` to every peer, then returns the per-partition
    payloads in partition-index order (own payload included) — every
    worker sees the identical list, which is what lets each one replay
    the same canonical merge the coordinator protocol computes
    centrally.  Writes complete before any read: exchange payloads are
    small (a window's records and completion notices), far below the
    pipe buffer, so the write fan-out cannot deadlock.
    """
    if peers is None:
        return [payload]
    for conn in peers:
        if conn is not None:
            try:
                conn.send(payload)
            except (BrokenPipeError, OSError):
                raise _PeerLost from None
    gathered = []
    for conn in peers:
        if conn is None:
            gathered.append(payload)
        else:
            try:
                gathered.append(conn.recv())
            except (EOFError, OSError):
                raise _PeerLost from None
    return gathered


def _worker_main(wid: int, job: dict, conn, peer_rows=None) -> None:
    """One partition worker: build the world, then serve barrier rounds."""
    ctx = None
    workers = 0
    try:
        peers = None
        if peer_rows is not None:
            # Own exactly one row of the fleet's pairwise-pipe matrix;
            # close every other inherited endpoint so a dead peer's pipe
            # reads EOF promptly instead of staying half-open here.
            peers = peer_rows[wid]
            for k, row in enumerate(peer_rows):
                if k == wid:
                    continue
                for c in row:
                    if c is not None:
                        c.close()

        from repro.runtime.context import ParsecContext

        role = PartitionRole(
            index=wid, partitions=job["partitions"], owner=job["owner"]
        )
        cfg, platform = job["cfg"], job["platform"]
        graph = job["builder"](cfg, platform)
        ctx = ParsecContext(
            platform,
            backend=job["backend"],
            partition_role=role,
            **job["ctx_kwargs"],
        )
        workers = ctx.partition_prepare(graph, guards=job["guards"])
        sim, fabric = ctx.sim, ctx.fabric
        lookahead = lookahead_bound(fabric)
        t_next = sim.next_event_time()
        if t_next == math.inf:
            # Premature local quiescence is how a crashed worker thread
            # presents; surface the real exception.
            ctx.partition_check_threads()
        conn.send(("ready", wid, lookahead, graph.num_tasks, t_next))
        if job.get("lookahead_override") is not None:
            # Same tightening the coordinator applies — both sides must
            # compute bit-identical horizons.
            lookahead = min(lookahead, job["lookahead_override"])
        chaos_at = _chaos_window(wid, job["attempt"])
        # Deferred heap insertions: ``(win, pos, sub, when, fn, args)``.
        # The serial kernel schedules a send's delivery handler and its
        # source-side completion *at send time*, so equal-fire-time ties
        # resolve by send order.  Replaying that order needs every
        # deferred insertion — delivery or fin, local or foreign — to
        # enter the heap sorted by the originating send's global merge
        # position (``sub`` keeps delivery-before-fin within one send).
        pending: list = []
        while True:
            msg = conn.recv()
            tag = msg[0]
            if tag == "batch":
                # Self-synchronized batch: run up to ``quota`` windows
                # exchanging records and completion notices directly
                # with peer workers — the coordinator is only contacted
                # once per batch (steps 1-4 of the module docstring).
                _, horizon, quota = msg
                done = 0
                quiescent = False
                while True:
                    pending.sort(key=lambda e: (e[0], e[1], e[2]))
                    for _, _, _, when, fn, args in pending:
                        sim.call_at(when, fn, *args)
                    pending.clear()
                    sim.windows_run += 1
                    if chaos_at is not None and sim.windows_run == chaos_at:
                        os.kill(os.getpid(), signal.SIGKILL)
                    if horizon is None:
                        sim.run()
                    else:
                        sim.run(until=horizon)
                    if sim._tick_fn is not None:
                        # Each run() call re-arms the kernel's in-loop
                        # tick counter, and a window rarely spans a full
                        # tick interval — so cross-window budgets (run
                        # guards) are enforced here, once per window.
                        sim._tick_fn(sim.events_processed)
                    done += 1
                    win = sim.windows_run
                    boxes = _exchange(peers, fabric.take_outbox())
                    records = [rec for box in boxes for rec in box]
                    records.sort(key=WIRE_MERGE_KEY)
                    out_fins = []
                    for pos, rec in enumerate(records):
                        if fabric.owner_of(rec.dst) != role.index:
                            continue
                        wire_msg, deliver, when, handler = (
                            fabric.eject_delivery(rec)
                        )
                        pending.append(
                            (win, pos, 0, when, handler, (wire_msg,))
                        )
                        payload = wire_msg.payload
                        fin = (
                            payload.get("_fin")
                            if isinstance(payload, dict)
                            else None
                        )
                        if fin is not None:
                            ref, extra = fin
                            fin_when = (
                                rec.inject + ((deliver - rec.inject) + extra)
                            )
                            if fabric.owner_of(rec.src) == role.index:
                                fn, args = _fin_call(
                                    ctx, rec.channel, rec.src, ref
                                )
                                pending.append(
                                    (win, pos, 1, fin_when, fn, args)
                                )
                            else:
                                out_fins.append(
                                    (fin_when, win, pos, rec.channel,
                                     rec.src, ref)
                                )
                    t_next = sim.next_event_time()
                    for entry in pending:
                        if entry[3] < t_next:
                            t_next = entry[3]
                    if t_next == math.inf:
                        ctx.partition_check_threads()
                    states = _exchange(peers, (t_next, out_fins))
                    lows = []
                    for peer_t, peer_fins in states:
                        lows.append(peer_t)
                        for notice in peer_fins:
                            # notice = (when, win, pos, channel, src, ref)
                            lows.append(notice[0])
                            if fabric.owner_of(notice[4]) == role.index:
                                fn, args = _fin_call(
                                    ctx, notice[3], notice[4], notice[5]
                                )
                                pending.append(
                                    (notice[1], notice[2], 1, notice[0],
                                     fn, args)
                                )
                    earliest = min(lows)
                    if earliest == math.inf:
                        quiescent = True
                        break
                    horizon = earliest + lookahead
                    if horizon == math.inf:
                        horizon = None  # single-node world
                    if done >= quota:
                        break
                conn.send(
                    ("batch-done", wid, done, ctx._executed, horizon,
                     quiescent)
                )
            elif tag == "stop":
                frag = ctx.partition_finalize(workers)
                conn.send(("fragment", wid, frag))
                return
            else:  # pragma: no cover - defensive
                raise RuntimeBackendError(
                    f"worker {wid}: unknown coordinator message {tag!r}"
                )
    except _PeerLost:
        # A peer died mid-exchange: exit without a report.  The closed
        # coordinator pipe (in ``finally``) reads as EOF there, which is
        # the transient-fleet-failure signal that triggers the retry.
        return
    except SupervisionError as exc:
        frag = None
        try:
            if ctx is not None:
                frag = ctx.partition_fragment(workers)
        except Exception:
            pass
        snapshot = exc.snapshot
        try:
            pickle.dumps(snapshot)
        except Exception:
            snapshot = {"repr": repr(snapshot)}
        try:
            conn.send(
                ("error", wid, "guard", type(exc).__name__, str(exc),
                 snapshot, frag)
            )
        except Exception:
            pass
    except BaseException:
        try:
            conn.send(
                ("error", wid, "fatal", "Exception",
                 traceback.format_exc(), None, None)
            )
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------


class _WorkerDied(Exception):
    """Transient fleet failure (crash/stall) — the whole run retries."""


class _Progress:
    """Coordinator-side aggregate progress lines (partitioned runs have
    no single in-process context for a reporter to install into).

    Beats are counted here *and* mirrored onto the wrapped reporter's
    ``beats`` attribute when it has one (e.g.
    :class:`repro.obs.progress.ProgressReporter`), so callers that
    gate on observed heartbeats see partitioned runs too.  ``final``
    always emits — every partitioned run records at least one beat.
    """

    def __init__(self, progress, total: int):
        self.enabled = bool(progress)
        self.interval = (
            getattr(progress, "interval", 1.0)
            if progress is not None and progress is not True
            else 1.0
        )
        self.total = total
        self.beats = 0
        self._reporter = progress if progress is not True else None
        self._last = time.monotonic()

    def _emit(self, sim_time: float, executed: int, windows: int) -> None:
        self.beats += 1
        if self._reporter is not None and hasattr(self._reporter, "beats"):
            self._reporter.beats += 1
        print(
            f"[partitioned] t={sim_time:.6f}s "
            f"tasks={executed}/{self.total} windows={windows}",
            file=sys.stderr,
            flush=True,
        )

    def tick(self, sim_time: float, executed: int, windows: int) -> None:
        if not self.enabled:
            return
        now = time.monotonic()
        if now - self._last < self.interval:
            return
        self._last = now
        self._emit(sim_time, executed, windows)

    def final(self, sim_time: float, executed: int, windows: int) -> None:
        """The end-of-run beat, emitted regardless of the interval."""
        if not self.enabled:
            return
        self._emit(sim_time, executed, windows)


def _merge_fragments(frags: list, backend: str, num_nodes: int):
    """Merge per-partition fragments into one serial-identical RunStats.

    Latency lists stable-merge by sample time (worker index breaks
    cross-partition ties); per-node busy times sum in global rank order.
    Both reproduce the serial kernel's float-addition order, which is
    what keeps downstream sums bit-identical.
    """
    from repro.runtime.context import RunStats

    frags = sorted(frags, key=lambda f: f["partition"])
    busy: dict = {}
    counters: dict = {}
    for f in frags:
        busy.update(f["busy"])
        for name, value in f["counters"].items():
            counters[name] = counters.get(name, 0) + value
    flow = [
        v
        for _, v in sorted(
            ((t, v) for f in frags for t, v in f["flow_lat"]),
            key=lambda pair: pair[0],
        )
    ]
    msgl = [
        v
        for _, v in sorted(
            ((t, v) for f in frags for t, v in f["msg_lat"]),
            key=lambda pair: pair[0],
        )
    ]
    return RunStats(
        backend=backend,
        num_nodes=num_nodes,
        workers_per_node=frags[0]["workers"] if frags else 0,
        makespan=max((f["last_task_t"] for f in frags), default=0.0),
        tasks_executed=sum(f["executed"] for f in frags),
        flow_latencies=flow,
        msg_latencies=msgl,
        activates_sent=sum(f["activates"] for f in frags),
        activations_aggregated=sum(f["aggregated"] for f in frags),
        wire_bytes=sum(f["wire_bytes"] for f in frags),
        events_processed=sum(f["events"] for f in frags),
        busy_time_total=sum(busy[rank] for rank in sorted(busy)),
        obs_counters=counters,
    )


def _raise_worker_error(msg: tuple, job: dict) -> None:
    """Re-raise a worker-reported failure on the coordinator."""
    _, wid, kind, cls_name, text, snapshot, frag = msg
    if kind == "guard":
        import repro.errors as errors_mod

        cls = getattr(errors_mod, cls_name, SupervisionError)
        exc = cls(f"partition worker {wid}: {text}")
        exc.snapshot = (
            snapshot if isinstance(snapshot, dict) else {"snapshot": snapshot}
        )
        if frag is not None:
            exc.partial = _merge_fragments(
                [frag], backend=job["backend"], num_nodes=job["num_nodes"]
            )
        raise exc
    raise RuntimeBackendError(f"partition worker {wid} failed:\n{text}")


def _attempt(job: dict, pcfg, progress, attempt: int):
    """One supervised attempt: spawn workers, run windows, merge stats."""
    P = pcfg.partitions
    methods = multiprocessing.get_all_start_methods()
    mp_ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )
    job = dict(job, attempt=attempt)
    conns: list = []
    procs: list = []
    peer_conns: list = []
    try:
        # Pairwise worker pipes for self-synchronized batches: one
        # duplex pipe per worker pair, built before any fork so every
        # child can close the endpoints it does not own (see
        # ``_worker_main`` — prompt EOF on peer death depends on it).
        peer_rows = None
        if P > 1:
            peer_rows = [[None] * P for _ in range(P)]
            for i in range(P):
                for j in range(i + 1, P):
                    a, b = mp_ctx.Pipe(True)
                    peer_rows[i][j] = a
                    peer_rows[j][i] = b
                    peer_conns.extend((a, b))
        for wid in range(P):
            parent, child = mp_ctx.Pipe()
            proc = mp_ctx.Process(
                target=_worker_main,
                args=(wid, job, child, peer_rows),
                daemon=True,
            )
            proc.start()
            child.close()
            conns.append(parent)
            procs.append(proc)
        for c in peer_conns:
            c.close()
        peer_conns = []

        heartbeat = pcfg.heartbeat_timeout

        def recv(wid: int):
            if not conns[wid].poll(heartbeat):
                raise _WorkerDied(
                    f"worker {wid} silent for {heartbeat:.0f}s "
                    f"(heartbeat timeout)"
                )
            try:
                msg = conns[wid].recv()
            except EOFError:
                raise _WorkerDied(
                    f"worker {wid} pipe closed (process crashed?)"
                ) from None
            if msg[0] == "error":
                _raise_worker_error(msg, job)
            return msg

        def recv_all(tag: str) -> list:
            """One message of kind ``tag`` from every worker, any order.

            Waits on all remaining pipes at once so a crashed worker's
            EOF surfaces promptly even while its peers block in a
            worker-to-worker exchange (they report nothing until the
            fleet is torn down).
            """
            got: dict = {}
            remaining = {wid: conns[wid] for wid in range(P)}
            while remaining:
                ready = multiprocessing.connection.wait(
                    list(remaining.values()), timeout=heartbeat
                )
                if not ready:
                    raise _WorkerDied(
                        f"fleet silent for {heartbeat:.0f}s "
                        f"(heartbeat timeout)"
                    )
                for rconn in ready:
                    wid = next(
                        w for w, c in remaining.items() if c is rconn
                    )
                    try:
                        msg = rconn.recv()
                    except EOFError:
                        raise _WorkerDied(
                            f"worker {wid} pipe closed (process crashed?)"
                        ) from None
                    if msg[0] == "error":
                        _raise_worker_error(msg, job)
                    if msg[0] != tag:  # pragma: no cover - defensive
                        raise RuntimeBackendError(
                            f"worker {wid}: expected {tag}, "
                            f"got {msg[0]!r}"
                        )
                    got[wid] = msg
                    del remaining[wid]
            return [got[wid] for wid in range(P)]

        # Bootstrap: every worker reports its lookahead bound, task count
        # and initial next-event time (the t=0 source tasks).
        bounds, totals, t_nexts = [], [], []
        for wid in range(P):
            msg = recv(wid)
            if msg[0] != "ready":  # pragma: no cover - defensive
                raise RuntimeBackendError(
                    f"worker {wid}: expected ready, got {msg[0]!r}"
                )
            bounds.append(msg[2])
            totals.append(msg[3])
            t_nexts.append(msg[4])
        if len(set(totals)) != 1:
            raise RuntimeBackendError(
                f"workers disagree on task count: {totals} — "
                f"non-deterministic graph builder?"
            )
        if len(set(bounds)) != 1:
            raise RuntimeBackendError(
                f"workers disagree on the lookahead bound: {bounds}"
            )
        total = totals[0]
        lookahead = bounds[0]
        if pcfg.lookahead is not None:
            # The override can only tighten: a lookahead beyond the
            # network bound would let a delivery land in a worker's past.
            lookahead = min(lookahead, pcfg.lookahead)

        reporter = _Progress(progress, total)
        executed = [0] * P
        windows = 0
        roundtrips = 1  # the bootstrap report
        last_t = 0.0
        # Grant each worker up to WINDOW_BATCH windows per round-trip;
        # the fleet self-synchronizes through the pairwise pipes (records
        # and notices never transit the coordinator) and reports back
        # once per batch with the jointly computed next horizon.
        earliest = min(t_nexts)
        if earliest != math.inf:
            horizon = earliest + lookahead
            if horizon == math.inf:
                horizon = None  # single-node world
            while True:
                for conn in conns:
                    conn.send(("batch", horizon, WINDOW_BATCH))
                roundtrips += 1
                reports = recv_all("batch-done")
                done = {msg[2] for msg in reports}
                horizons = {msg[4] for msg in reports}
                quiet = {msg[5] for msg in reports}
                if (
                    len(done) != 1
                    or len(horizons) != 1
                    or len(quiet) != 1
                ):  # pragma: no cover - defensive
                    raise RuntimeBackendError(
                        f"workers disagree on batch outcome: "
                        f"windows={sorted(done)} "
                        f"horizons={sorted(horizons, key=repr)} "
                        f"quiescent={sorted(quiet)}"
                    )
                windows += done.pop()
                executed = [msg[3] for msg in reports]
                next_h = horizons.pop()
                if next_h is not None:
                    last_t = next_h
                reporter.tick(last_t, sum(executed), windows)
                if quiet.pop():
                    break
                horizon = next_h

        if sum(executed) != total:
            raise RuntimeBackendError(
                f"partitioned run reached global quiescence with "
                f"{sum(executed)}/{total} tasks executed — cross-partition "
                f"deadlock or lost message"
            )
        reporter.final(last_t, sum(executed), windows)
        for conn in conns:
            conn.send(("stop",))
        frags = []
        for wid in range(P):
            msg = recv(wid)
            if msg[0] != "fragment":  # pragma: no cover - defensive
                raise RuntimeBackendError(
                    f"worker {wid}: expected fragment, got {msg[0]!r}"
                )
            frags.append(msg[2])
        stats = _merge_fragments(
            frags, backend=job["backend"], num_nodes=job["num_nodes"]
        )
        # Engine telemetry, deliberately NOT a RunStats field: the typed
        # result stays bit-comparable with serial runs (dataclasses.
        # asdict never sees it), while tooling that wants the sync-layer
        # numbers reads the attribute off the instance.
        stats.partition_sync = {
            "partitions": P,
            "window_batch": WINDOW_BATCH,
            "sync_windows": windows,
            "coordinator_roundtrips": roundtrips,
            "progress_beats": reporter.beats,
        }
        return stats
    finally:
        for conn in conns:
            try:
                conn.close()
            except Exception:
                pass
        for c in peer_conns:
            try:
                c.close()
            except Exception:
                pass
        for proc in procs:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5)


def run_partitioned_graph(
    builder,
    backend: str,
    cfg: Any,
    platform=None,
    partitions=None,
    *,
    faults=None,
    schedule_policy=None,
    ctx_observer=None,
    progress=None,
    guards=None,
    ctx_kwargs: Optional[dict] = None,
):
    """Execute ``builder(cfg, platform)`` as a partitioned PDES run.

    The partitioned twin of the serial path in
    :func:`repro.workloads.runner.run_graph_benchmark`: same builder,
    same platform defaulting, bit-identical
    :class:`~repro.runtime.context.RunStats` out, field for field —
    ``events_processed`` included, since the serial fabric now defers
    wire ejection to end of epoch and replays the same
    ``(inject, src, seq)`` order this engine's coordinator merge uses.

    ``partitions`` is an ``int`` or a :class:`~repro.config.
    PartitionConfig`; ``guards`` install per worker (budgets are
    per-partition); ``progress`` enables coordinator-side aggregate
    lines.  ``faults`` and ``ctx_observer`` are rejected — fault RNG
    draws follow global send order no worker observes, and there is no
    single in-process context to observe.  ``ctx_kwargs`` forwards extra
    :class:`~repro.runtime.context.ParsecContext` keywords (e.g.
    ``observability=True``) to every worker.
    """
    from repro.config import as_partition_config, scaled_platform
    from repro.runtime.comm_engine import BackoffPolicy

    pcfg = as_partition_config(partitions)
    if pcfg is None:
        raise ConfigError(
            "run_partitioned_graph requires partitions (an int >= 1 or a "
            "PartitionConfig)"
        )
    if faults is not None and getattr(faults, "enabled", False):
        raise ConfigError(
            "fault injection is not supported in partitioned runs (the "
            "fault RNG is consumed in global send order, which no "
            "partition worker observes); drop partitions or the fault plan"
        )
    if ctx_observer is not None:
        raise ConfigError(
            "ctx_observer is not supported in partitioned runs: the world "
            "is rebuilt inside each worker process, so there is no single "
            "context object to observe"
        )
    platform = platform or scaled_platform(num_nodes=cfg.num_nodes)
    num_nodes = platform.num_nodes
    owner = tuple(partition_owner(num_nodes, pcfg.partitions))
    kwargs = dict(ctx_kwargs or {})
    kwargs.setdefault("seed", getattr(cfg, "seed", 0))
    if schedule_policy is not None:
        kwargs["schedule_policy"] = schedule_policy
    job = {
        "builder": builder,
        "backend": backend,
        "cfg": cfg,
        "platform": platform,
        "partitions": pcfg.partitions,
        "owner": owner,
        "guards": guards,
        "ctx_kwargs": kwargs,
        "num_nodes": num_nodes,
        "lookahead_override": pcfg.lookahead,
        "attempt": 0,
    }
    backoff = BackoffPolicy(base=0.05, factor=2.0, max_delay=2.0)
    last_error: Optional[_WorkerDied] = None
    for attempt in range(pcfg.retries + 1):
        try:
            return _attempt(job, pcfg, progress, attempt)
        except _WorkerDied as exc:
            last_error = exc
            if attempt < pcfg.retries:
                time.sleep(backoff.delay(attempt + 1))
    raise RuntimeBackendError(
        f"partitioned run failed after {pcfg.retries + 1} attempt(s): "
        f"{last_error}"
    ) from last_error
