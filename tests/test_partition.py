"""Partitioned PDES engine: horizon algorithm, supervision, and the
unified ``partitions=`` API surface.

The full bit-identity matrix (every catalog workload, both backends,
partitions ∈ {1, 2, 4}) lives in ``tools/check_fault_determinism.py`` and
``tools/bench_ab.py``; here we cover the horizon algorithm's edge cases
(zero-latency self-channels, route invalidation across a partition
boundary), worker-death salvage, guard-abort parity, the
``build_simulator`` factory, the deterministic ``(inject, src, seq)`` NIC
tie-break, the NIC-collision workloads, and the batched sync-window
protocol (:data:`repro.sim.partition.WINDOW_BATCH` windows per
coordinator round-trip).
"""

import dataclasses
import math
import warnings

import pytest

from repro.api import Experiment
from repro.config import PartitionConfig, as_partition_config
from repro.errors import ConfigError, NetworkError, RunBudgetExceeded
from repro.network.fabric import Fabric, PartitionFabric, partition_owner
from repro.sim import build_simulator
from repro.sim.core import Simulator
from repro.sim.partition import (
    WINDOW_BATCH,
    PartitionSimulator,
    lookahead_bound,
)


class _StubFabric:
    """Minimal fabric: per-pair latencies, zero-latency self-channels."""

    def __init__(self, num_nodes, cross_latency):
        self.num_nodes = num_nodes
        self._cross = cross_latency

    def base_latency(self, src, dst):
        if src == dst:
            return 0.0
        return self._cross


class TestLookahead:
    def test_zero_latency_self_channels_do_not_collapse_lookahead(self):
        # Loopback is a zero-latency self-channel; the bound must come
        # from the cross-node pairs only, or every window would be empty.
        assert lookahead_bound(_StubFabric(4, 2e-6)) == 2e-6

    def test_single_node_fabric_has_infinite_lookahead(self):
        assert lookahead_bound(_StubFabric(1, 0.0)) == float("inf")

    def test_zero_cross_latency_is_rejected(self):
        # A zero-latency *wire* link would mean zero lookahead: the
        # conservative horizon could never advance.
        with pytest.raises(NetworkError):
            lookahead_bound(_StubFabric(2, 0.0))

    def test_real_fabric_bound_is_positive(self):
        fab = Fabric(Simulator(), 4)
        bound = lookahead_bound(fab)
        assert 0.0 < bound < float("inf")


class TestRouteInvalidation:
    def test_invalidate_route_across_partition_boundary(self):
        # owner = [0, 0, 1, 1]: route 1 -> 2 crosses the boundary.  The
        # fault engine's invalidate_route hook must recompute the same
        # latency (no fault plan installed), leaving the lookahead bound
        # the horizon algorithm derived intact.
        owner = partition_owner(4, 2)
        fab = PartitionFabric(
            Simulator(), 4, owner=owner, local_partition=0
        )
        assert fab.owner_of(1) != fab.owner_of(2)
        before = fab.base_latency(1, 2)
        bound = lookahead_bound(fab)
        fab.invalidate_route(1, 2)
        assert fab.base_latency(1, 2) == before
        assert lookahead_bound(fab) == bound

    def test_fault_engine_is_rejected_by_partition_fabric(self):
        # The layered ban: fault RNG draws follow global send order no
        # worker observes, so an enabled fault plan cannot ride a
        # partitioned fabric.
        from repro.faults.engine import FaultEngine
        from repro.faults.plans import fault_plan
        from repro.sim.rng import RngStreams

        sim = Simulator()
        engine = FaultEngine(fault_plan("chaos"), sim=sim,
                             rng=RngStreams(seed=0))
        with pytest.raises(NetworkError):
            PartitionFabric(
                sim, 4, faults=engine,
                owner=partition_owner(4, 2), local_partition=0,
            )

    def test_faulted_partitioned_run_is_rejected_eagerly(self):
        exp = Experiment(
            workload="ring", backend="lci", nodes=4,
            faults="chaos", partitions=2,
        )
        with pytest.raises(ConfigError):
            exp.run()


class TestSupervision:
    def test_sigkill_mid_run_is_salvaged(self, monkeypatch):
        # Worker 0 SIGKILLs itself at window 1 of the first attempt; the
        # supervised retry must complete with results identical to an
        # undisturbed partitioned run.
        kwargs = dict(workload="ring", backend="lci", nodes=4, steps=8)
        clean = Experiment(partitions=2, **kwargs).run()
        monkeypatch.setenv("REPRO_PARTITION_CHAOS", "kill:0:1")
        salvaged = Experiment(partitions=2, **kwargs).run()
        assert salvaged == clean

    def test_guard_abort_parity_serial_vs_partitioned(self):
        # Both engines must abort a guarded run structurally: a
        # RunBudgetExceeded carrying a diagnostic snapshot and salvaged
        # partial stats (budgets are per worker in the partitioned run).
        from repro.bench.hicma_bench import HicmaConfig, run_hicma_benchmark
        from repro.supervise import RunGuards

        cfg = HicmaConfig(matrix_size=2048, tile_size=256, num_nodes=4)

        def aborted(partitions):
            with pytest.raises(RunBudgetExceeded) as info:
                run_hicma_benchmark(
                    "lci", cfg,
                    guards=RunGuards(max_events=1000, check_every=256),
                    partitions=partitions,
                )
            return info.value
        serial = aborted(None)
        partitioned = aborted(2)
        for exc in (serial, partitioned):
            assert exc.snapshot and "reason" in exc.snapshot
            assert exc.partial is not None
            assert exc.partial.tasks_executed >= 0


class TestBuildSimulatorShim:
    def test_factory_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sim = build_simulator()
        assert isinstance(sim, Simulator)
        assert not isinstance(sim, PartitionSimulator)

    def test_factory_builds_partition_kernel(self):
        sim = build_simulator(PartitionConfig(partitions=2))
        assert isinstance(sim, PartitionSimulator)
        assert sim.windows_run == 0

    def test_factory_rejects_garbage(self):
        with pytest.raises(ConfigError):
            build_simulator("four")


class TestPartitionsApiSurface:
    def test_experiment_validates_partitions_eagerly(self):
        with pytest.raises(ConfigError):
            Experiment(workload="ring", partitions=0)
        with pytest.raises(ConfigError):
            Experiment(workload="ring", partitions="two")

    def test_as_partition_config_forms(self):
        assert as_partition_config(None) is None
        pcfg = as_partition_config(3)
        assert isinstance(pcfg, PartitionConfig) and pcfg.partitions == 3
        assert as_partition_config(pcfg) is pcfg
        with pytest.raises(ConfigError):
            as_partition_config(True)

    def test_partition_config_codec_roundtrip(self):
        pcfg = PartitionConfig(partitions=4, heartbeat_timeout=5.0)
        assert PartitionConfig.from_dict(pcfg.to_dict()) == pcfg

    def test_unsupported_workload_rejects_partitions(self):
        exp = Experiment(
            workload="pingpong", fragment_size=256 * 1024, partitions=2
        )
        with pytest.raises(ConfigError, match="does not support partitioned"):
            exp.run()

    def test_partitioned_matches_serial(self):
        kwargs = dict(workload="stencil", backend="mpi", nodes=4,
                      grid=4, steps=4)
        serial = dataclasses.asdict(Experiment(**kwargs).run())
        result = Experiment(partitions=2, **kwargs).run()
        # Full-record equality, events_processed included: both engines
        # schedule the identical kernel event set now that wire ejection
        # is deferred to end of epoch and replayed in (inject, src, seq)
        # order in either engine.
        assert dataclasses.asdict(result) == serial
        # The run crosses batch boundaries, and the coordinator is
        # contacted once per batch plus the bootstrap report.
        sync = result.partition_sync
        assert sync["window_batch"] == WINDOW_BATCH
        assert sync["sync_windows"] > WINDOW_BATCH
        assert sync["coordinator_roundtrips"] <= (
            math.ceil(sync["sync_windows"] / WINDOW_BATCH) + 1
        )

    @pytest.mark.parametrize("workload,partitions", [
        ("alltoall", 4),
        ("taskbench", 2),
        ("taskbench", 4),
    ])
    def test_collision_workloads_bit_identical_on_lci(
        self, workload, partitions
    ):
        # alltoall/taskbench pile many same-timestamp cross-partition
        # sends onto single destination NICs — the exact tie the
        # (inject, src, seq) ejection order exists to break.
        kwargs = dict(workload=workload, backend="lci", nodes=4, seed=3)
        serial = dataclasses.asdict(Experiment(**kwargs).run())
        part = dataclasses.asdict(
            Experiment(partitions=partitions, **kwargs).run()
        )
        assert part == serial


class TestWindowBatch:
    def test_batched_matches_classic_with_fewer_roundtrips(self):
        # The batched sync protocol must change only the transport
        # (pairwise worker pipes instead of coordinator round-trips),
        # never the simulation: full-record bit-identity with the serial
        # engine, and coordinator contact cut far below the classic
        # per-window protocol's cost of two round-trips per window.
        kwargs = dict(workload="stencil", backend="lci", nodes=4,
                      grid=4, steps=4)
        serial = Experiment(**kwargs).run()
        batched = Experiment(partitions=2, **kwargs).run()
        assert dataclasses.asdict(batched) == dataclasses.asdict(serial)
        sync = batched.partition_sync
        assert sync["window_batch"] == WINDOW_BATCH
        classic_roundtrips = 2 * sync["sync_windows"]
        assert sync["coordinator_roundtrips"] <= classic_roundtrips / 10

    def test_serial_result_has_no_sync_telemetry(self):
        result = Experiment(
            workload="ring", backend="lci", nodes=4, steps=8,
        ).run()
        assert not hasattr(result, "partition_sync")
        # And the telemetry never leaks into the comparable fingerprint.
        part = Experiment(
            workload="ring", backend="lci", nodes=4, steps=8, partitions=2,
        ).run()
        assert "partition_sync" not in dataclasses.asdict(part)


class TestNicTieBreak:
    def _deliveries(self, send_order):
        """Send two same-timestamp wire messages into one NIC from two
        source ranks (in ``send_order``), then eject in canonical order;
        return the per-source delivery times."""
        from repro.network.fabric import WIRE_MERGE_KEY
        from repro.network.message import MessageClass, WireMessage

        owner = partition_owner(4, 2)
        send_fab = PartitionFabric(
            Simulator(), 4, owner=owner, local_partition=0
        )
        recv_fab = PartitionFabric(
            Simulator(), 4, owner=owner, local_partition=1
        )
        for node in range(4):
            send_fab.register_handler(node, "t", lambda msg: None)
            recv_fab.register_handler(node, "t", lambda msg: None)
        for src in send_order:
            send_fab.send(WireMessage(
                src=src, dst=2, size=4096,
                msg_class=MessageClass.CONTROL, channel="t",
            ))
        records = sorted(send_fab.take_outbox(), key=WIRE_MERGE_KEY)
        assert [r.src for r in records] == sorted(send_order)
        assert len({r.inject for r in records}) == 1  # a genuine tie
        out = {}
        for rec in records:
            _msg, deliver, when, _handler = recv_fab.eject_delivery(rec)
            out[rec.src] = (deliver, when)
        return out

    def test_equal_timestamp_ejection_order_is_canonical(self):
        # Destination-NIC ejection is order-sensitive (receiver
        # contention); the canonical (inject, src, seq) order must make
        # the outcome independent of which source's send() ran first.
        assert self._deliveries([0, 1]) == self._deliveries([1, 0])
