"""Tests for the simulated LCI library."""

import pytest

from repro.config import LciCosts
from repro.errors import LciError
from repro.lci import (
    LCI_ERR_RETRY,
    LCI_OK,
    CompletionQueue,
    CompletionRecord,
    LciWorld,
    Synchronizer,
)
from repro.network import Fabric
from repro.sim.core import Simulator
from repro.units import KiB, MiB


def make_world(n=2, costs=None):
    sim = Simulator()
    fabric = Fabric(sim, n)
    world = LciWorld(sim, fabric, costs)
    return sim, world


def progress_loop(sim, dev, stop):
    """Background progress thread: drains the device until `stop` is set."""

    def loop():
        while not stop():
            worked = yield from dev.progress()
            if not worked:
                idx_val = yield sim.any_of([dev.activity_event(), sim.timeout(1e-4)])
                del idx_val
        return None

    return sim.process(loop())


class TestImmediate:
    def test_sendi_delivers_to_handler(self):
        sim, world = make_world()
        d0, d1 = world.devices
        got = []

        def handler(rec):
            got.append((rec.peer, rec.tag, rec.payload))
            d1.free_rx_packet()

        d1.am_handler = handler

        def main():
            status = yield from d0.sendi(dst=1, tag=3, size=32, data="ping")
            assert status == LCI_OK
            # Drive receiver progress until the AM lands.
            while not got:
                yield from d1.progress()
                if not got:
                    yield d1.activity_event()
            return got[0]

        assert sim.run_process(main()) == (0, 3, "ping")

    def test_sendi_over_limit_raises(self):
        sim, world = make_world()

        def main():
            yield from world.devices[0].sendi(dst=1, tag=0, size=128)

        with pytest.raises(LciError, match="immediate limit"):
            sim.run_process(main())

    def test_am_without_handler_raises(self):
        sim, world = make_world()
        d0, d1 = world.devices

        def main():
            yield from d0.sendi(dst=1, tag=0, size=8)
            yield sim.timeout(1e-3)
            yield from d1.progress()

        with pytest.raises(LciError, match="no handler"):
            sim.run_process(main())


class TestBuffered:
    def test_sendb_roundtrip_with_completion(self):
        sim, world = make_world()
        d0, d1 = world.devices
        got = []
        d1.am_handler = lambda rec: (got.append(rec.payload), d1.free_rx_packet())
        sync = Synchronizer(sim)

        def main():
            status = yield from d0.sendb(dst=1, tag=5, size=4 * KiB, data="bulk", comp=sync)
            assert status == LCI_OK
            rec = yield from sync.wait()
            assert rec.op == "sendb"
            while not got:
                yield from d1.progress()
                if not got:
                    yield d1.activity_event()
            return got[0]

        assert sim.run_process(main()) == "bulk"

    def test_sendb_over_limit_raises(self):
        sim, world = make_world()

        def main():
            yield from world.devices[0].sendb(dst=1, tag=0, size=16 * KiB)

        with pytest.raises(LciError, match="buffered limit"):
            sim.run_process(main())

    def test_sendb_backpressure_retry(self):
        # Make CPU injection much faster than the wire so the pool drains.
        costs = LciCosts(packet_pool_size=2, buffered_send=1e-9, copy_per_byte=0.0)
        sim, world = make_world(costs=costs)
        d0 = world.devices[0]
        world.devices[1].am_handler = lambda rec: None

        def main():
            s1 = yield from d0.sendb(dst=1, tag=0, size=8 * KiB)
            s2 = yield from d0.sendb(dst=1, tag=0, size=8 * KiB)
            s3 = yield from d0.sendb(dst=1, tag=0, size=8 * KiB)
            return (s1, s2, s3)

        assert sim.run_process(main()) == (LCI_OK, LCI_OK, LCI_ERR_RETRY)

    def test_tx_packets_recycled(self):
        costs = LciCosts(packet_pool_size=1)
        sim, world = make_world(costs=costs)
        d0, d1 = world.devices
        d1.am_handler = lambda rec: d1.free_rx_packet()

        def main():
            ok = 0
            for _ in range(5):
                status = LCI_ERR_RETRY
                while status == LCI_ERR_RETRY:
                    status = yield from d0.sendb(dst=1, tag=0, size=8 * KiB)
                    if status == LCI_ERR_RETRY:
                        yield sim.timeout(1e-4)
                ok += 1
            return ok

        assert sim.run_process(main()) == 5

    def test_rx_pool_exhaustion_stalls_am_delivery(self):
        costs = LciCosts(packet_pool_size=1)
        sim, world = make_world(costs=costs)
        d0, d1 = world.devices
        got = []
        d1.am_handler = lambda rec: got.append(rec.payload)  # never frees

        def main():
            yield from d0.sendb(dst=1, tag=0, size=1 * KiB, data="a")
            # sender pool recycles after wire drain; send another
            yield sim.timeout(1e-3)
            yield from d0.sendb(dst=1, tag=0, size=1 * KiB, data="b")
            yield sim.timeout(1e-3)
            yield from d1.progress()
            yield from d1.progress()
            assert got == ["a"]  # second stalled: no RX packet
            d1.free_rx_packet()
            yield from d1.progress()
            return got

        assert sim.run_process(main()) == ["a", "b"]


class TestDirect:
    def run_transfer(self, size, n_pre_post=True):
        sim, world = make_world()
        d0, d1 = world.devices
        send_cq = CompletionQueue(sim)
        recv_cq = CompletionQueue(sim)
        stop = {"v": False}
        p0 = progress_loop(sim, d0, lambda: stop["v"])
        p1 = progress_loop(sim, d1, lambda: stop["v"])

        def main():
            status = yield from d1.recvd(src=0, tag=9, size=size, comp=recv_cq)
            assert status == LCI_OK
            status = yield from d0.sendd(dst=1, tag=9, size=size, data="payload", comp=send_cq)
            assert status == LCI_OK
            rrec = yield from recv_cq.pop()
            srec = yield from send_cq.pop()
            stop["v"] = True
            return (sim.now, srec, rrec)

        t, srec, rrec = sim.run_process(main())
        sim.run()
        assert p0.triggered and p1.triggered
        return sim, world, t, srec, rrec

    def test_rendezvous_transfer_completes_both_sides(self):
        _sim, world, t, srec, rrec = self.run_transfer(2 * MiB)
        assert srec.op == "sendd" and rrec.op == "recvd"
        assert rrec.payload == "payload"
        assert rrec.size == 2 * MiB
        # Time at least the line-rate transfer time.
        assert t > 2 * MiB / world.fabric.cfg.bandwidth

    def test_direct_slots_freed_after_completion(self):
        sim, world, *_ = self.run_transfer(1 * MiB)
        assert world.devices[0].send_slots_free == world.costs.direct_slots
        assert world.devices[1].recv_slots_free == world.costs.direct_slots

    def test_sendd_retry_when_slots_exhausted(self):
        costs = LciCosts(direct_slots=1)
        sim, world = make_world(costs=costs)
        d0 = world.devices[0]

        def main():
            s1 = yield from d0.sendd(dst=1, tag=0, size=1 * MiB)
            s2 = yield from d0.sendd(dst=1, tag=0, size=1 * MiB)
            return (s1, s2)

        assert sim.run_process(main()) == (LCI_OK, LCI_ERR_RETRY)

    def test_recvd_retry_when_slots_exhausted(self):
        costs = LciCosts(direct_slots=1)
        sim, world = make_world(costs=costs)
        d1 = world.devices[1]

        def main():
            s1 = yield from d1.recvd(src=0, tag=0, size=1 * MiB)
            s2 = yield from d1.recvd(src=0, tag=1, size=1 * MiB)
            return (s1, s2)

        assert sim.run_process(main()) == (LCI_OK, LCI_ERR_RETRY)

    def test_rts_before_recvd_is_matched_later(self):
        """Handshake racing ahead of the posted receive must still work."""
        sim, world = make_world()
        d0, d1 = world.devices
        sync = Synchronizer(sim)
        stop = {"v": False}
        progress_loop(sim, d0, lambda: stop["v"])
        progress_loop(sim, d1, lambda: stop["v"])

        def main():
            yield from d0.sendd(dst=1, tag=4, size=64 * KiB, data="late-post")
            yield sim.timeout(1e-3)  # RTS arrives; no receive posted yet
            yield from d1.recvd(src=0, tag=4, size=64 * KiB, comp=sync)
            rec = yield from sync.wait()
            stop["v"] = True
            return rec.payload

        assert sim.run_process(main()) == "late-post"
        sim.run()

    def test_recv_too_small_raises(self):
        sim, world = make_world()
        d0, d1 = world.devices

        def main():
            yield from d1.recvd(src=0, tag=4, size=1 * KiB)
            yield from d0.sendd(dst=1, tag=4, size=1 * MiB)
            yield sim.timeout(1e-3)
            yield from d1.progress()

        with pytest.raises(LciError, match="too small"):
            sim.run_process(main())


class TestCompletionMechanisms:
    def test_handler_completion(self):
        sim, world = make_world()
        d0, d1 = world.devices
        d1.am_handler = lambda rec: d1.free_rx_packet()
        calls = []

        def main():
            yield from d0.sendb(dst=1, tag=0, size=1 * KiB, comp=calls.append)
            yield sim.timeout(1e-3)
            return calls

        out = sim.run_process(main())
        assert len(out) == 1 and out[0].op == "sendb"

    @pytest.mark.parametrize("with_cq", [False, True])
    def test_sendb_builds_a_record_only_for_a_completion_target(self, monkeypatch, with_cq):
        import repro.lci.device as device_mod

        built = []

        class CountingRecord(CompletionRecord):
            __slots__ = ()

            def __init__(self, op, *args, **kwargs):
                built.append(op)
                super().__init__(op, *args, **kwargs)

        monkeypatch.setattr(device_mod, "CompletionRecord", CountingRecord)
        sim, world = make_world()
        d0, d1 = world.devices
        d1.am_handler = lambda rec: d1.free_rx_packet()
        cq = CompletionQueue(sim) if with_cq else None

        def main():
            status = yield from d0.sendb(dst=1, tag=5, size=1 * KiB, comp=cq, user_ctx="u")
            assert status == LCI_OK
            yield sim.timeout(1e-3)

        sim.run_process(main())
        assert d0.tx_packets_free == d0.costs.packet_pool_size
        if with_cq:
            rec = cq.try_pop()
            assert (rec.op, rec.peer, rec.tag, rec.size, rec.user_ctx) == ("sendb", 1, 5, 1 * KiB, "u")
            assert built == ["sendb"]
        else:
            assert built == []

    def test_pool_histograms_sample_only_with_an_enabled_bus(self):
        from repro.obs.bus import ObsBus

        bus = ObsBus()
        sim = Simulator(obs=bus)
        world = LciWorld(sim, Fabric(sim, 2))
        d0, d1 = world.devices
        d1.am_handler = lambda rec: d1.free_rx_packet()

        def main():
            yield from d0.sendb(dst=1, tag=0, size=1 * KiB)
            yield sim.timeout(1e-3)
            yield from d1.progress()

        sim.run_process(main())
        assert bus.histogram("lci.tx_pool_used", 0).count == 1
        assert bus.histogram("lci.rx_pool_used", 1).count == 1

    def test_record_fields_and_equality(self):
        rec = CompletionRecord("recvd", 3, 4, 5, "ctx", payload="data")
        assert (rec.op, rec.peer, rec.tag, rec.size, rec.user_ctx, rec.payload) == (
            "recvd", 3, 4, 5, "ctx", "data"
        )
        assert not hasattr(rec, "__dict__")
        assert rec == CompletionRecord("recvd", 3, 4, 5, "ctx", "data")
        assert rec != CompletionRecord("recvd", 3, 4, 5, "ctx")
        assert hash(rec) == hash(CompletionRecord("recvd", 3, 4, 5, "ctx", "data"))
        bare = CompletionRecord("am", 0, 1, 2)
        assert (bare.user_ctx, bare.payload) == (None, None)
        assert "op='am'" in repr(bare)

    def test_synchronizer_records_value(self):
        sim = Simulator()
        sync = Synchronizer(sim)
        rec = CompletionRecord("am", 1, 2, 3)
        sync.signal(rec)

        def main():
            got = yield from sync.wait()
            return got

        assert sim.run_process(main()) is rec
        assert sync.triggered

    def test_cq_try_pop(self):
        sim = Simulator()
        cq = CompletionQueue(sim)
        assert cq.try_pop() is None
        rec = CompletionRecord("am", 0, 0, 0)
        cq.push(rec)
        assert cq.try_pop() is rec

    def test_invalid_completion_target_raises(self):
        sim, world = make_world()
        d0 = world.devices[0]
        world.devices[1].am_handler = lambda rec: None

        def main():
            yield from d0.sendb(dst=1, tag=0, size=64, comp=42)
            yield sim.timeout(1e-3)

        with pytest.raises(LciError, match="unsupported completion"):
            sim.run_process(main())

    def test_free_without_alloc_raises(self):
        sim, world = make_world()
        with pytest.raises(LciError):
            world.devices[0].free_rx_packet()


class TestRxPacketDepletion:
    """§5.2 hardware receive-queue depletion: delivered AMs stall when the
    RX packet pool is empty and drain once a consumer frees a packet."""

    def test_am_queue_stalls_then_drains_after_free(self):
        from repro.obs import ObsBus
        from repro.sim.core import Simulator

        sim = Simulator()
        fabric = Fabric(sim, 2)
        bus = ObsBus()
        bus.bind_clock(sim)
        world = LciWorld(sim, fabric, LciCosts(packet_pool_size=2), obs=bus)
        d0, d1 = world.devices
        got = []
        # Handler hoards its buffer: nothing calls free_rx_packet yet.
        d1.am_handler = lambda rec: got.append(rec.payload)
        stalls = bus.counter("lci.rx_am_stalls", 1)

        def main():
            for i in range(4):
                status = yield from d0.sendi(dst=1, tag=0, size=16, data=i)
                assert status == LCI_OK
            yield sim.timeout(1e-3)  # let all four AMs arrive
            n = yield from d1.progress()
            # Pool of 2: two AMs consumed, two stalled in the RX queue.
            assert n == 2
            assert got == [0, 1]
            assert d1.rx_packets_free == 0
            assert len(d1._rx_am) == 2
            assert stalls.value == 1
            # Progressing again without freeing must not consume more.
            n = yield from d1.progress()
            assert n == 0
            assert stalls.value == 2
            # A consumer frees one packet: exactly one more AM drains.
            d1.free_rx_packet()
            n = yield from d1.progress()
            assert n == 1
            assert got == [0, 1, 2]
            assert stalls.value == 3
            # Free the rest: the queue empties and the stall counter stops.
            d1.free_rx_packet()
            d1.free_rx_packet()
            n = yield from d1.progress()
            assert n == 1
            assert got == [0, 1, 2, 3]
            assert not d1._rx_am
            assert stalls.value == 3

        sim.run_process(main())
