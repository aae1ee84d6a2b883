"""Tests for clocks/synchronisation, RNG streams, and tracing."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.obs import NULL_BUS, ObsBus
from repro.sim import ClockEnsemble, NodeClock, RngStreams, hunold_synchronize


class TestNodeClock:
    def test_identity_clock(self):
        clk = NodeClock()
        assert clk.local(10.0) == 10.0

    def test_offset_and_drift(self):
        clk = NodeClock(offset=0.5, drift=1e-3)
        assert clk.local(100.0) == pytest.approx(100.0 * 1.001 + 0.5)

    def test_roundtrip(self):
        clk = NodeClock(offset=-0.2, drift=5e-6)
        t = 123.456
        assert clk.to_global(clk.local(t)) == pytest.approx(t)


class TestClockEnsemble:
    def test_node0_is_reference(self):
        ens = ClockEnsemble(4, rng=np.random.default_rng(1))
        assert ens.clocks[0].offset == 0.0
        assert ens.clocks[0].drift == 0.0

    def test_offsets_within_spread(self):
        ens = ClockEnsemble(16, rng=np.random.default_rng(2), offset_spread=1e-3)
        for clk in ens.clocks[1:]:
            assert abs(clk.offset) <= 1e-3

    def test_needs_positive_size(self):
        with pytest.raises(SimulationError):
            ClockEnsemble(0)

    def test_synchronize_reduces_offset_error(self):
        ens = ClockEnsemble(8, rng=np.random.default_rng(3), offset_spread=5e-3)
        rtt = 3e-6
        ens.synchronize(global_time=0.0, rtt=rtt, rng=np.random.default_rng(4))
        # After sync, corrected timestamps should agree across nodes to within
        # a few RTTs (the estimator error), vs. milliseconds before.
        t = 1.0
        corrected = [ens.corrected(i, ens.local(i, t)) for i in range(8)]
        spread = max(corrected) - min(corrected)
        assert spread < 20 * rtt
        raw_spread = max(ens.local(i, t) for i in range(8)) - min(
            ens.local(i, t) for i in range(8)
        )
        assert spread < raw_spread / 50


class TestHunoldSynchronize:
    def test_perfect_clocks_yield_near_zero_offsets(self):
        # The estimator has inherent path-asymmetry noise of order rtt/2, so
        # "perfect" clocks still show sub-RTT residuals.
        rtt = 2e-6
        clocks = [NodeClock() for _ in range(6)]
        est = hunold_synchronize(clocks, 0.0, rtt=rtt, rng=np.random.default_rng(0))
        assert est == pytest.approx([0.0] * 6, abs=rtt / 2)

    def test_recovers_known_offsets(self):
        true_offsets = [0.0, 1e-3, -2e-3, 3e-3, 0.5e-3]
        clocks = [NodeClock(offset=o) for o in true_offsets]
        est = hunold_synchronize(clocks, 0.0, rtt=2e-6, rng=np.random.default_rng(5))
        for e, o in zip(est, true_offsets):
            assert e == pytest.approx(o, abs=1e-6)

    def test_rejects_bad_rtt(self):
        with pytest.raises(SimulationError):
            hunold_synchronize([NodeClock()], 0.0, rtt=0.0)

    def test_group_structure_covers_all_nodes(self):
        clocks = [NodeClock(offset=i * 1e-4) for i in range(10)]
        est = hunold_synchronize(
            clocks, 0.0, rtt=2e-6, group_size=3, rng=np.random.default_rng(6)
        )
        assert len(est) == 10
        for i, e in enumerate(est):
            assert e == pytest.approx(i * 1e-4, abs=1e-6)


class TestRngStreams:
    def test_same_name_same_stream_state(self):
        a = RngStreams(seed=7).get("net")
        b = RngStreams(seed=7).get("net")
        assert np.allclose(a.random(10), b.random(10))

    def test_different_names_independent(self):
        streams = RngStreams(seed=7)
        x = streams.get("net").random(10)
        y = streams.get("kernel").random(10)
        assert not np.allclose(x, y)

    def test_different_seeds_differ(self):
        x = RngStreams(seed=1).get("net").random(10)
        y = RngStreams(seed=2).get("net").random(10)
        assert not np.allclose(x, y)

    def test_get_is_cached(self):
        streams = RngStreams(seed=3)
        assert streams.get("a") is streams.get("a")

    def test_spawn_independent(self):
        parent = RngStreams(seed=9)
        child = parent.spawn("worker0")
        assert not np.allclose(parent.get("x").random(5), child.get("x").random(5))


class TestObsEventStore:
    def test_records_and_filters(self):
        bus = ObsBus()
        bus.emit("send", 0, key="m1", time=1.0)
        bus.emit("recv", 1, key="m1", time=2.0)
        bus.emit("send", 0, key="m2", time=3.0)
        mem = bus.memory
        assert len(mem) == 3
        assert [e.time for e in mem.by_kind("send")] == [1.0, 3.0]
        assert [e.kind for e in mem.by_key("m1")] == ["send", "recv"]

    def test_disabled_bus_is_noop(self):
        NULL_BUS.emit("send", 0, time=1.0)
        assert NULL_BUS.memory is None
        assert not NULL_BUS.enabled

    def test_clear(self):
        bus = ObsBus()
        bus.emit("x", 0, time=1.0)
        bus.memory.clear()
        assert len(bus.memory) == 0
        assert bus.memory.by_kind("x") == []

    def test_local_time_field(self):
        bus = ObsBus()
        bus.emit("send", 2, time=1.0, local_time=1.005)
        assert bus.memory.events[0].local_time == 1.005
