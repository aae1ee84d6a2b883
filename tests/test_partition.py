"""What survives the partitioned engine's removal, on the serial kernel.

The fabric still defers destination-NIC ejection to the end of each epoch
and replays it in canonical ``(inject, src, seq)`` order, so equal-timestamp
arrivals at one NIC never depend on which sender ran first; route-latency
invalidation still recomputes the same base latency; ``build_simulator``
is still the one warning-free kernel constructor.
"""

import math
import warnings

from repro.network.fabric import Fabric
from repro.network.message import MessageClass, WireMessage
from repro.sim import build_simulator
from repro.sim.core import Simulator


class TestRouteInvalidation:
    def test_invalidate_route_across_partition_boundary(self):
        # The fault engine's invalidate_route hook drops the cached base
        # latency of one route; with no fault plan installed the next
        # lookup must recompute exactly the same value.
        fab = Fabric(Simulator(), 4)
        before = fab.base_latency(1, 2)
        other = fab.base_latency(2, 1)
        fab.invalidate_route(1, 2)
        assert math.isnan(fab._lat_flat[1 * 4 + 2])
        assert fab.base_latency(1, 2) == before
        assert fab.base_latency(2, 1) == other


class TestBuildSimulatorShim:
    def test_factory_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sim = build_simulator()
        assert type(sim) is Simulator


class TestNicTieBreak:
    def _deliveries(self, send_order):
        """Send two same-timestamp wire messages into one NIC from two
        source ranks with equal route latency (in ``send_order``) and run
        the epoch flush; return ``{src: (deliver_time, handler_fire_time)}``."""
        sim = Simulator()
        fab = Fabric(sim, 4)
        fired = {}
        for node in range(4):
            fab.register_handler(
                node, "t", lambda msg: fired.__setitem__(msg.src, sim.now)
            )
        msgs = []
        for src in send_order:
            msg = WireMessage(
                src=src, dst=2, size=4096,
                msg_class=MessageClass.CONTROL, channel="t",
            )
            assert math.isnan(fab.send(msg))  # ejection is deferred
            msgs.append(msg)
        assert len({m.inject_time for m in msgs}) == 1  # a genuine tie
        sim.run()  # the epoch end runs Fabric._flush_epoch
        return {m.src: (m.deliver_time, fired[m.src]) for m in msgs}

    def test_equal_timestamp_ejection_order_is_canonical(self):
        # Destination-NIC ejection is order-sensitive (receiver
        # contention); the canonical (inject, src, seq) order must make
        # the outcome independent of which source's send() ran first.
        forward = self._deliveries([0, 1])
        assert forward[0][0] != forward[1][0]  # contention is real
        assert forward == self._deliveries([1, 0])
