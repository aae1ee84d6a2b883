"""Overhead guard: the disabled observability path must be free.

The tentpole requirement is that instrumenting every layer costs nothing
when observability is off — :data:`repro.obs.NULL_BUS` must not allocate
per event, runs must default to it, and results must be bit-identical with
the bus on or off.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.obs import NULL_BUS, ObsBus
from repro.runtime import ParsecContext, TaskGraph
from repro.config import scaled_platform
from repro.units import KiB

BACKENDS = ["mpi", "lci"]


def small_graph(num_nodes=2):
    g = TaskGraph()
    a = g.add_task(node=0, duration=10e-6, kind="A")
    f1 = g.add_flow(a, 64 * KiB)
    b = g.add_task(node=1, duration=10e-6, inputs=[f1], kind="B")
    f2 = g.add_flow(b, 64 * KiB)
    g.add_task(node=0, duration=10e-6, inputs=[f2], kind="C")
    return g


class TestNullPathAllocation:
    def test_no_per_event_allocation(self):
        """50k no-op emits/incs/observes must not allocate per call.

        A small constant slack absorbs interpreter noise (code objects,
        tracemalloc's own bookkeeping); anything per-event would show up as
        hundreds of KiB here.
        """
        bus = NULL_BUS
        counter = bus.counter("c", 0)
        histogram = bus.histogram("h", 0)
        # Warm up any lazy interpreter state outside the measured window.
        bus.emit("warm", 0, key=(0, 1), info="x")
        counter.inc()
        histogram.observe(1)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for i in range(50_000):
                bus.emit("k", 0)
                counter.inc()
                histogram.observe(i)
                bus.span("s", 0).end()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 16 * 1024, (
            f"disabled obs path allocated {after - before} bytes over 200k calls"
        )

    def test_null_emit_avoids_arg_construction(self):
        """Hot call sites guard with ``bus.enabled`` so the disabled path
        never even builds key/info tuples; the flag must be a plain False."""
        assert NULL_BUS.enabled is False
        assert ObsBus().enabled is True


@pytest.mark.parametrize("backend", BACKENDS)
class TestDisabledByDefault:
    def test_context_defaults_to_null_bus(self, backend):
        ctx = ParsecContext(scaled_platform(num_nodes=2), backend=backend)
        assert ctx.obs is NULL_BUS
        assert ctx.sim.obs is NULL_BUS
        assert ctx.fabric.obs is NULL_BUS
        for engine in ctx.engines:
            assert engine.obs is NULL_BUS

    def test_disabled_run_records_nothing(self, backend):
        ctx = ParsecContext(scaled_platform(num_nodes=2), backend=backend)
        stats = ctx.run(small_graph(), until=1.0)
        assert stats.tasks_executed == 3
        assert stats.obs_counters == {}


@pytest.mark.parametrize("backend", BACKENDS)
class TestObservabilityInvariance:
    def test_results_identical_on_and_off(self, backend):
        """The bus observes; it must not perturb the simulation."""
        runs = {}
        for obs_on in (False, True):
            ctx = ParsecContext(
                scaled_platform(num_nodes=2), backend=backend, observability=obs_on
            )
            stats = ctx.run(small_graph(), until=1.0)
            runs[obs_on] = stats
        assert runs[True].makespan == runs[False].makespan
        assert runs[True].tasks_executed == runs[False].tasks_executed
        assert runs[True].events_processed == runs[False].events_processed
        assert runs[True].flow_latencies == runs[False].flow_latencies
        assert runs[True].wire_bytes == runs[False].wire_bytes
        # And the observed run actually observed something.
        assert runs[True].obs_counters["net.wire_msgs"] > 0
        assert runs[True].obs_counters["parsec.am_sent"] > 0
