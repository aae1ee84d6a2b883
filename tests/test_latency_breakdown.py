"""Tests for per-flow latency-breakdown tracing and analysis."""

import pytest

from repro.analysis.latency import FlowBreakdown, breakdown, phase_summary
from repro.config import scaled_platform
from repro.runtime import ParsecContext, TaskGraph
from repro.obs import ObsBus
from repro.units import KiB, MiB


def run_traced(backend="lci", size=256 * KiB, n_flows=10, **ctx_kwargs):
    g = TaskGraph()
    for _ in range(n_flows):
        t = g.add_task(node=0, duration=2e-6)
        f = g.add_flow(t, size)
        g.add_task(node=1, duration=2e-6, inputs=[f])
    ctx = ParsecContext(
        scaled_platform(num_nodes=2, cores_per_node=4),
        backend=backend,
        observability=True,
        **ctx_kwargs,
    )
    stats = ctx.run(g, until=10.0)
    return ctx, stats


class TestBreakdownJoin:
    def test_manual_trace_join(self):
        bus = ObsBus()
        bus.emit("activate_handoff", 0, key=(1, 1), time=0.0)
        bus.emit("activate_cb", 1, key=(1, 1), time=1.0)
        bus.emit("getdata_cb", 0, key=(1, 1), time=3.0)
        bus.emit("data_arrival", 1, key=(1, 1), time=7.0)
        flows = breakdown(bus)
        assert len(flows) == 1
        f = flows[0]
        assert (f.activate, f.getdata, f.transfer) == (1.0, 2.0, 4.0)
        assert f.total == 7.0

    def test_incomplete_flows_skipped(self):
        bus = ObsBus()
        bus.emit("activate_handoff", 0, key=(1, 1), time=0.0)
        bus.emit("activate_cb", 1, key=(1, 1), time=1.0)
        assert breakdown(bus) == []

    def test_unrelated_kinds_ignored(self):
        bus = ObsBus()
        bus.emit("something_else", 0, key=(1, 1), time=0.0)
        assert breakdown(bus) == []


class TestPhaseSummary:
    def test_empty(self):
        assert phase_summary([]) == {}

    def test_shares_sum_to_one(self):
        flows = [
            FlowBreakdown(1, 1, 1.0, 2.0, 3.0),
            FlowBreakdown(2, 1, 2.0, 2.0, 2.0),
        ]
        s = phase_summary(flows)
        total_share = s["activate"]["share"] + s["getdata"]["share"] + s["transfer"]["share"]
        assert total_share == pytest.approx(1.0)
        assert s["total"]["mean"] == pytest.approx(6.0)


class TestRuntimeTracing:
    def test_traced_run_produces_complete_breakdowns(self):
        ctx, stats = run_traced()
        flows = breakdown(ctx.obs)
        assert len(flows) == 10
        for f in flows:
            assert f.activate > 0
            assert f.getdata > 0
            assert f.transfer > 0

    def test_breakdown_total_matches_e2e_latency(self):
        ctx, stats = run_traced()
        flows = breakdown(ctx.obs)
        mean_total = sum(f.total for f in flows) / len(flows)
        assert mean_total == pytest.approx(stats.mean_flow_latency, rel=0.05)

    def test_transfer_phase_dominates_for_large_flows(self):
        ctx, _ = run_traced(size=4 * MiB, n_flows=4)
        s = phase_summary(breakdown(ctx.obs))
        assert s["transfer"]["share"] > 0.5

    def test_tracing_disabled_by_default(self):
        g = TaskGraph()
        g.add_task(node=0, duration=1e-6)
        ctx = ParsecContext(scaled_platform(num_nodes=1, cores_per_node=2))
        ctx.run(g, until=1.0)
        assert not ctx.obs.enabled

    def test_mpi_vs_lci_phase_comparison(self):
        """The LCI backend's advantage shows up in the protocol phases that
        run on the comm/progress threads."""
        sums = {}
        for backend in ("mpi", "lci"):
            ctx, _ = run_traced(backend=backend, n_flows=30)
            sums[backend] = phase_summary(breakdown(ctx.obs))
        assert sums["lci"]["total"]["mean"] < sums["mpi"]["total"]["mean"]
