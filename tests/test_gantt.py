"""Tests for the worker-occupancy timeline (Gantt) analysis."""

import pytest

from repro.analysis.gantt import Interval, occupancy, render_gantt, worker_intervals
from repro.workloads.generators import chain, fan_out
from repro.config import scaled_platform
from repro.runtime import ParsecContext
from repro.obs import ObsBus


class TestIntervalExtraction:
    def test_manual_trace(self):
        bus = ObsBus()
        bus.emit("task_exec", 0, key=(0, 0), info=("potrf", 1.0), time=0.0)
        bus.emit("task_exec", 0, key=(0, 0), info=("gemm", 0.5), time=2.0)
        bus.emit("task_exec", 0, key=(0, 1), info=("trsm", 1.0), time=0.5)
        ivs = worker_intervals(bus)
        assert set(ivs) == {(0, 0), (0, 1)}
        assert [iv.kind for iv in ivs[(0, 0)]] == ["potrf", "gemm"]
        assert ivs[(0, 0)][1].end == 2.5

    def test_occupancy_fractions(self):
        ivs = {
            (0, 0): [Interval(0.0, 1.0, "a"), Interval(3.0, 1.0, "b")],
            (0, 1): [Interval(0.0, 4.0, "c")],
        }
        occ = occupancy(ivs, t_end=4.0)
        assert occ[(0, 0)] == pytest.approx(0.5)
        assert occ[(0, 1)] == pytest.approx(1.0)

    def test_empty_trace_message(self):
        assert "observability=True" in render_gantt(ObsBus())


class TestRenderFromRuns:
    def _run(self, graph, nodes=2):
        ctx = ParsecContext(
            scaled_platform(num_nodes=nodes, cores_per_node=2),
            backend="lci",
            observability=True,
        )
        ctx.run(graph, until=10.0)
        return ctx

    def test_chart_contains_all_workers(self):
        ctx = self._run(fan_out(consumers_per_node=4, num_nodes=2, duration=20e-6))
        out = render_gantt(ctx.obs)
        assert "n0" in out and "n1" in out
        assert "#" in out or "." in out
        assert "%" in out

    def test_chain_shows_alternating_idle(self):
        """A strict chain across two nodes keeps each node idle half the
        time — occupancy must reflect that."""
        ctx = self._run(chain(20, num_nodes=2, duration=50e-6))
        occ = occupancy(worker_intervals(ctx.obs))
        # One worker per node did all the work, alternating: < 75% busy.
        assert all(v < 0.75 for v in occ.values())

    def test_max_workers_truncation(self):
        ctx = self._run(fan_out(consumers_per_node=4, num_nodes=2, duration=20e-6))
        out = render_gantt(ctx.obs, max_workers=1)
        assert "more workers" in out
