"""Tests for the reusable workload generators."""

import pytest

from repro.workloads.generators import (
    all_to_all_rounds,
    chain,
    fan_out,
    halo_exchange,
    random_layered_dag,
)
from repro.config import scaled_platform
from repro.errors import BenchmarkError
from repro.runtime import ParsecContext


class TestGenerators:
    def test_chain_structure(self):
        g = chain(10, num_nodes=2)
        g.validate(num_nodes=2)
        assert g.num_tasks == 10
        assert g.num_flows == 10
        assert len(g.source_tasks()) == 1

    def test_chain_rejects_empty(self):
        with pytest.raises(BenchmarkError):
            chain(0, 2)

    def test_fan_out_structure(self):
        g = fan_out(consumers_per_node=3, num_nodes=4)
        g.validate(num_nodes=4)
        assert g.num_tasks == 1 + 12
        flow = g.flows[0]
        assert len(flow.consumers) == 12

    def test_halo_exchange_structure(self):
        g = halo_exchange(num_nodes=4, steps=3, tiles_per_node=4)
        g.validate(num_nodes=4)
        assert g.num_tasks == 3 * 4 * 4
        # A middle-step boundary tile has 2 inputs (own state + halo).
        boundary_inputs = [
            len(t.inputs) for t in g.tasks.values() if t.kind == "step1"
        ]
        assert max(boundary_inputs) == 2

    def test_halo_needs_two_nodes(self):
        with pytest.raises(BenchmarkError):
            halo_exchange(num_nodes=1, steps=1)

    def test_random_dag_deterministic_by_seed(self):
        g1 = random_layered_dag([3, 4, 2], num_nodes=3, seed=7)
        g2 = random_layered_dag([3, 4, 2], num_nodes=3, seed=7)
        assert [t.node for t in g1.tasks.values()] == [
            t.node for t in g2.tasks.values()
        ]
        g3 = random_layered_dag([3, 4, 2], num_nodes=3, seed=8)
        assert g1.num_tasks == g3.num_tasks

    def test_random_dag_valid(self):
        g = random_layered_dag([4, 6, 6, 2], num_nodes=4, seed=1)
        g.validate(num_nodes=4)

    def test_all_to_all_structure(self):
        n, rounds = 4, 2
        g = all_to_all_rounds(n, rounds)
        g.validate(num_nodes=n)
        assert g.num_tasks == n * rounds + n  # producers + sinks


class TestGeneratorsRunOnRuntime:
    @pytest.mark.parametrize(
        "graph_fn",
        [
            lambda: chain(12, 2),
            lambda: fan_out(2, 4),
            lambda: halo_exchange(4, 3),
            lambda: random_layered_dag([3, 5, 3], 3, seed=3),
            lambda: all_to_all_rounds(3, 2),
        ],
        ids=["chain", "fanout", "halo", "random", "a2a"],
    )
    @pytest.mark.parametrize("backend", ["mpi", "lci"])
    def test_completes(self, graph_fn, backend):
        g = graph_fn()
        nodes = max(t.node for t in g.tasks.values()) + 1
        ctx = ParsecContext(
            scaled_platform(num_nodes=max(nodes, 2), cores_per_node=2),
            backend=backend,
        )
        stats = ctx.run(g, until=30.0)
        assert stats.tasks_executed == g.num_tasks
