"""Execution-invariance matrix: communication options never change *what*
executes — only when.

"Since the PaRSEC runtime core is unchanged, the task management overhead
must be identical, so differences in performance must be due to
communication management" (§6.2).  The same must hold in the reproduction:
across every backend / option combination, the same tasks run and the same
remote dataflows are delivered.
"""

import itertools

import pytest

from repro.workloads.generators import random_layered_dag
from repro.config import scaled_platform
from repro.runtime import ParsecContext


CONFIGS = [
    {"backend": "mpi"},
    {"backend": "mpi", "multithreaded_activate": True},
    {"backend": "mpi", "mpi_put_mode": "rma"},
    {"backend": "mpi", "scheduler": "ws"},
    {"backend": "lci"},
    {"backend": "lci", "multithreaded_activate": True},
    {"backend": "lci", "native_put": True},
    {"backend": "lci", "num_comm_threads": 2, "num_progress_threads": 2},
    {"backend": "lci", "scheduler": "ws"},
]


@pytest.fixture(scope="module")
def runs():
    out = {}
    for i, kwargs in enumerate(CONFIGS):
        g = random_layered_dag([4, 6, 6, 4], num_nodes=3, seed=11)
        ctx = ParsecContext(
            scaled_platform(num_nodes=3, cores_per_node=3), **kwargs
        )
        out[i] = (kwargs, ctx.run(g, until=30.0), g)
    return out


def test_all_configurations_complete(runs):
    for _i, (kwargs, stats, g) in runs.items():
        assert stats.tasks_executed == g.num_tasks, kwargs


def test_same_flow_delivery_counts(runs):
    counts = {
        i: len(stats.flow_latencies) for i, (_k, stats, _g) in runs.items()
    }
    assert len(set(counts.values())) == 1, counts


def test_same_task_totals_across_configs(runs):
    totals = {i: stats.tasks_executed for i, (_k, stats, _g) in runs.items()}
    assert len(set(totals.values())) == 1


def test_timings_differ_between_backends(runs):
    """Sanity that the matrix isn't vacuous: timing DOES vary."""
    makespans = {i: stats.makespan for i, (_k, stats, _g) in runs.items()}
    assert len(set(round(m, 9) for m in makespans.values())) > 1


def _first_ids():
    """The first MPI request id and LCI direct-op id a new world issues."""
    from repro.lci.device import LciWorld
    from repro.mpi.world import MpiWorld
    from repro.network.fabric import Fabric
    from repro.sim.core import Simulator

    sim = Simulator()
    fabric = Fabric(sim, 2)
    req = MpiWorld(sim, fabric).ranks[0].recv_init(1, 7, 64)
    device = LciWorld(sim, fabric).devices[0]
    sim.process(device.recvd(1, 7, 64))
    sim.run()
    (op_id,) = device._recv_ops
    return req.req_id, op_id


def test_fresh_world_ids_independent_of_earlier_runs(runs):
    # Request and op ids belong to their world: a world built after other
    # runs in this process hands out the same first ids as the first world
    # of a fresh process, (0, 0).
    from repro.api import Experiment

    for backend in ("mpi", "lci"):
        Experiment(workload="ring", backend=backend, nodes=2, steps=2).run()
    assert _first_ids() == (0, 0)
