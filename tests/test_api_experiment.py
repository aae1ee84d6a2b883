"""Tests for the Experiment API surface and its deprecation shims."""

import dataclasses

import pytest

import repro
from repro.errors import ConfigError

KiB = 1024
MiB = 1024 * 1024


class TestExperiment:
    def test_pingpong_run(self):
        result = repro.Experiment(
            workload="pingpong", backend="lci",
            fragment_size=256 * KiB, total_bytes=1 * MiB, iterations=3,
        ).run()
        assert isinstance(result, repro.PingPongResult)
        assert result.backend == "lci"
        assert result.bandwidth_gbit > 0
        assert "Gbit/s" in result.summary()

    def test_backend_enum_and_string_agree(self):
        kw = dict(workload="pingpong", fragment_size=256 * KiB,
                  total_bytes=1 * MiB, iterations=3)
        by_enum = repro.Experiment(backend=repro.BackendKind.MPI, **kw).run()
        by_str = repro.Experiment(backend="mpi", **kw).run()
        assert by_enum == by_str

    def test_results_are_frozen(self):
        result = repro.Experiment(
            workload="overlap", fragment_size=1 * MiB, total_bytes=4 * MiB,
        ).run()
        assert isinstance(result, repro.OverlapResult)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.flops_per_s = 0.0

    def test_hicma_nodes_and_seed(self):
        result = repro.Experiment(
            workload="hicma", nodes=2, seed=1,
            matrix_size=7200, tile_size=1200,
        ).run()
        assert isinstance(result, repro.HicmaResult)
        assert result.time_to_solution > 0
        assert result.tasks > 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            repro.Experiment(workload="fft")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            repro.Experiment(workload="pingpong", backend="tcp")

    def test_unknown_param_rejected_eagerly(self):
        with pytest.raises(ConfigError, match="does not accept"):
            repro.Experiment(workload="pingpong", fragmnet_size=1024)

    def test_named_fault_plan_accepted(self):
        from repro.config import FaultConfig

        exp = repro.Experiment(workload="pingpong", faults="drop",
                               fragment_size=256 * KiB)
        assert isinstance(exp.faults, FaultConfig)
