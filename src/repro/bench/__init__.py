"""Benchmark workloads and the per-figure reproduction harness.

One module per benchmark family:

- :mod:`repro.bench.pingpong` — the task-based windowed ping-pong bandwidth
  benchmark of §6.2 (Fig. 2a/2b);
- :mod:`repro.bench.overlap` — the computation/communication overlap
  benchmark of §6.3 (Fig. 3), including the analytic Roofline / No-Overlap
  reference curves;
- :mod:`repro.bench.hicma_bench` — the HiCMA TLR Cholesky experiments of
  §6.4 (Fig. 4a/4b, Fig. 5a/5b, Table 2);
- :mod:`repro.bench.paper_data` — the paper's reported numbers (digitized
  anchor points) for paper-vs-measured comparison;
- :mod:`repro.bench.report` — comparison/rendering helpers.
"""

from repro.bench.pingpong import PingPongConfig, PingPongResult, run_pingpong_benchmark
from repro.bench.overlap import OverlapConfig, OverlapResult, run_overlap_benchmark
from repro.bench.hicma_bench import HicmaConfig, HicmaResult, run_hicma_benchmark
from repro.bench.report import Comparison

__all__ = [
    "PingPongConfig",
    "PingPongResult",
    "run_pingpong_benchmark",
    "OverlapConfig",
    "OverlapResult",
    "run_overlap_benchmark",
    "HicmaConfig",
    "HicmaResult",
    "run_hicma_benchmark",
    "Comparison",
]
