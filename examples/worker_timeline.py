#!/usr/bin/env python
"""Worker-occupancy timelines: *seeing* the communication bottleneck.

Runs the same small HiCMA TLR Cholesky under both backends with task
tracing enabled and renders per-worker ASCII Gantt charts.  Sparse bars =
workers starved waiting for data; the MPI backend's chart shows more white
space at communication-bound tile sizes.

Run:  python examples/worker_timeline.py
"""

from repro.analysis.gantt import occupancy, render_gantt, worker_intervals
from repro.config import scaled_platform
from repro.hicma import KernelTimeModel, RankModel, build_tlr_cholesky_graph
from repro.runtime import ParsecContext


def main() -> None:
    matrix, tile, nodes = 18_000, 450, 4
    nt = matrix // tile
    platform = scaled_platform(num_nodes=nodes, cores_per_node=4)
    for backend in ("mpi", "lci"):
        graph = build_tlr_cholesky_graph(
            nt,
            tile,
            num_nodes=nodes,
            rank_model=RankModel(nt, tile, maxrank=150),
            time_model=KernelTimeModel(platform.compute),
        )
        ctx = ParsecContext(platform, backend=backend, observability=True)
        stats = ctx.run(graph, until=600.0)
        print(f"\n=== {backend} backend: TTS {stats.makespan * 1e3:.1f} ms, "
              f"e2e latency {stats.mean_flow_latency * 1e3:.3f} ms ===")
        print(render_gantt(ctx.obs, width=68, max_workers=8))
        occ = occupancy(worker_intervals(ctx.obs))
        mean_occ = sum(occ.values()) / len(occ)
        print(f"mean worker occupancy: {mean_occ:.1%}")


if __name__ == "__main__":
    main()
