"""Aggregate sweep records into the paper's figure tables.

The sweep engine returns flat result records in spec order; the figure
harnesses and the CLI want them indexed the way each figure reads them —
``(backend, tile, mt)`` for the Fig. 4 tile scan, ``(backend, nodes,
tile)`` for the Fig. 5 node scan — and rendered as ASCII tables.  These
helpers do that aggregation without re-running anything, so a warm cache
regenerates every table with zero simulations.
"""

from __future__ import annotations

from repro.analysis.ascii_plot import ascii_table
from repro.errors import SweepError
from repro.sweep.engine import PointView, SweepOutcome
from repro.units import fmt_size, gbit_per_s

__all__ = [
    "index_hicma_results",
    "fig4_table",
    "fig5_table",
    "pingpong_table",
    "taskbench_table",
    "render_outcome",
]


def _hicma_index_key(point, by_nodes: bool):
    p = point.params
    if by_nodes:
        return (point.backend, p["num_nodes"], p["tile_size"])
    return (point.backend, p["tile_size"], bool(p.get("multithreaded_activate")))


def index_hicma_results(outcome: SweepOutcome, by_nodes: bool = False) -> dict:
    """Index HiCMA records the way the figure harnesses read them.

    ``by_nodes=False`` (Fig. 4): ``(backend, tile, mt) -> PointView``;
    ``by_nodes=True`` (Fig. 5): ``(backend, nodes, tile) -> PointView``.
    """
    out = {}
    for point, record in zip(outcome.spec.points, outcome.records):
        if point.kind != "hicma":
            raise SweepError(f"non-hicma point in hicma sweep: {point.label}")
        if record is None:
            continue
        out[_hicma_index_key(point, by_nodes)] = PointView(record)
    return out


def fig4_table(outcome: SweepOutcome) -> str:
    """The Fig. 4a tile-scan comparison table from sweep records."""
    res = index_hicma_results(outcome, by_nodes=False)
    tiles = sorted({t for (_b, t, mt) in res if not mt})
    rows = []
    for tile in tiles:
        mpi = res[("mpi", tile, False)].time_to_solution
        lci = res[("lci", tile, False)].time_to_solution
        rows.append(
            (tile, f"{mpi:.3f}", f"{lci:.3f}", f"{(mpi - lci) / mpi:+.1%}")
        )
    return ascii_table(
        ["tile", "MPI TTS (s)", "LCI TTS (s)", "LCI gain"],
        rows,
        title="Fig 4a: TLR Cholesky time-to-solution vs tile size",
    )


def fig5_table(outcome: SweepOutcome) -> str:
    """The Fig. 5a / Table 2 best-tile-per-node table from sweep records."""
    res = index_hicma_results(outcome, by_nodes=True)
    nodes = sorted({n for (_b, n, _t) in res})
    rows = []
    for n in nodes:
        row = [n]
        for backend in ("mpi", "lci"):
            tiles = [t for (b, nn, t) in res if b == backend and nn == n]
            best = min(tiles, key=lambda t: res[(backend, n, t)].time_to_solution)
            row += [best, f"{res[(backend, n, best)].time_to_solution:.3f}"]
        rows.append(tuple(row))
    return ascii_table(
        ["nodes", "MPI best tile", "MPI TTS (s)", "LCI best tile", "LCI TTS (s)"],
        rows,
        title="Fig 5a / Table 2: strong scaling, best tile per node count",
    )


def pingpong_table(outcome: SweepOutcome) -> str:
    """The Fig. 2a-style bandwidth table from ping-pong sweep records."""
    res = {}
    for point, record in zip(outcome.spec.points, outcome.records):
        if record is None:
            continue
        res[(point.backend, point.params["fragment_size"])] = record
    frags = sorted({f for (_b, f) in res})
    rows = []
    for frag in frags:
        row = [fmt_size(frag)]
        for backend in ("mpi", "lci"):
            rec = res.get((backend, frag))
            row.append(f"{gbit_per_s(rec['bandwidth']):.1f}" if rec else "-")
        rows.append(tuple(row))
    return ascii_table(
        ["fragment", "MPI Gbit/s", "LCI Gbit/s"],
        rows,
        title="ping-pong bandwidth sweep",
    )


def _scenario_label(point) -> str:
    """Compact per-point label for the taskbench table rows."""
    p = point.params
    if point.kind == "taskbench":
        return f"taskbench {p['pattern']} {p['width']}x{p['depth']}"
    if point.kind == "stencil":
        return f"stencil {p['grid']}x{p['grid']} s{p['steps']}"
    if point.kind == "forkjoin":
        return f"forkjoin f{p['fanout']} d{p['depth']}"
    keys = [k for k in sorted(p) if k not in ("seed", "num_nodes")][:2]
    return point.kind + " " + " ".join(f"{k}={p[k]}" for k in keys)


def taskbench_table(outcome: SweepOutcome) -> str:
    """The scenario-suite comparison table: makespan per point, MPI vs
    LCI side by side (the Task Bench-style rendering of the grid)."""
    res = {}
    for point, record in zip(outcome.spec.points, outcome.records):
        if record is None:
            continue
        res[(point.backend, _scenario_label(point))] = record
    labels = sorted({label for (_b, label) in res})
    rows = []
    for label in labels:
        row = [label]
        for backend in ("mpi", "lci"):
            rec = res.get((backend, label))
            row.append(f"{rec['makespan'] * 1e3:.3f}" if rec else "-")
        mpi, lci = res.get(("mpi", label)), res.get(("lci", label))
        if mpi and lci and mpi["makespan"] > 0:
            gain = (mpi["makespan"] - lci["makespan"]) / mpi["makespan"]
            row.append(f"{gain:+.1%}")
        else:
            row.append("-")
        rows.append(tuple(row))
    return ascii_table(
        ["scenario", "MPI ms", "LCI ms", "LCI gain"],
        rows,
        title="taskbench: scenario-suite makespan, MPI vs LCI",
    )


def render_outcome(outcome: SweepOutcome) -> str:
    """Dispatch to the right table renderer for a named grid."""
    renderers = {"fig4": fig4_table, "fig5": fig5_table,
                 "pingpong": pingpong_table, "taskbench": taskbench_table}
    renderer = renderers.get(outcome.spec.name)
    if renderer is None:
        raise SweepError(f"no table renderer for grid {outcome.spec.name!r}")
    return renderer(outcome)
