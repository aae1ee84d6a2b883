#!/usr/bin/env python3
"""Check (or, with ``--accept``, rewrite) the golden fingerprint corpus.

``tests/data/golden/fingerprints.json`` pins what the simulator computes.
It is the reference every kernel, protocol or API change is compared
against.  The corpus holds one entry per registered workload × backend
({mpi, lci}) × fault plan ({none, ``chaos``}), named
``workload/backend/plan``.  Each entry records:

- ``result_sha256``: SHA-256 of ``dataclasses.asdict`` of the typed
  ``Experiment(...).run()`` result.  Every workload runs at its default
  parameters except ``pingpong``/``overlap``/``hicma``, which run at
  their small explore-scale parameters.  ``result_makespan`` is that
  result's makespan in clear text;
- ``trace_sha256``: SHA-256 over every obs event ``(time, kind, node,
  key, info)`` of a ``ParsecContext(..., observability=True)`` run of the
  workload's task graph at its ``explore_params`` scale;
- the traced run's headline scalars in clear text (``makespan``,
  ``tasks``, ``events_processed``, ``wire_bytes``), so a mismatch names
  the field that moved.

Two more entries cover paths the grid never reaches:

- ``retry/hicma-lci``: HiCMA N=14,400, tile 1,200, 8 nodes of 8 cores on
  LCI with ``LciCosts(direct_slots=4)``.  The starved direct-slot pool
  drives the ``LCI_ERR_RETRY`` back-pressure path, and the entry records
  its retry counters.
- ``replay/schedule_pingpong``: the bundled explore schedule
  ``tests/data/schedule_pingpong.json`` replayed through its recorded
  decisions.

Run as::

    python tools/regen_golden.py [--check]   # default: exit 1 on mismatch
    python tools/regen_golden.py --accept    # rewrite, print what changed

``--accept`` is the only way to rewrite the file.  Log every accepted
regeneration in CHANGES.md with the reason the fingerprints moved.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

CORPUS = ROOT / "tests" / "data" / "golden" / "fingerprints.json"
SCHEDULE = ROOT / "tests" / "data" / "schedule_pingpong.json"

BACKENDS = ("mpi", "lci")
PLANS = ("none", "chaos")
#: Workloads whose default parameters are too slow for a tier-1 check;
#: their result run uses the explore-scale parameters instead.
SMALL_RESULT = ("pingpong", "overlap", "hicma")
#: Explore-scale runs use this many nodes unless the workload pins its own.
TRACE_NODES = 2
RETRY_KEY = "retry/hicma-lci"
REPLAY_KEY = "replay/schedule_pingpong"
RETRY_COUNTERS = ("lci.retry.sendd", "lci.retry.recvd")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def result_fingerprint(result) -> str:
    """SHA-256 of every field of a typed ``Experiment`` result."""
    doc = dataclasses.asdict(result)
    return _sha256(json.dumps(doc, sort_keys=True, default=repr))


def trace_fingerprint(ctx) -> str:
    """SHA-256 over every event the run emitted on its obs bus."""
    digest = hashlib.sha256()
    for ev in ctx.obs.memory.events:
        digest.update(
            repr((ev.time, ev.kind, ev.node, ev.key, ev.info)).encode()
        )
    return digest.hexdigest()


def traced_run(workload: str, backend: str, plan, params: dict,
               platform=None):
    """One observed run of ``workload``'s task graph, built like a chaos run.

    Returns ``(ctx, stats)``.  ``params`` overlays the workload's
    ``explore_params``.
    """
    from repro.config import scaled_platform
    from repro.runtime.context import ParsecContext
    from repro.workloads import get_workload

    spec = get_workload(workload)
    merged = {"num_nodes": TRACE_NODES, "seed": 0}
    merged.update(spec.explore_params)
    merged.update(params)
    config = spec.build_config(**merged)
    if platform is None:
        platform = scaled_platform(num_nodes=merged["num_nodes"],
                                   cores_per_node=4)
    graph = spec.build_graph(config, platform)
    ctx = ParsecContext(platform, backend=backend, seed=merged["seed"],
                        observability=True, faults=plan)
    stats = ctx.run(graph, until=36_000.0)
    return ctx, stats


def _headline(ctx, stats) -> dict:
    return {
        "trace_sha256": trace_fingerprint(ctx),
        "makespan": stats.makespan,
        "tasks": stats.tasks_executed,
        "events_processed": stats.events_processed,
        "wire_bytes": stats.wire_bytes,
    }


def grid_entry(workload: str, backend: str, plan_name: str) -> dict:
    """The corpus entry for one workload × backend × plan cell."""
    from repro.api import Experiment
    from repro.faults.plans import fault_plan
    from repro.workloads import get_workload

    plan = None if plan_name == "none" else fault_plan(plan_name)
    spec = get_workload(workload)
    params = dict(spec.explore_params) if workload in SMALL_RESULT else {}
    result = Experiment(workload=workload, backend=backend, faults=plan,
                        **params).run()
    entry = {
        "result_sha256": result_fingerprint(result),
        "result_makespan": result.makespan,
    }
    entry.update(_headline(*traced_run(workload, backend, plan, {})))
    return entry


def retry_entry() -> dict:
    """HiCMA on LCI with four direct slots: the ``LCI_ERR_RETRY`` path."""
    from repro.config import LciCosts, scaled_platform

    platform = dataclasses.replace(
        scaled_platform(num_nodes=8, cores_per_node=8),
        lci=LciCosts(direct_slots=4),
    )
    ctx, stats = traced_run(
        "hicma", "lci", None,
        {"matrix_size": 14_400, "tile_size": 1200, "num_nodes": 8},
        platform=platform,
    )
    entry = _headline(ctx, stats)
    for name in RETRY_COUNTERS:
        entry[name] = stats.obs_counters.get(name, 0)
    return entry


def replay_entry() -> dict:
    """Digest of the bundled explore schedule's replay record."""
    from repro.codec import canonical_json
    from repro.explore.explorer import replay_schedule

    _scenario, record = replay_schedule(SCHEDULE)
    return {
        "replay_sha256": _sha256(canonical_json(record)),
        "makespan": record["makespan"],
        "violations": len(record["violations"]),
    }


def entry_keys() -> list:
    """Every corpus entry name, in run order."""
    from repro.workloads import workload_names

    keys = [
        f"{workload}/{backend}/{plan}"
        for workload in workload_names()
        for backend in BACKENDS
        for plan in PLANS
    ]
    return keys + [RETRY_KEY, REPLAY_KEY]


def compute_entry(key: str) -> dict:
    """Run whatever ``key`` names and return its fresh corpus entry."""
    if key == RETRY_KEY:
        return retry_entry()
    if key == REPLAY_KEY:
        return replay_entry()
    workload, backend, plan = key.split("/")
    return grid_entry(workload, backend, plan)


def load_corpus(path: Path = CORPUS) -> dict:
    """The committed entries, keyed by name."""
    return json.loads(path.read_text())["entries"]


def diff_entries(old: dict, new: dict) -> list:
    """Human-readable lines naming every added, removed or moved field."""
    lines = []
    for key in sorted(set(old) | set(new)):
        if key not in old:
            lines.append(f"+ {key} (new entry)")
        elif key not in new:
            lines.append(f"- {key} (entry removed)")
        else:
            for name in sorted(set(old[key]) | set(new[key])):
                was, now = old[key].get(name), new[key].get(name)
                if was != now:
                    lines.append(f"~ {key}: {name} {was!r} -> {now!r}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare fresh fingerprints with the corpus "
                           "(the default)")
    mode.add_argument("--accept", action="store_true",
                      help="rewrite the corpus and print what changed")
    args = ap.parse_args(argv)

    fresh = {key: compute_entry(key) for key in entry_keys()}
    old = load_corpus() if CORPUS.exists() else {}
    changes = diff_entries(old, fresh)

    if args.accept:
        CORPUS.parent.mkdir(parents=True, exist_ok=True)
        CORPUS.write_text(
            json.dumps({"entries": fresh}, indent=1, sort_keys=True) + "\n"
        )
        for line in changes:
            print(line)
        print(f"regen_golden: wrote {len(fresh)} entries, "
              f"{len(changes)} change(s)")
        return 0

    for line in changes:
        print(line)
    if changes:
        print(f"regen_golden: FAIL, {len(changes)} mismatch(es) against "
              f"{CORPUS.relative_to(ROOT)}; rerun with --accept only if "
              f"the change is intended")
        return 1
    print(f"regen_golden OK: {len(fresh)} entries match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
