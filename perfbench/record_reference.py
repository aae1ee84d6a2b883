#!/usr/bin/env python3
"""Record the fingerprints the benchmark checks every run against.

Usage, from the repository root::

    python3 perfbench/record_reference.py

Runs every workload once per seed 0–9, untraced, and rewrites
``perfbench/reference.json``.  A fingerprint covers makespan, tasks,
kernel events, wire bytes and the flow-latency list, so re-record only for
a change that is meant to alter simulation results, and say so in that
change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402

SEEDS = range(10)


def main() -> int:
    reference = {}
    for name, wl in sorted(bench.WORKLOADS.items()):
        entry = {"backend": wl.backend, "params": wl.params, "fingerprints": {}}
        for seed in SEEDS:
            s = bench.setup(wl, seed)
            stats, seconds = bench.run(s)
            if stats.tasks_executed != s.graph.num_tasks:
                print(f"error: {name} seed {seed} executed {stats.tasks_executed} "
                      f"of {s.graph.num_tasks} tasks", file=sys.stderr)
                return 1
            entry["fingerprints"][str(seed)] = bench.fingerprint(stats)
            print(f"{name} seed {seed}: {entry['fingerprints'][str(seed)][:16]} "
                  f"({seconds:.1f} s)", flush=True)
        reference[name] = entry
    bench.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
