#!/usr/bin/env python3
"""Kernel throughput, and the partitioned engine A/B against serial.

Two modes, both run on every invocation:

- **micro** — a pure-kernel typed-sleep loop; reports the kernel's
  events/second (min-of-N walls, i.e. best of ``--reps``).
- **partition** — a catalog workload run serially and under the
  partitioned PDES engine (``partitions`` ∈ {2, 4}); asserts the SHA-256
  fingerprint of the complete typed result — every field,
  ``events_processed`` included — is **bit-identical** per partition
  count, and reports min-of-N events/second for each engine.

A fingerprint divergence exits 1: the partitioned engine's contract is
"same results, more processes", and this harness is the enforcement.
Kernel changes are checked against the committed golden fingerprint
corpus instead (``tools/regen_golden.py``).

Run as::

    python tools/bench_ab.py [--smoke] [--reps 3] [--backend mpi|lci|both]

``--smoke`` shrinks both workloads to seconds of wall time (used by the
test suite); the default sizes give stable ratios for the performance
docs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from regen_golden import result_fingerprint  # noqa: E402


def run_micro(total_events: int) -> dict:
    """Pure-kernel throughput: five processes doing typed sleeps."""
    from repro.sim import build_simulator

    sim = build_simulator()
    per_proc = total_events // 10  # 2 events per sleep (schedule + fire)

    def proc():
        for _ in range(per_proc):
            yield 1e-6

    for _ in range(5):
        sim.process(proc())
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return {"events": sim.events_processed, "wall": wall}


def run_partition(backend: str, partitions, scale: dict) -> dict:
    """One catalog-workload run, serial or partitioned, fingerprinted."""
    from repro.api import Experiment

    t0 = time.perf_counter()
    result = Experiment(
        workload=scale["workload"], backend=backend, nodes=scale["nodes"],
        seed=3, partitions=partitions, **scale["params"],
    ).run()
    wall = time.perf_counter() - t0
    return {
        "fingerprint": result_fingerprint(result),
        "events": result.events_processed,
        "wall": wall,
    }


def best_of(reps: int, fn, *args) -> dict:
    """Min-of-N walls: the least-noisy throughput estimate."""
    return min((fn(*args) for _ in range(reps)), key=lambda r: r["wall"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one rep (seconds of wall time)")
    ap.add_argument("--reps", type=int, default=3,
                    help="repetitions per measurement (min-of-N)")
    ap.add_argument("--backend", choices=["mpi", "lci", "both"], default="both")
    args = ap.parse_args(argv)

    if args.smoke:
        micro_events, reps = 100_000, 1
        scale = {"workload": "stencil", "nodes": 4,
                 "params": {"grid": 4, "steps": 4}}
    else:
        micro_events, reps = 2_000_000, args.reps
        scale = {"workload": "stencil", "nodes": 4,
                 "params": {"grid": 16, "steps": 16}}
    backends = ["mpi", "lci"] if args.backend == "both" else [args.backend]

    micro = best_of(reps, run_micro, micro_events)
    print(
        f"micro  ({micro_events:,} events, best of {reps}): "
        f"{micro['events'] / micro['wall']:,.0f} ev/s"
    )

    failed = False
    run_partition(backends[0], None, scale)  # keep lazy imports out of timings
    for backend in backends:
        serial = best_of(reps, run_partition, backend, None, scale)
        line = f"serial {serial['events'] / serial['wall']:,.0f} ev/s"
        for count in (2, 4):
            part = best_of(reps, run_partition, backend, count, scale)
            if part["fingerprint"] != serial["fingerprint"]:
                failed = True
                print(
                    f"FAIL [{backend}] partitions={count}: result diverged "
                    f"from serial:\n"
                    f"  serial      {serial['fingerprint']}\n"
                    f"  partitioned {part['fingerprint']}"
                )
                continue
            line += f", P={count} {part['events'] / part['wall']:,.0f} ev/s"
        print(
            f"part   [{backend}] ({scale['workload']}, fingerprint "
            f"{serial['fingerprint'][:12]}..., best of {reps}): {line}"
        )

    if failed:
        return 1
    print("bench_ab OK: partitioned runs bit-identical to serial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
