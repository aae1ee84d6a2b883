#!/usr/bin/env python3
"""Kernel throughput: the pure-kernel micro loop.

Runs a typed-sleep loop on the DES kernel alone and reports its
events/second (min-of-N walls, i.e. best of ``--reps``).  Kernel changes
are checked for bit-identical results against the committed golden
fingerprint corpus (``tools/regen_golden.py``); this tool only times the
kernel.

Run as::

    python tools/bench_ab.py [--smoke] [--reps 3]

``--smoke`` shrinks the loop to a fraction of a second of wall time (used
by the test suite); the default size gives stable numbers for the
performance docs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def run_micro(total_events: int) -> dict:
    """Pure-kernel throughput: five processes doing typed sleeps."""
    from repro.sim import build_simulator

    sim = build_simulator()
    # total_events // 2 sleeps in all; each typed sleep is one kernel entry.
    per_proc = total_events // 10

    def proc():
        for _ in range(per_proc):
            yield 1e-6

    for _ in range(5):
        sim.process(proc())
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return {"events": sim.events_processed, "wall": wall}


def best_of(reps: int, fn, *args) -> dict:
    """Min-of-N walls: the least-noisy throughput estimate."""
    return min((fn(*args) for _ in range(reps)), key=lambda r: r["wall"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny size, one rep (a fraction of a second)")
    ap.add_argument("--reps", type=int, default=3,
                    help="repetitions per measurement (min-of-N)")
    args = ap.parse_args(argv)

    if args.smoke:
        micro_events, reps = 100_000, 1
    else:
        micro_events, reps = 2_000_000, args.reps

    micro = best_of(reps, run_micro, micro_events)
    print(
        f"micro  ({micro['events']:,} events, best of {reps}): "
        f"{micro['events'] / micro['wall']:,.0f} ev/s"
    )
    print("bench_ab OK: micro kernel loop timed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
