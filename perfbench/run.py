#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload hicma-lci --seed 0 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics (medians over untraced runs);
``--trace 1`` prints the per-layer metrics of one traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric by name with its unit and sample count, and a run record (host
CPUs, Python version, code version, seed).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Settings that select another engine, another scale or injected faults;
#: the benchmark measures the defaults only and refuses to run under them.
PINNED_ENV = (
    "REPRO_SIM_CORE",
    "REPRO_SIM_PARTITIONS",
    "REPRO_PAPER_SCALE",
    "REPRO_HARNESS_CHAOS",
)


def code_version(root: Path = ROOT) -> str:
    """The commit checked out at ``root``, or ``unknown`` outside a git
    checkout (git does not look above ``root``)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    pinned = [name for name in PINNED_ENV if os.environ.get(name)]
    if pinned:
        print(f"error: unset {', '.join(pinned)}: the benchmark measures "
              "the serial kernel at the default scale without chaos", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import bench
    except ImportError as exc:
        print(f"error: cannot import the simulator from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    args = parse_args(argv, bench.WORKLOADS)
    wl = bench.WORKLOADS[args.workload]
    if args.trace:
        result = bench.measure_traced(wl, args.seed)
        units = bench.PER_LAYER
    else:
        result = bench.measure(wl, args.seed, args.seconds)
        units = bench.END_TO_END
    checker = result.checker
    for problem in checker.problems:
        print(f"check failed: {problem}")
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": code_version(),
        "samples": result.samples,
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(f"{checker.failed} of {checker.attempted} runs failed the check "
          f"(fail_ratio {checker.failed / checker.attempted:g})")
    for name, unit in units:
        n = result.samples.get(name)
        note = f"  (median of {n})" if n else ""
        print(f"{name:<26} {result.metrics[name]:>14.6g} {unit}{note}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit} for name, unit in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
