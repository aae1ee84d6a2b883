"""Worker-occupancy timelines (ASCII Gantt) from execution traces.

With ``ParsecContext(..., observability=True)`` every task execution is emitted as a ``task_exec`` event keyed
``(node, worker)`` on the :mod:`repro.obs` bus.  This module turns those
into per-worker busy intervals and renders an ASCII timeline — the quickest
way to *see* whether a run is compute-bound (solid bars) or starved waiting
on communication (sparse bars), which is the paper's whole story in one
picture.  Functions accept the bus or its memory sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from repro.obs.sinks import memory_of

__all__ = ["Interval", "worker_intervals", "render_gantt", "occupancy"]


@dataclass(frozen=True)
class Interval:
    """One task execution on one worker."""

    start: float
    duration: float
    kind: str

    @property
    def end(self) -> float:
        """Completion time of the interval."""
        return self.start + self.duration


def worker_intervals(trace: Any) -> dict[tuple[int, int], list[Interval]]:
    """Group ``task_exec`` events into per-(node, worker) interval lists."""
    out: dict[tuple[int, int], list[Interval]] = {}
    for evt in memory_of(trace).by_kind("task_exec"):
        kind, duration = evt.info
        out.setdefault(evt.key, []).append(Interval(evt.time, duration, kind))
    for intervals in out.values():
        intervals.sort(key=lambda iv: iv.start)
    return out


def occupancy(
    intervals: Mapping[tuple[int, int], Sequence[Interval]],
    t_end: Optional[float] = None,
) -> dict[tuple[int, int], float]:
    """Busy fraction per worker over [0, t_end]."""
    if t_end is None:
        t_end = max(
            (iv.end for ivs in intervals.values() for iv in ivs), default=0.0
        )
    if t_end <= 0:
        return {k: 0.0 for k in intervals}
    return {
        key: min(1.0, sum(iv.duration for iv in ivs) / t_end)
        for key, ivs in intervals.items()
    }


def render_gantt(
    trace: Any,
    width: int = 72,
    t_end: Optional[float] = None,
    max_workers: int = 32,
) -> str:
    """Render per-worker busy timelines as ASCII bars.

    Each row is one worker; '#' marks time slices in which the worker was
    executing a task for at least half the slice, '.' lighter activity,
    ' ' idle.
    """
    intervals = worker_intervals(trace)
    if not intervals:
        return "(no task_exec trace events — run with observability=True)"
    if t_end is None:
        t_end = max(iv.end for ivs in intervals.values() for iv in ivs)
    if t_end <= 0:
        return "(empty timeline)"
    lines = [f"worker timeline, 0 .. {t_end:.6f} s  ('#' busy, '.' partial)"]
    occ = occupancy(intervals, t_end)
    for key in sorted(intervals)[:max_workers]:
        node, wid = key
        slices = [0.0] * width
        for iv in intervals[key]:
            lo = iv.start / t_end * width
            hi = iv.end / t_end * width
            for s in range(int(lo), min(int(hi) + 1, width)):
                overlap = min(hi, s + 1) - max(lo, s)
                if overlap > 0:
                    slices[s] += overlap
        bar = "".join(
            "#" if f >= 0.5 else ("." if f > 0.05 else " ") for f in slices
        )
        lines.append(f"n{node:<3}w{wid:<3} |{bar}| {occ[key]:4.0%}")
    if len(intervals) > max_workers:
        lines.append(f"... ({len(intervals) - max_workers} more workers)")
    return "\n".join(lines)
