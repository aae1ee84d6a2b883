"""Run-progress heartbeats: wall-clock telemetry for long simulations.

At paper scale (N = 360,000 → ~575k tasks, tens of millions of kernel
events) a run is minutes of silence without feedback.  The
:class:`ProgressReporter` hooks the simulator's coarse run-loop tick
(:meth:`repro.sim.core.Simulator.set_tick`) and, at a bounded *wall-clock*
cadence, emits ``run_progress`` events on the observability bus and/or
prints a status line:

- tasks executed / total (and percent),
- simulated time reached,
- wall-clock elapsed and instantaneous kernel events/second,
- resident set size (``ru_maxrss``),
- a naive ETA extrapolated from the task completion rate.

Heartbeats carry *wall-clock* measurements, like the sweep engine's
``sweep_point`` events: they are observational only and never feed back
into the simulation, so enabling progress reporting cannot perturb results
(the tick callback treats the simulator as read-only).  A final beat is
always emitted from :meth:`finish`, so even sub-interval runs produce at
least one ``run_progress`` event.
"""

from __future__ import annotations

import sys
import time

__all__ = ["ProgressReporter", "peak_rss_bytes"]


def peak_rss_bytes() -> int:
    """Peak resident set size of this process in bytes (0 if unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return rss if sys.platform == "darwin" else rss * 1024


class ProgressReporter:
    """Periodic ``run_progress`` heartbeats for one context run.

    ``interval`` is the minimum wall-clock seconds between beats;
    ``every`` is how many kernel events elapse between cheap tick checks
    (the wall clock is only read every ``every`` events).  ``stream`` —
    e.g. ``sys.stderr`` — additionally prints a one-line status per beat;
    ``None`` (the default) emits on the bus only.
    """

    def __init__(
        self,
        *,
        interval: float = 1.0,
        every: int = 16384,
        stream=None,
    ):
        self.interval = interval
        self.every = every
        self.stream = stream
        self.beats = 0
        self._ctx = None
        self._t0 = 0.0
        self._last_wall = 0.0
        self._last_events = 0

    # -- wiring -----------------------------------------------------------

    def install(self, ctx) -> None:
        """Attach to ``ctx`` (a :class:`~repro.runtime.context.ParsecContext`)
        and start the simulator tick.  Called by ``ctx.run(progress=...)``."""
        self._ctx = ctx
        self._t0 = self._last_wall = time.perf_counter()
        self._last_events = ctx.sim.events_processed
        ctx.sim.set_tick(self._tick, every=self.every)

    def finish(self) -> None:
        """Detach the tick and emit the final heartbeat."""
        ctx = self._ctx
        if ctx is None:
            return
        ctx.sim.set_tick(None)
        self._beat(ctx.sim.events_processed, time.perf_counter())
        self._ctx = None

    # -- beats ------------------------------------------------------------

    def _tick(self, event_count: int) -> None:
        wall = time.perf_counter()
        if wall - self._last_wall < self.interval:
            return
        self._beat(event_count, wall)

    def _beat(self, event_count: int, wall: float) -> None:
        ctx = self._ctx
        elapsed = wall - self._t0
        window = wall - self._last_wall
        rate = (event_count - self._last_events) / window if window > 0 else 0.0
        self._last_wall = wall
        self._last_events = event_count
        done = ctx._executed
        total = ctx._total_tasks
        eta = elapsed * (total - done) / done if 0 < done < total else 0.0
        # After the stop condition the kernel drains to the time horizon;
        # report the makespan, not the horizon, once the run has stopped.
        sim_now = ctx._makespan if ctx.stopped else ctx.sim.now
        rss = peak_rss_bytes()
        info = {
            "tasks_done": done,
            "tasks_total": total,
            "sim_now": sim_now,
            "wall_elapsed": elapsed,
            "events_processed": event_count,
            "events_per_sec": rate,
            "rss_bytes": rss,
            "eta_seconds": eta,
        }
        self.beats += 1
        if ctx.obs.enabled:
            ctx.obs.emit("run_progress", -1, key=self.beats, info=info)
        if self.stream is not None:
            pct = 100.0 * done / total if total else 0.0
            print(
                f"[progress] {pct:5.1f}%  {done:,}/{total:,} tasks  "
                f"sim {sim_now:,.1f}s  wall {elapsed:,.1f}s  "
                f"{rate / 1e6:.2f}M ev/s  rss {rss / 2**30:.2f} GiB  "
                f"eta {eta:,.0f}s",
                file=self.stream,
                flush=True,
            )
