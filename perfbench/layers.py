"""Layer tracing from outside the program: wrap class methods, time spans.

:class:`LayerTracer` replaces methods of the simulator's layer classes
with thin wrappers for the duration of one traced run and puts the
originals back afterwards.  Nothing under ``src/`` changes.

- Each wrapped call is a span of its layer.  A generator method (a
  simulated thread, an engine ``progress`` pass, a library call the
  runtime ``yield from``-s) is one span per resume, so time the kernel
  spends between resumes is never charged to the layer.
- Spans nest on the Python call stack.  A layer's *self time* is its
  spans' duration minus the part covered by child spans.  Time inside the
  root span that no span covers belongs to the root's layer (the kernel).
- A wrapper's own work outside its clock reads would fall to the calling
  span.  :meth:`LayerTracer.calibrate` measures it, per call and per
  generator resume, and from then on each child span takes it out of its
  parent's self time, so the kernel is not charged for the wrappers.
- ``probe`` callbacks see each call's return value (a generator's value
  when it finishes) and bump named counts, e.g. useful progress passes.

The wrappers forward ``send``/``throw``/``close`` and return values
unchanged, so a traced run executes the same simulation as an untraced
one; the benchmark checks this by comparing result fingerprints.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from types import GeneratorType
from typing import Any, NamedTuple, Optional

__all__ = ["Target", "LayerTracer", "public_methods"]

Probe = Callable[[Counter, Any], None]


class Target(NamedTuple):
    """Wrap ``names`` of ``cls`` as spans of ``layer``; ``probes`` maps a
    method name to a callback run on its return value."""

    cls: type
    layer: str
    names: tuple
    probes: Optional[dict] = None


def public_methods(cls: type, *extra: str) -> tuple:
    """Names of the plain functions ``cls`` itself defines that do not
    start with ``_``, plus the private ``extra`` names (entry points the
    kernel or another layer calls directly)."""
    names = [
        name
        for name, value in vars(cls).items()
        if inspect.isfunction(value) and not name.startswith("_")
    ]
    for name in extra:
        if not inspect.isfunction(vars(cls).get(name)):
            raise AttributeError(f"{cls.__qualname__} defines no method {name!r}")
        names.append(name)
    return tuple(names)


class LayerTracer:
    """Per-layer self time, per-layer call counts and named counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: layer -> seconds inside the layer's spans, minus child spans.
        self.self_s: dict = defaultdict(float)
        #: layer -> wrapped calls into the layer.
        self.calls: Counter = Counter()
        #: probe name -> count (e.g. ``lci.progress_useful``).
        self.counts: Counter = Counter()
        #: Seconds one wrapped call / one generator resume costs its
        #: parent span outside the span's own clock reads (:meth:`calibrate`).
        self.call_cost = 0.0
        self.resume_cost = 0.0
        self._stack: list = []  # open spans: [layer, child seconds]
        self._saved: list = []  # (cls, name, original) to restore

    def reset(self) -> None:
        """Zero every accumulator; installed wrappers stay in place."""
        if self._stack:
            raise RuntimeError("cannot reset inside an open span")
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def calibrate(self, n: int = 20_000, repeats: int = 5) -> None:
        """Measure ``call_cost`` and ``resume_cost`` on this host.

        Each is the least, over ``repeats`` tries, of what ``n`` wrapped
        calls of an empty function (``n`` resumes of an empty generator)
        add to the enclosing span's self time over ``n`` unwrapped ones.
        Call it before :meth:`install`; it leaves every accumulator empty.
        """
        if self._stack or self._saved:
            raise RuntimeError("calibrate before install, outside any span")
        self.call_cost = self.resume_cost = 0.0

        def empty() -> None:
            return None

        def endless():
            while True:
                yield

        def calls(fn) -> None:
            for _ in range(n):
                fn()

        def resumes(gen) -> None:
            send = gen.send
            for _ in range(n):
                send(None)

        def extra(drive, plain, wrapped) -> float:
            clock = self.clock
            t0 = clock()
            drive(plain)
            bare = clock() - t0
            self.self_s.clear()
            with self.span("parent"):
                drive(wrapped)
            return (self.self_s["parent"] - bare) / n

        plain_gen, spanned_gen = endless(), self._wrap(endless, "child", None)()
        next(plain_gen)
        next(spanned_gen)
        wrapped = self._wrap(empty, "child", None)
        call_cost = min(extra(calls, empty, wrapped) for _ in range(repeats))
        resume_cost = min(extra(resumes, plain_gen, spanned_gen) for _ in range(repeats))
        plain_gen.close()
        spanned_gen.close()
        self.reset()
        self.call_cost, self.resume_cost = max(0.0, call_cost), max(0.0, resume_cost)

    # -- spans ---------------------------------------------------------

    def _close(self, frame: list, t0: float, cost: float = 0.0) -> None:
        dt = self.clock() - t0
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError("span stack out of order")
        self.self_s[frame[0]] += dt - frame[1]
        if stack:
            stack[-1][1] += dt + cost

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """An explicit span, e.g. the root span around a whole run."""
        frame = [layer, 0.0]
        self._stack.append(frame)
        t0 = self.clock()
        try:
            yield
        finally:
            self._close(frame, t0)

    def _spanned(self, gen, layer: str, probe: Optional[Probe]):
        """Drive ``gen`` one resume per span; forward everything else."""
        stack = self._stack
        clock = self.clock
        cost = self.resume_cost
        send = gen.send
        value: Any = None
        exc: Optional[BaseException] = None
        while True:
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                if exc is None:
                    out = send(value)
                else:
                    out, exc = gen.throw(exc), None
            except StopIteration as stop:
                self._close(frame, t0, cost)
                if probe is not None:
                    probe(self.counts, stop.value)
                return stop.value
            except BaseException:
                self._close(frame, t0, cost)
                raise
            self._close(frame, t0, cost)
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:
                exc, value = thrown, None

    def _wrap(self, fn: Callable, layer: str, probe: Optional[Probe]) -> Callable:
        tracer = self
        calls = self.calls
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_method(*args, **kwargs):
                calls[layer] += 1
                return tracer._spanned(fn(*args, **kwargs), layer, probe)

            return gen_method

        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def method(*args, **kwargs):
            calls[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, t0, tracer.call_cost)
            if type(result) is GeneratorType:
                # A plain function handing back a generator the caller
                # drives later (e.g. an LCI completion handler).
                return tracer._spanned(result, layer, probe)
            if probe is not None:
                probe(tracer.counts, result)
            return result

        return method

    # -- install / restore ---------------------------------------------

    def install(self, targets: Iterable[Target]) -> None:
        """Replace every target method with its spanning wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for target in targets:
                for name in target.names:
                    original = vars(target.cls)[name]
                    probe = (target.probes or {}).get(name)
                    wrapped = self._wrap(original, target.layer, probe)
                    self._saved.append((target.cls, name, original))
                    setattr(target.cls, name, wrapped)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original method back (safe to call twice)."""
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    @contextmanager
    def installed(self, targets: Iterable[Target]) -> Iterator["LayerTracer"]:
        """``install`` for the body of a ``with`` block, then ``restore``."""
        self.install(targets)
        try:
            yield self
        finally:
            self.restore()
