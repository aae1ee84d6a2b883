"""Tests for the ``repro.obs`` observability bus, instruments, and sinks."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.obs import (
    NULL_BUS,
    ChromeTraceSink,
    CsvSink,
    MemorySink,
    NullBus,
    ObsBus,
    memory_of,
)
from repro.obs.metrics import Counter, Histogram
from repro.sim.core import Simulator


class TestBus:
    def test_emit_stores_and_indexes(self):
        bus = ObsBus()
        bus.emit("a", 0, key="x", time=1.0)
        bus.emit("b", 1, key="x", time=2.0)
        bus.emit("a", 0, key="y", time=3.0)
        mem = bus.memory
        assert [e.kind for e in mem.events] == ["a", "b", "a"]
        assert [e.time for e in mem.by_kind("a")] == [1.0, 3.0]
        assert [e.kind for e in mem.by_key("x")] == ["a", "b"]
        assert sorted(mem.kinds) == ["a", "b"]

    def test_clock_stamping(self):
        sim = Simulator()
        bus = ObsBus()
        bus.bind_clock(sim)

        def proc():
            yield sim.timeout(2.5)
            bus.emit("tick", 0)

        sim.process(proc())
        sim.run()
        (evt,) = bus.memory.by_kind("tick")
        assert evt.time == pytest.approx(2.5)

    def test_span_emits_begin_end(self):
        bus = ObsBus()
        span = bus.span("work", 3, key="k", time=1.0)
        span.end(info="done", time=4.0)
        b, e = bus.memory.by_kind("work")
        assert (b.phase, e.phase) == ("B", "E")
        assert (b.time, e.time) == (1.0, 4.0)
        assert span.start == 1.0
        assert e.info == "done"

    def test_counters_cached_and_totalled(self):
        bus = ObsBus()
        c0 = bus.counter("hits", 0)
        c1 = bus.counter("hits", 1)
        assert bus.counter("hits", 0) is c0
        c0.inc()
        c0.inc(2)
        c1.inc(5)
        assert bus.counter_totals() == {"hits": 8}
        assert bus.counters()["hits[0]"] == 3

    def test_histogram_bins_and_summary(self):
        bus = ObsBus()
        h = bus.histogram("sizes")
        for v in (1, 1, 3, 1024):
            h.observe(v)
        s = bus.histogram_summaries()["sizes"]
        assert s["count"] == 4
        assert s["mean"] == pytest.approx((1 + 1 + 3 + 1024) / 4)

    def test_export_replays_memory(self):
        bus = ObsBus()
        bus.emit("a", 0, time=1.0)
        bus.emit("b", 1, time=2.0)
        sink = MemorySink()
        bus.export(sink)
        assert [e.kind for e in sink.events] == ["a", "b"]

    def test_unhashable_key_falls_back(self):
        bus = ObsBus()
        bus.emit("a", 0, key=["un", "hashable"], time=1.0)
        bus.emit("a", 0, key="ok", time=2.0)
        assert len(bus.memory.by_kind("a")) == 2
        assert [e.time for e in bus.memory.by_key(["un", "hashable"])] == [1.0]


class TestNullBus:
    def test_is_disabled_and_inert(self):
        assert isinstance(NULL_BUS, NullBus)
        assert NULL_BUS.enabled is False
        assert NULL_BUS.memory is None
        assert NULL_BUS.emit("k", 0, key=1, info=2) == 0.0
        NULL_BUS.counter("c", 0).inc()
        NULL_BUS.histogram("h").observe(5)
        span = NULL_BUS.span("s", 0)
        span.end()
        assert NULL_BUS.counter_totals() == {}

    def test_null_instruments_are_shared_singletons(self):
        assert NULL_BUS.counter("a", 0) is NULL_BUS.counter("b", 7)
        assert NULL_BUS.histogram("a") is NULL_BUS.histogram("b")

    def test_export_rejected(self):
        with pytest.raises(ValueError):
            NULL_BUS.export(MemorySink())


class TestChromeTraceSink:
    def _bus_with_events(self):
        bus = ObsBus()
        bus.emit("task_exec", 0, key=(0, 2), info=("gemm", 1e-3), time=0.5)
        span = bus.span("work", 1, time=1.0)
        span.end(time=2.0)
        return bus

    def test_json_round_trip(self):
        bus = self._bus_with_events()
        sink = ChromeTraceSink()
        bus.export(sink)
        doc = json.loads(sink.render())
        evs = doc["traceEvents"]
        assert len(evs) == 3
        for rec in evs:
            assert rec["ph"] in ("i", "B", "E", "C")
            assert isinstance(rec["ts"], float)
            assert isinstance(rec["pid"], int)

    def test_fields(self):
        bus = self._bus_with_events()
        sink = ChromeTraceSink()
        bus.export(sink)
        instant, begin, end = sink.records
        assert instant["ph"] == "i" and instant["s"] == "t"
        assert instant["ts"] == pytest.approx(0.5e6)  # microseconds
        assert instant["pid"] == 0
        assert instant["tid"] == 2  # second element of the (node, worker) key
        assert (begin["ph"], end["ph"]) == ("B", "E")
        assert begin["pid"] == end["pid"] == 1

    def test_write(self, tmp_path):
        bus = self._bus_with_events()
        sink = ChromeTraceSink()
        bus.export(sink)
        path = tmp_path / "trace.json"
        sink.write(str(path))
        assert json.loads(path.read_text())["traceEvents"]


class TestCsvSink:
    def test_matches_memory_row_for_row(self):
        bus = ObsBus()
        bus.emit("a", 0, key=(1, 2), info="x", time=1.0)
        bus.emit("b", 3, time=2.0, local_time=1.9)
        bus.emit("c", -1, time=3.0)
        sink = CsvSink()
        bus.export(sink)
        rows = list(csv.reader(io.StringIO(sink.render())))
        assert rows[0] == list(CsvSink.COLUMNS)
        assert len(rows) - 1 == len(bus.memory.events)
        for row, evt in zip(rows[1:], bus.memory.events):
            assert float(row[0]) == evt.time
            assert row[1] == evt.kind
            assert int(row[2]) == evt.node
            assert row[3] == ("" if evt.key is None else repr(evt.key))
            assert row[4] == ("" if evt.info is None else repr(evt.info))
            assert row[5] == evt.phase


class TestMemoryOf:
    def test_accepts_bus_sink_and_recorder(self):
        bus = ObsBus()
        bus.emit("a", 0, time=1.0)
        assert memory_of(bus) is bus.memory
        assert memory_of(bus.memory) is bus.memory
        assert len(memory_of(bus).by_kind("a")) == 1

    def test_rejects_indexless(self):
        with pytest.raises(ValueError):
            memory_of(object())


class TestInstruments:
    def test_counter(self):
        c = Counter("c", 2)
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_histogram_mean_and_zero_bin(self):
        h = Histogram("h")
        h.observe(0)
        h.observe(4)
        s = h.summary()
        assert s["count"] == 2
        assert h.mean == pytest.approx(2.0)
