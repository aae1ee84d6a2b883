"""Tests of the benchmark itself: it measures what users run, and its
tracing changes nothing.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bench
from layers import LayerTracer, Target, public_methods
from run import PINNED_ENV

from repro import Experiment
from repro.runtime.context import ParsecContext
from repro.sim.core import Interrupt, Simulator
from repro.workloads import get_workload

HERE = Path(__file__).resolve().parent

#: Each benchmark workload at a size that runs in about a second, and the
#: public ``Experiment`` call a user would make for it.
SMALL = {
    "hicma-lci": {"matrix_size": 7_200, "tile_size": 1_200, "num_nodes": 4},
    "hicma-mpi": {"matrix_size": 7_200, "tile_size": 1_200, "num_nodes": 4},
    "randomdag-lci": {"layers": 6, "width": 8, "fan_in": 3, "num_nodes": 4},
}


@pytest.fixture(autouse=True)
def _default_engine(monkeypatch):
    for name in PINNED_ENV:
        monkeypatch.delenv(name, raising=False)


def small(name: str) -> bench.Workload:
    return bench.WORKLOADS[name].with_params(**SMALL[name])


# -- the benchmark measures the program users run -----------------------


@pytest.mark.parametrize("name", sorted(SMALL))
def test_phase_split_matches_experiment(name):
    wl = small(name)
    s = bench.setup(wl, seed=3)
    stats, _ = bench.run(s)

    captured = []

    def observe(ctx):
        run = ctx.run

        def capture(*args, **kwargs):
            captured.append(run(*args, **kwargs))
            return captured[-1]

        ctx.run = capture

    params = dict(wl.params)
    nodes = params.pop("num_nodes")
    result = Experiment(
        workload=wl.spec, backend=wl.backend, nodes=nodes, seed=3, **params
    ).run(ctx_observer=observe)
    (user_stats,) = captured
    assert bench.fingerprint(stats) == bench.fingerprint(user_stats)
    assert (result.makespan, result.tasks) == (stats.makespan, stats.tasks_executed)
    assert result.wire_bytes == stats.wire_bytes


# -- the tracing wrappers are transparent -------------------------------


class Toy:
    def __init__(self):
        self.closed = False

    def echo(self):
        got = yield "first"
        try:
            yield got * 2
        except KeyError as exc:
            yield f"caught {exc.args[0]}"
        try:
            yield "last"
        finally:
            self.closed = True
        return "done"

    def count(self):
        yield 1
        yield 2
        return "done"

    def handler(self, x):
        # A plain function handing back a generator (like an LCI handler).
        return self.count() if x else x + 1


def test_generator_wrapper_forwards_send_throw_close_and_return():
    tracer = LayerTracer()
    with tracer.installed([Target(Toy, "toy", ("echo",))]):
        g = Toy().echo()
        assert next(g) == "first"
        assert g.send(3) == 6
        assert g.throw(KeyError("k")) == "caught k"
        assert next(g) == "last"
        with pytest.raises(StopIteration) as stop:
            next(g)
        assert stop.value.value == "done"

        toy = Toy()
        g = toy.echo()
        next(g)
        g.close()
        assert not toy.closed  # closed before the try: nothing to run

        toy = Toy()
        g = toy.echo()
        for value in (None, 1, None):
            g.send(value)
        g.close()
        assert toy.closed  # GeneratorExit reached the wrapped generator
    assert tracer.calls["toy"] == 3


def test_plain_method_returning_a_generator_is_spanned_and_probed():
    seen = []
    tracer = LayerTracer()
    probe = {"handler": lambda counts, result: seen.append(result)}
    with tracer.installed([Target(Toy, "toy", ("handler",), probe)]):
        assert Toy().handler(0) == 1
        g = Toy().handler(1)
        assert list(g) == [1, 2]
    assert seen == [1, "done"]


def test_interrupt_reaches_a_wrapped_simulated_thread():
    class Worker:
        def loop(self, log):
            try:
                while True:
                    yield 1.0
                    log.append("tick")
            except Interrupt as exc:
                log.append(exc.cause)
                return "stopped"

    log = []
    tracer = LayerTracer()
    with tracer.installed([Target(Worker, "w", ("loop",))]):
        sim = Simulator()
        proc = sim.process(Worker().loop(log))
        sim.call_later(2.5, proc.interrupt, "shutdown")
        sim.run()
    assert log == ["tick", "tick", "shutdown"]
    assert proc.value == "stopped"
    assert tracer.self_s["w"] > 0.0


class Outer:
    def call(self, inner):
        return inner.call()


class Inner:
    def call(self):
        return "x"


def nested_self_s(call_cost: float) -> dict:
    ticks = iter(range(100))
    tracer = LayerTracer(clock=lambda: float(next(ticks)))
    tracer.call_cost = call_cost
    with tracer.installed([Target(Outer, "outer", ("call",)),
                           Target(Inner, "inner", ("call",))]):
        with tracer.span("root"):
            Outer().call(Inner())
    return tracer.self_s


def test_spans_nest_into_self_time():
    # clock reads: root 0, outer 1, inner 2..3, outer ends 4, root ends 5.
    assert nested_self_s(0.0) == {"inner": 1.0, "outer": 2.0, "root": 2.0}


def test_calibrated_wrapper_cost_leaves_the_caller():
    assert nested_self_s(0.25) == {"inner": 1.0, "outer": 1.75, "root": 1.75}


def test_calibrate_measures_a_small_cost_and_leaves_nothing_behind():
    tracer = LayerTracer()
    tracer.calibrate(n=2_000, repeats=2)
    assert 0.0 <= tracer.call_cost < 1e-4
    assert 0.0 <= tracer.resume_cost < 1e-4
    assert not tracer.self_s and not tracer.calls and not tracer.counts


def snapshot(targets):
    return {(t.cls, n): vars(t.cls)[n] for t in targets for n in t.names}


def test_every_wrapped_class_is_restored_even_after_an_error():
    targets = bench.layer_targets()
    before = snapshot(targets)
    tracer = LayerTracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed(targets):
            assert snapshot(targets) != before
            1 / 0
    assert snapshot(targets) == before
    tracer.restore()  # idempotent
    assert snapshot(targets) == before


def test_public_methods_rejects_a_missing_entry_point():
    with pytest.raises(AttributeError):
        public_methods(Toy, "_no_such_method")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reproduces_untraced_and_restores(name):
    targets = bench.layer_targets()
    before = snapshot(targets)
    wl = small(name)
    first = bench.measure_traced(wl, seed=1)
    assert snapshot(targets) == before
    assert first.checker.attempted == 2
    assert first.checker.failed == 0, first.checker.problems
    m = first.metrics
    assert set(m) == {metric for metric, _ in bench.PER_LAYER}
    assert m["taskpool.tasks"] > 0 and m["sim.events"] > 0
    assert m["network.sends"] > 0 and m["runtime.progress_calls"] > 0
    other = "mpi" if wl.backend == "lci" else "lci"
    assert m[f"{wl.backend}.calls"] > 0
    assert m[f"{other}.calls"] == 0 and m[f"{other}.self_s"] == 0.0
    # An untraced run after the traced one still matches it.
    after = bench.measure(wl, seed=1, seconds=0)
    assert after.checker.failed == 0
    assert after.checker.first == first.checker.first
    second = bench.measure_traced(wl, seed=1)
    counts = [metric for metric, unit in bench.PER_LAYER if unit in ("count", "bytes")]
    assert {c: first.metrics[c] for c in counts} == {c: second.metrics[c] for c in counts}


def tight_lci_pools(cfg):
    """The hicma platform with LCI pools small enough to return
    ``LCI_ERR_RETRY`` (ignored by the MPI backend)."""
    platform = bench.WORKLOADS["hicma-lci"].platform(cfg)
    lci = dataclasses.replace(platform.lci, packet_pool_size=4, direct_slots=2)
    return dataclasses.replace(platform, lci=lci)


@pytest.mark.parametrize("name", ["hicma-lci", "hicma-mpi"])
def test_probe_counts_match_the_obs_counters(name):
    wl = dataclasses.replace(small(name), platform=tight_lci_pools)
    tracer = LayerTracer()
    with tracer.installed(bench.layer_targets()):
        s = bench.setup(wl, seed=0)
        tracer.reset()
        bench.run(s, tracer)
    spec = get_workload(wl.spec)
    cfg = spec.build_config(**wl.params, seed=0)
    platform = wl.platform(cfg)
    ctx = ParsecContext(platform, backend=wl.backend, observability=True,
                        **wl.ctx_kwargs(cfg))
    totals = ctx.run(spec.build_graph(cfg, platform), until=bench.UNTIL).obs_counters
    retries = sum(v for k, v in totals.items() if k.startswith("lci.retry."))
    unexpected = totals.get("mpi.unexpected_msgs", 0)
    assert (tracer.counts["lci.retries"], tracer.counts["mpi.unexpected_msgs"]) == (
        retries, unexpected)
    assert (retries if wl.backend == "lci" else unexpected) > 0


# -- the check counts failures instead of crashing ----------------------


def test_reference_mismatch_counts_as_a_failure():
    wl = small("randomdag-lci")
    s = bench.setup(wl, seed=2)
    stats, _ = bench.run(s)
    checker = bench.Checker(expected="0" * 64)
    checker.check(s, stats, "run 0")
    stats.tasks_executed -= 1
    checker.check(s, stats, "run 1")
    assert (checker.attempted, checker.failed) == (2, 2)
    assert "reference" in checker.problems[0]
    assert "tasks" in checker.problems[1] and "first run" in checker.problems[1]


def test_reference_applies_only_to_its_recorded_configuration():
    wl = bench.WORKLOADS["randomdag-lci"]
    assert bench.reference_for(wl, 0) is not None
    assert bench.reference_for(small("randomdag-lci"), 0) is None


# -- the definition and the command line --------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", PINNED_ENV)
def test_refuses_to_run_under_pinned_settings(name):
    env = {**os.environ, name: "1"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "randomdag-lci"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert name in proc.stderr
