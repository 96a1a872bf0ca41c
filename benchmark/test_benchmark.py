"""Tests for the benchmark's tracer, layer table and workload configs.

Run with `python -m pytest benchmark` from the repository root; the
sketchlab tests need `src` on PYTHONPATH.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import sys
import time
import types
from pathlib import Path

import pytest

import child
import layers
import run
from tracer import Tracer, span_cost, summarize

ROOT = Path(__file__).resolve().parent.parent


def _ticks(*values: float):
    it = iter(values)
    return lambda: next(it)


@pytest.fixture
def fakepkg(monkeypatch):
    """`fakepkg.a` defines work(); `fakepkg.b` imports it by name."""
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def work(x):
        return x + 1

    a.work = work
    b.work = work
    b.call = lambda x: b.work(x)
    other = types.ModuleType("otherpkg")
    other.work = work
    for mod in (a, b, other):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return a, b, other, work


def test_nested_self_time_subtracts_children():
    tracer = Tracer(clock=_ticks(0.0, 1.0, 3.0, 3.5, 4.0, 10.0))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    # outer 0..10, inner 1..3 and 3.5..4
    summary = summarize(tracer.spans)
    assert summary["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 7.5}
    assert summary["inner"] == {"calls": 2, "total_s": 2.5, "self_s": 2.5}
    assert [s[1] for s in tracer.spans] == [-1, 0, 0]


def test_span_closes_when_the_function_raises():
    tracer = Tracer(clock=_ticks(0.0, 2.0, 5.0, 6.0))

    def fail():
        raise ValueError("boom")

    failing = tracer.wrap("fail", fail)
    with pytest.raises(ValueError):
        failing()
    after = tracer.wrap("after", lambda: None)
    after()
    assert tracer.spans == [["fail", -1, 0.0, 2.0, None], ["after", -1, 5.0, 6.0, None]]


def test_counts_are_summed_per_name():
    # each call reads the clock at start, end, and around its counter
    tracer = Tracer(clock=_ticks(*range(12)))
    double = tracer.wrap("double", lambda n: 2 * n, lambda args, out: {"in": args["n"], "out": out})
    for n in (1, 2, 3):
        double(n)
    assert summarize(tracer.spans)["double"]["in"] == 6
    assert summarize(tracer.spans)["double"]["out"] == 12
    assert tracer.count_s == 3


def test_span_cost_is_small_and_not_negative():
    assert 0 <= span_cost(time.perf_counter, calls=1000) < 1e-3


def test_patch_reaches_every_alias_in_the_package(fakepkg):
    a, b, other, work = fakepkg
    tracer = Tracer()
    traced = tracer.patch_function(a, "work", "a.work")
    assert a.work is traced and b.work is traced
    assert other.work is work, "modules outside the package stay untouched"
    assert b.call(1) == 2
    assert [s[0] for s in tracer.spans] == ["a.work"]


def test_restore_puts_originals_back(fakepkg):
    a, b, _, work = fakepkg

    class Box:
        def __init__(self, v):
            self.v = v

    init = Box.__init__
    with Tracer() as tracer:
        tracer.patch_function(a, "work", "a.work")
        tracer.patch_method(Box, "__init__", "Box")
        assert Box(3).v == 3
    assert a.work is work and b.work is work
    assert Box.__dict__["__init__"] is init
    assert [s[0] for s in tracer.spans] == ["Box"]


def test_layers_wrap_sketchlab_aliases_and_restore():
    pytest.importorskip("sketchlab")
    from sketchlab import cli, measure, streaming, transfer

    original = streaming.select_state_sequence
    init = measure.SparseMeasure.__init__
    with Tracer() as tracer:
        layers.install(tracer)
        assert transfer.select_state_sequence is streaming.select_state_sequence
        assert cli.select_state_sequence is streaming.select_state_sequence
        assert streaming.select_state_sequence is not original
        assert transfer.convolve_many_fft is measure.convolve_many_fft
        mu = measure.SparseMeasure.uniform([(0, 0), (1, 0), (1, 1)])
        measure.convolve(mu, mu)
    assert streaming.select_state_sequence is original
    assert transfer.select_state_sequence is original
    assert measure.SparseMeasure.__init__ is init
    summary = summarize(tracer.spans)
    assert summary["measure.convolve"]["ops"] == 4 * 4
    # the input and the convolution, which has six atoms
    assert summary["measure.SparseMeasure"]["calls"] == 2
    assert summary["measure.SparseMeasure"]["atoms"] == 3 + 6


def test_every_per_layer_metric_has_a_source():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        if not metric["name"].startswith("trace."):
            assert layers.layer_value({}, metric["name"]) == 0


def test_workload_configs_apply_every_override():
    desk = (ROOT / "configs" / "desk.cfg").read_text()
    text = run.workload_config(desk, "capped-norm", "mollified", 2)
    assert "M = 2" in text and "Q = 8" in text
    assert "scenario = capped-norm" in text and "route = mollified" in text
    with pytest.raises(run.BenchError):
        run.workload_config(desk.replace("M = 8", "M = 9"), "parity", "exact", 8)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_configs_match_run_suite(workload):
    pytest.importorskip("sketchlab")
    spec = importlib.util.spec_from_file_location("run_suite", ROOT / "scripts" / "run_suite.py")
    run_suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_suite)
    _, scenario, route, blocks = run.WORKLOADS[workload]
    path = run_suite.scenario_config(scenario, route, blocks)
    try:
        expected = path.read_text()
    finally:
        shutil.rmtree(path.parent)
    desk = (ROOT / "configs" / "desk.cfg").read_text()
    assert run.workload_config(desk, scenario, route, blocks) == expected


def test_sweep_gate_reads_the_table_of_a_failed_pass(tmp_path):
    rows = [
        {"kind": "kernel", "passed": True, "trend": "decreasing", "tv": 0.2},
        {"kind": "kernel", "passed": False, "trend": "decreasing", "tv": 0.7},
        {"kind": "reference", "passed": True, "trend": "decreasing", "tv": 0.9},
    ]
    (tmp_path / "tv_sweep.json").write_text(json.dumps({"rows": rows}))
    problems: list[str] = []
    assert child._gate_sweep(tmp_path, problems) == 0.7
    assert len(problems) == 1 and problems[0].startswith("kernel row failed")

    (tmp_path / "tv_sweep.json").write_text(json.dumps({"rows": rows[2:]}))
    problems = []
    assert child._gate_sweep(tmp_path, problems) == child.NO_CERTIFICATE_TV
    assert problems == ["no kernel rows"]
