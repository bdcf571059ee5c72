"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q

The layer-sum rule is checked on synthetic span trees (nested spans,
overlapping worker spans, client wait spans, spans crossing the window)
and on the spans a real forked harness worker sends back; deleting that
worker's spool file must trip the worker-span check.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from run import tail
from spans import Tracer, attribute, busy, layer_sum_error

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def span(sid, parent, layer, start, end, wait=False, pid=1):
    parent_id = (pid, parent) if parent is not None else None
    return [(pid, sid), parent_id, layer, start, end, wait, None]


def check_sum(records, root):
    self_s, unaccounted, wall = attribute(records, root)
    assert layer_sum_error(self_s, unaccounted, wall) < 1e-12
    assert all(v >= 0 for v in self_s.values())
    assert unaccounted >= 0
    return self_s, unaccounted, wall


def test_nested_spans_self_is_duration_minus_children():
    root = span(0, None, "window", 0, 10_000_000_000)
    records = [
        root,
        span(1, 0, "experiments", 1e9, 9e9),
        span(2, 1, "core.simulate", 2e9, 8e9),
        span(3, 2, "warmup", 2e9, 3e9),
        span(4, 2, "core.run", 3e9, 7e9),
    ]
    self_s, unaccounted, wall = check_sum(records, root)
    assert wall == 10
    assert self_s == pytest.approx({"experiments": 2, "core.simulate": 1,
                                    "warmup": 1, "core.run": 4})
    assert unaccounted == pytest.approx(2)


def test_overlapping_workers_split_the_instant():
    # two parent-side isolation spans (pid 1), each with a worker span in
    # its own process; the workers overlap for 2 s
    root = span(0, None, "window", 0, 10e9)
    records = [
        root,
        span(1, 0, "harness.execute", 0, 10e9),
        span(2, 1, "harness.isolation", 1e9, 6e9),
        span(3, 1, "harness.isolation", 3e9, 9e9),
        [(2, 1), (1, 2), "core.run", 2e9, 5e9, False, None],
        [(3, 1), (1, 3), "core.run", 3e9, 8e9, False, None],
    ]
    self_s, unaccounted, wall = check_sum(records, root)
    # [0,1) execute; [1,2) iso A; [2,3) run A; [3,5) run A + run B;
    # [5,6) iso A + run B; [6,8) run B; [8,9) iso B; [9,10) execute
    assert self_s["harness.execute"] == pytest.approx(2)
    assert self_s["core.run"] == pytest.approx(1 + 2 + 0.5 + 2)
    assert self_s["harness.isolation"] == pytest.approx(1 + 0.5 + 1)
    assert unaccounted == 0
    # busy time counts each worker in full: 3 s + 5 s
    assert busy(records, "core.run")[0] == pytest.approx(8)


def test_wait_spans_yield_to_server_work():
    root = span(0, None, "window", 0, 10e9)
    records = [
        root,
        span(1, 0, "serve.client", 0, 6e9, wait=True),
        span(2, 0, "serve.client", 1e9, 9e9, wait=True),
        # server process spans have no parent in this process
        [(9, 1), None, "core.run", 2e9, 5e9, False, None],
    ]
    self_s, unaccounted, _ = check_sum(records, root)
    assert self_s["core.run"] == pytest.approx(3)
    # [0,1) one client; [1,2) two; [5,6) two; [6,9) one
    assert self_s["serve.client"] == pytest.approx(1 + 1 + 1 + 3)
    assert unaccounted == pytest.approx(1)


def test_spans_are_clipped_to_the_window():
    root = span(0, None, "window", 2e9, 6e9)
    records = [
        root,
        span(1, None, "warmup", 0, 3e9),  # set-up work leaking in
        span(2, None, "core.run", 5e9, 9e9),
        span(3, None, "core.build", 7e9, 8e9),  # wholly outside
    ]
    self_s, unaccounted, wall = check_sum(records, root)
    assert wall == 4
    assert self_s == pytest.approx({"warmup": 1, "core.run": 1})
    assert unaccounted == pytest.approx(2)


def test_tracer_links_threads_to_the_main_thread():
    tracer = Tracer()
    root = tracer.begin("window")
    outer = tracer.begin("harness.execute")

    def worker():
        token = tracer.begin("harness.run_cell")
        inner = tracer.begin("core.run")
        tracer.end(inner)
        tracer.end(token)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    tracer.end(outer)
    tracer.end(root)
    by_layer = {r[2]: r for r in tracer.records}
    assert by_layer["harness.run_cell"][1] == outer[0]
    assert by_layer["core.run"][1] == by_layer["harness.run_cell"][0]
    check_sum(tracer.records, root)


def test_tail_needs_ten_samples_beyond():
    assert tail([5.0, 1.0, 3.0]) == (3.0, 50.0)
    values = [float(i) for i in range(1, 101)]
    value, percentile = tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == 90.0


@pytest.fixture(scope="module")
def forked_cell(tmp_path_factory):
    """A real process-isolated cell, traced; then its spool file is
    deleted and the trace collected again."""
    spool = str(tmp_path_factory.mktemp("spool"))
    script = f"""
import glob, json, os, sys
sys.path[:0] = [{HERE!r}, {os.path.join(ROOT, "src")!r}]
import instrument
from spans import Tracer, attribute
tracer = Tracer()
instrument.install(tracer, {spool!r})
from repro import CoreConfig
from repro.experiments.runner import ExperimentSettings
from repro.harness import Cell, HarnessSettings, executor
settings = ExperimentSettings(instructions=300, warmup=1000,
                              detailed_warmup=50)
cell = Cell("int_test", CoreConfig.base(), settings, 0)
root = tracer.begin("window")
outcome = executor.run_cell(cell, HarnessSettings(isolate="process"))
tracer.end(root)
records, _ = instrument.collect(tracer, {spool!r})
self_s, unaccounted, wall = attribute(records, root)
missing = instrument.missing_worker_spans(records, os.getpid())
spooled = glob.glob(os.path.join({spool!r}, "*.json"))
for path in spooled:
    os.remove(path)
lost, _ = instrument.collect(tracer, {spool!r})
print(json.dumps({{"ok": outcome.ok, "records": records,
                  "sum": sum(self_s.values()) + unaccounted, "wall": wall,
                  "parent_pid": os.getpid(), "missing": missing,
                  "spooled": len(spooled),
                  "missing_after_delete":
                      instrument.missing_worker_spans(lost, os.getpid())}}))
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_forked_worker_spans_reach_the_trace(forked_cell):
    """The worker's spans come back and hang under the parent-side call
    that forked it."""
    out = forked_cell
    assert out["ok"]
    records = out["records"]
    workers = [r for r in records if r[0][0] != out["parent_pid"]]
    layers = {r[2] for r in workers}
    assert {"harness.isolation", "core.simulate", "warmup",
            "core.run"} <= layers
    isolated = [r for r in records if r[2] == "harness.isolation"
                and r[0][0] == out["parent_pid"]]
    worker_root = [r for r in workers if r[2] == "harness.isolation"]
    assert len(isolated) == len(worker_root) == 1
    assert worker_root[0][1] == isolated[0][0]
    assert out["sum"] == pytest.approx(out["wall"], abs=1e-9)
    assert out["missing"] == []


def test_a_lost_spool_file_is_reported(forked_cell):
    """Without the worker's spool file the layer sum still holds, so the
    span check is what catches it."""
    assert forked_cell["spooled"] == 1
    assert len(forked_cell["missing_after_delete"]) == 1
    assert "0 worker spans" in forked_cell["missing_after_delete"][0]
