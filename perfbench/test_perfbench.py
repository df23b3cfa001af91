"""Self-checks of the benchmark harness.

Run from the root of the repository::

    python3 -m pytest perfbench -q

The traced-run checks make one traced run of each workload (about a
minute in all) and test the bypass predictions written in
``perfbench/README.md``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import run
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: ``LatencyModel``'s numpy branch only engages on cohorts this large.
NUMPY_CROSSOVER = 48


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """Advances one second per reading, so spans have exact lengths."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestTracer:
    def test_self_time_excludes_child_spans(self, monkeypatch):
        monkeypatch.setattr(layers, "perf_counter", FakeClock())
        tracer = layers.Tracer()
        inner = tracer.span("inner", lambda x: x * 2)
        outer = tracer.span("outer", lambda x: inner(x) + 1)
        assert outer(20) == 41
        # outer reads the clock at 1 and 4; inner at 2 and 3.
        assert tracer.seams["inner"].self_s == 1.0
        assert tracer.seams["outer"].self_s == 2.0
        assert tracer.stack == [[3.0, 0.0]]

    def test_callback_self_time_is_settled_retroactively(self, monkeypatch):
        monkeypatch.setattr(layers, "perf_counter", FakeClock())
        tracer = layers.Tracer()
        seam = tracer.span("seam", lambda: None)

        def loop():
            seam()                        # 1 s inside the callback
            tracer.record("cb", 2.0)      # the callback took 2 s
            seam()                        # 1 s inside the next one
            tracer.record("cb", 1.5)
        tracer.span("loop", loop)()
        assert tracer.labels["cb"] == [2, 1.0 + 0.5]
        # The loop read the clock at 1 and 6; its children are the two
        # callbacks, 3.5 s in all.
        assert tracer.seams["loop"].self_s == 5.0 - 3.5

    def test_wrapper_returns_value_and_counts_items(self):
        tracer = layers.Tracer()
        sentinel = object()
        wrapped = tracer.span("cohort", lambda self, src, sends: sentinel,
                              layers._arg_len(2))
        assert wrapped(None, None, [1, 2, 3]) is sentinel
        wrapped(None, None, [1])
        seam = tracer.seams["cohort"]
        assert (seam.calls, seam.items, seam.max_items) == (2, 4, 3)

    def test_exception_propagates_and_closes_the_span(self):
        tracer = layers.Tracer()

        def boom():
            raise KeyError("x")
        with pytest.raises(KeyError):
            tracer.span("boom", boom)()
        assert len(tracer.stack) == 1
        assert tracer.seams["boom"].calls == 1


class TestSpec:
    def test_names_match_benchmark_json(self):
        spec = _spec()
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
        assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
        names = set(layers.layer_metrics(layers.Tracer(), 1.0))
        names.add("trace.overhead")
        assert {m["name"] for m in spec["per_layer"]} == names

    def test_pins_match_committed_bench_artifacts(self):
        engine = json.loads((ROOT / "BENCH_engine.json").read_text())
        campaign = json.loads((ROOT / "BENCH_campaign.json").read_text())
        quick = campaign["profiles"]["quick"]
        assert worker.PINS["stream"]["counters"] == \
            engine["profiles"]["default"]["golden_digest"]
        assert worker.PINS["campaign"] == {
            "table": quick["golden_digest"],
            "series": quick["series_digest"]}

    def test_refuses_a_directory_without_sources(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "stream",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout


@pytest.fixture(scope="module")
def traced():
    """One traced worker run per workload."""
    out = {}
    for workload in run.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload",
             workload, "--started", repr(time.monotonic()), "--trace"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        out[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    return out


class TestBypassPredictions:
    def test_traced_digest_equals_the_pin(self, traced):
        for workload, record in traced.items():
            assert record["digest_ok"], (workload, record["digests"])

    def test_flows_and_checkpoint_only_run_in_campaign(self, traced):
        for workload in ("stream", "swarm"):
            metrics = traced[workload]["layers"]
            assert metrics["obs.flows.calls"] == 0
            assert metrics["checkpoint.write_unit.calls"] == 0
        campaign = traced["campaign"]["layers"]
        assert campaign["obs.flows.calls"] > 0
        assert campaign["checkpoint.write_unit.calls"] > 0

    def test_capture_taps_are_heavier_in_campaign_than_swarm(self, traced):
        assert (traced["campaign"]["layers"]["capture.tap.calls"]
                > traced["swarm"]["layers"]["capture.tap.calls"])

    def test_cohorts_never_reach_the_numpy_latency_branch(self, traced):
        for record in traced.values():
            assert record["layers"]["network.send_many.cohort_max"] \
                < NUMPY_CROSSOVER

    def test_self_times_fit_in_traced_wall(self, traced):
        for record in traced.values():
            metrics = record["layers"]
            assert metrics["trace.attributed_s"] <= metrics["trace.wall_s"]
            assert 0.9 <= metrics["trace.coverage"] <= 1.0
