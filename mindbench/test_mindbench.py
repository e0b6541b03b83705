"""Tests of the benchmark itself: repeatable counts, the oracle, tracer
hygiene, reconciliation and refusals.

Run from the repository root (not part of the tier-1 suite)::

    python -m pytest mindbench -q
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from mindbench import layers  # noqa: E402
from mindbench import run as bench  # noqa: E402
from mindbench import workloads as wl  # noqa: E402
from mindbench.layers import LAYERS, Tracer, assert_uninstalled  # noqa: E402
from mindbench.oracle import Oracle  # noqa: E402
from repro.core.query import RangeQuery  # noqa: E402
from repro.net import message, protocol  # noqa: E402
from repro.sim import events, resources  # noqa: E402
from repro.traffic.indices import index1_schema  # noqa: E402

#: Downsized runs: a few hundred inserts, a dozen queries.
SCALE = {"insert-stream": 0.02, "query-scan": 0.05, "churn-mixed": 0.1}
#: What a run computes in virtual time, per mode.
UNTRACED_COUNTS = ("msgs_per_op",)
TRACED_COUNTS = (
    "sim.events_per_op", "insert_latency_p50_s", "insert_latency_p99_s",
    "query_latency_p50_s", "query_latency_p90_s", "query_nodes_visited",
    "overlay.ring_probes_per_op", "wrong_answers",
)


def run_bench(workload: str, seed: int, trace: int):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = bench.main([
            "--workload", workload, "--seed", str(seed), "--seconds", "10",
            "--trace", str(trace), "--scale", str(SCALE[workload]),
        ])
    assert code == 0
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def values(result, names):
    return {name: result["metrics"][name]["value"] for name in names}


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(workload):
    first, second = run_bench(workload, 7, 0), run_bench(workload, 7, 0)
    assert values(first, UNTRACED_COUNTS) == values(second, UNTRACED_COUNTS)
    assert first["attempted"] == second["attempted"]
    traced_a, traced_b = run_bench(workload, 7, 1), run_bench(workload, 7, 1)
    assert values(traced_a, TRACED_COUNTS) == values(traced_b, TRACED_COUNTS)
    # The traced run compares itself with its own untraced pass.
    assert traced_a["correct"] and traced_b["correct"]


def test_seed_selects_the_op_stream():
    workload = wl.WORKLOADS["query-scan"]
    a = wl.make_stream(workload, 1, 10, 0.05)
    b = wl.make_stream(workload, 1, 10, 0.05)
    c = wl.make_stream(workload, 2, 10, 0.05)
    assert np.array_equal(a.times, b.times) and a.queries == b.queries
    assert not np.array_equal(a.times, c.times)
    # The deployment's preload does not follow the seed.
    n_pre = len(a.preload_times)
    assert np.array_equal(a.values[:n_pre], c.values[:n_pre])


def test_deployment_seed_selects_the_preload():
    workload = wl.WORKLOADS["query-scan"]
    a = wl.make_stream(workload, 1, 10, 0.05)
    b = wl.make_stream(workload, 1, 10, 0.05, deployment_seed=3)
    n_pre = len(a.preload_times)
    assert np.array_equal(a.times, b.times)
    assert not np.array_equal(a.values[:n_pre], b.values[:n_pre])


def test_wide_query_segments_share_one_network_mix():
    workload = wl.WORKLOADS["query-scan"]
    stream = wl.make_stream(workload, 3, 10)
    seg = workload.segment_ops
    mixes = {
        tuple(sorted(q.interval("dest_prefix")[0] for q in stream.queries[k:k + seg]))
        for k in range(0, len(stream.queries), seg)
    }
    assert len(mixes) == 1


def test_oracle_bounds():
    schema = index1_schema(wl.DAY_S)
    rows = np.array([[1e9, 100.0, 20.0], [2e9, 200.0, 30.0], [3e9, 300.0, 40.0]])
    oracle = Oracle(schema, rows)
    query = RangeQuery(wl.INDEX, {"dest_prefix": (0.0, 2.5e9)})  # matches keys 1, 2
    oracle.issued(1, 1.0)
    oracle.acked(1, 2.0)
    oracle.issued(2, 9.0)  # in flight while the query runs
    assert not oracle.violates(query, 5.0, 10.0, [1])
    assert not oracle.violates(query, 5.0, 10.0, [1, 2])
    assert oracle.violates(query, 5.0, 10.0, [2])  # misses an acked record
    assert oracle.violates(query, 5.0, 8.0, [1, 2])  # key 2 issued after the end
    assert oracle.violates(query, 5.0, 10.0, [1, 3])  # key 3 does not match
    assert oracle.violates(query, 5.0, 10.0, [1, 99])  # never inserted


def test_traced_shares_reconcile_and_wrappers_come_off():
    result = run_bench("insert-stream", 3, 1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"]
    assert bench.attribution_failures(metrics) == []
    total = sum(metrics[f"{layer}.self_share"] for layer in LAYERS)
    assert total + metrics["trace.unattributed_share"] == pytest.approx(1.0, abs=1e-9)
    assert metrics["trace.overhead"] > 1.0
    assert 0.0 < metrics["trace.span_cost_us"] < 50.0
    assert_uninstalled()


def test_attribution_checks_can_fail():
    metrics = {f"{layer}.self_share": 0.2 for layer in LAYERS}
    metrics["trace.unattributed_share"] = 0.0
    assert bench.attribution_failures(metrics) == []
    assert bench.attribution_failures({**metrics, "storage.self_share": 0.0}) == [
        "storage.self_share is not above 0"
    ]
    assert len(bench.attribution_failures(
        {**metrics, "trace.unattributed_share": bench.UNATTRIBUTED_CEILING + 0.01})) == 1
    assert len(bench.attribution_failures({**metrics, "trace.unattributed_share": -0.01})) == 1


def test_tracer_cost_is_taken_from_the_layers_it_lands_in(monkeypatch):
    ticks = iter(range(1, 100))
    monkeypatch.setattr(layers, "perf_counter", lambda: float(next(ticks)))
    tracer = Tracer()
    tracer.span_costs = {**tracer.span_costs, "plain": (0.1, 0.2), "entry": (0.3, 0.4)}
    inner = tracer.span("sim", lambda: None)
    outer = tracer.span("net", inner, "outer")
    outer()  # clock: enter net 1, enter sim 2, exit sim 3, exit net 4
    assert tracer.self_s["sim"] == pytest.approx(1 - 0.1)
    assert tracer.self_s["net"] == pytest.approx(3 - 1 - 0.2 - 0.3)
    # Own-layer time leaves out the sim span and the cost in the net span.
    assert tracer.entries["outer"].own_s == pytest.approx(3 - 1 - 0.2 - 0.3)
    assert tracer.tracer_s == pytest.approx(0.1 + 0.2 + 0.3 + 0.4)


def test_calibration_finds_a_cost_per_span():
    tracer = Tracer()
    tracer.calibrate(calls=2000, repeats=3)
    for inner, outer in tracer.span_costs.values():
        assert 0.0 <= inner < 50e-6 and 0.0 <= outer < 50e-6
    assert tracer.span_cost_s() > 0.0
    assert all(0.0 <= cost < 50e-6 for cost in tracer.extra_costs.values())


def test_tracer_install_is_visible_and_reversible():
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            assert_uninstalled()
    finally:
        tracer.uninstall()
    assert_uninstalled()


@pytest.mark.parametrize("switch_on, switch_off", [
    (lambda: message.set_isolation(message.ISOLATE_COPY), lambda: message.set_isolation(message.ISOLATE_OFF)),
    (lambda: events.set_schedule_fuzz(events.FUZZ_SHUFFLE), lambda: events.set_schedule_fuzz(events.FUZZ_OFF)),
    (lambda: resources.set_tracking(True), lambda: resources.set_tracking(False)),
    (lambda: protocol.set_validation(True), lambda: protocol.set_validation(False)),
])
def test_refuses_timed_runs_under_sanitizers(switch_on, switch_off):
    switch_on()
    try:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = bench.main(["--workload", "insert-stream", "--seed", "1", "--seconds", "1"])
    finally:
        switch_off()
    assert code == 2
    assert buf.getvalue() == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "mindbench", tmp_path / "mindbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "mindbench/run.py", "--workload", "insert-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_declares_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
