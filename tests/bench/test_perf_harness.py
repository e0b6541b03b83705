"""Tier-1 smoke test for the perf-regression harness.

Runs ``benchmarks/perf/run.py`` at a tiny scale (seconds, not minutes) and
checks the machine-readable ``BENCH_PERF.json`` contract every future PR's
trajectory comparison relies on.  The full-size run is the ``perf``-marked
suite under ``benchmarks/perf/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

EXPECTED_BENCHES = {
    "insert",
    "query_scan",
    "histogram_build",
    "balanced_cut",
    "fig9_workload",
}


def _run_harness(output, extra_env=None, extra_args=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    # Timed perf sections require by-reference delivery and the FIFO
    # tie-break; the harness refuses to run with the isolation or
    # schedule-fuzz sanitizers on, so the smoke test must not leak the
    # suite's REPRO_ISOLATE_MESSAGES / REPRO_SCHEDULE_FUZZ into it.
    # Same for wire validation, which the scale tier refuses outright,
    # and the resource-lifecycle ledger.
    env.pop("REPRO_ISOLATE_MESSAGES", None)
    env.pop("REPRO_PROTOCOL_VALIDATE", None)
    env.pop("REPRO_SCHEDULE_FUZZ", None)
    env.pop("REPRO_SCHEDULE_FUZZ_SEED", None)
    env.pop("REPRO_TRACK_RESOURCES", None)
    env.update(extra_env or {})
    return subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "perf" / "run.py"),
            "--records", "3000",
            "--queries", "5",
            "--output", str(output),
            *extra_args,
        ],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_run_py_writes_bench_perf_json(tmp_path):
    output = tmp_path / "BENCH_PERF.json"
    result = _run_harness(output)
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(output.read_text())
    assert payload["meta"]["records"] == 3000
    assert set(payload["benches"]) == EXPECTED_BENCHES
    for name, entry in payload["benches"].items():
        assert entry["scalar_s"] >= 0.0, name
        assert entry["vectorized_s"] >= 0.0, name
        assert entry["speedup"] > 0.0, name
    overhead = payload["isolation_overhead"]
    assert overhead["messages"] > 0
    assert overhead["copy_us_per_msg"] >= 0.0
    assert overhead["freeze_us_per_msg"] >= 0.0
    fuzz = payload["schedule_fuzz_overhead"]
    assert fuzz["events"] > 0
    assert fuzz["off_ns_per_event"] >= 0.0
    assert fuzz["shuffle_ns_per_event"] >= 0.0
    assert fuzz["reverse_ns_per_event"] >= 0.0
    tracking = payload["resource_tracking_overhead"]
    assert tracking["messages"] > 0
    assert tracking["off_ns_per_msg"] >= 0.0
    assert tracking["tracked_ns_per_msg"] >= 0.0
    kernel = payload["kernel"]
    assert kernel["events"] > 0
    for density in ("dense", "sparse"):
        assert kernel[density]["ns_per_event"] > 0.0, density


def test_run_py_refuses_isolation_on(tmp_path):
    output = tmp_path / "BENCH_PERF.json"
    result = _run_harness(output, extra_env={"REPRO_ISOLATE_MESSAGES": "copy"})
    assert result.returncode == 1
    assert "isolation" in result.stderr
    assert not output.exists()


def test_run_py_refuses_schedule_fuzz_on(tmp_path):
    output = tmp_path / "BENCH_PERF.json"
    result = _run_harness(output, extra_env={"REPRO_SCHEDULE_FUZZ": "shuffle"})
    assert result.returncode == 1
    assert "schedule fuzz" in result.stderr
    assert not output.exists()


def test_run_py_refuses_resource_tracking_on(tmp_path):
    output = tmp_path / "BENCH_PERF.json"
    result = _run_harness(output, extra_env={"REPRO_TRACK_RESOURCES": "1"})
    assert result.returncode == 1
    assert "resource tracking" in result.stderr
    assert not output.exists()


# A downsized scale tier: real cluster, real kernel, seconds not minutes.
SCALE_SMOKE = ("--scale", "--scale-nodes", "8", "--scale-records", "40")


def test_run_py_scale_smoke_writes_scale_block(tmp_path):
    output = tmp_path / "BENCH_PERF.json"
    result = _run_harness(output, extra_args=SCALE_SMOKE)
    assert result.returncode == 0, result.stdout + result.stderr
    scale = json.loads(output.read_text())["scale"]
    assert scale["nodes"] == 8
    assert scale["records"] == 40
    assert scale["events"] > 0
    assert scale["events_per_s"] > 0
    assert scale["messages_per_s"] > 0
    assert scale["peak_rss_mb"] > 0
    assert scale["complete_fraction"] == 1.0

    # A microbench-only refresh must carry the scale block forward, not
    # silently drop the recorded baseline.
    result = _run_harness(output)
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads(output.read_text())["scale"] == scale


def test_run_py_scale_refuses_protocol_validation_on(tmp_path):
    # Wire validation adds per-message payload checks; a scale baseline
    # timed with it on is not comparable, so run.py refuses instead of
    # silently disabling it.
    output = tmp_path / "BENCH_PERF.json"
    result = _run_harness(
        output, extra_env={"REPRO_PROTOCOL_VALIDATE": "1"}, extra_args=SCALE_SMOKE
    )
    assert result.returncode == 1
    assert "validation" in result.stderr
    assert not output.exists()


def test_run_py_scale_refuses_isolation_on(tmp_path):
    output = tmp_path / "BENCH_PERF.json"
    result = _run_harness(
        output, extra_env={"REPRO_ISOLATE_MESSAGES": "copy"}, extra_args=SCALE_SMOKE
    )
    assert result.returncode == 1
    assert "isolation" in result.stderr
    assert not output.exists()
