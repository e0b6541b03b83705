"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 mindbench/run.py --workload insert-stream --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics (set-up repeated at least
``MIN_SETUPS`` times and for at least ``SETUP_BUDGET_S``, the median
reported).  ``--trace 1`` runs the same
timed phase twice, untraced and then with the per-layer tracer of
``mindbench/layers.py`` installed, and reports the per-layer metrics.
Human-readable lines go first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 after printing a result, 2 when the run is
refused (sanitizers on, or no ``src/repro`` next to the benchmark).
"""

import argparse
import gc
import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]

#: The metrics ``BENCHMARK.json`` declares, with their units.
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "cpu_us_per_op": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "msgs_per_op": "msgs/op",
}
#: Op-type metrics: printed by untraced runs where they apply, reported
#: by traced runs on every workload (0 when there are no samples).
OP_METRIC_UNITS = {
    "insert_latency_p50_s": "s",
    "insert_latency_p99_s": "s",
    "query_latency_p50_s": "s",
    "query_latency_p90_s": "s",
    "query_nodes_visited": "nodes",
    "ops_failed_fraction": "fraction",
    "wrong_answers": "count",
}
LAYER_UNITS = {
    "sim.events_per_op": "events/op",
    "sim.self_us_per_event": "us",
    "sim.self_share": "fraction",
    "net.send_us_per_msg": "us",
    "net.deliver_us_per_msg": "us",
    "net.delivered_fraction": "fraction",
    "net.bytes_per_op": "B/op",
    "net.self_share": "fraction",
    "overlay.self_us_per_msg": "us",
    "overlay.hops_per_insert": "hops",
    "overlay.heartbeats_per_op": "msgs/op",
    "overlay.ring_probes_per_op": "msgs/op",
    "overlay.ring_found_per_probe": "fraction",
    "overlay.self_share": "fraction",
    "core.insert_origin_us": "us",
    "core.embed_us_per_record": "us",
    "core.query_origin_us": "us",
    "core.arrival_us": "us",
    "core.result_merge_us_per_record": "us",
    "core.retries_per_op": "count/op",
    "core.failovers_per_op": "count/op",
    "core.self_share": "fraction",
    "storage.scan_us_per_call": "us",
    "storage.rows_per_scan": "rows",
    "storage.insert_us_per_record": "us",
    "storage.dac_wait_ms": "ms",
    "storage.imbalance": "max/mean",
    "storage.self_share": "fraction",
    "trace.unattributed_share": "fraction",
    "trace.overhead": "x",
    "trace.residual_overhead": "x",
    "trace.span_cost_us": "us",
}
PER_LAYER_UNITS = {**OP_METRIC_UNITS, **LAYER_UNITS}
#: Untraced runs set up at least ``MIN_SETUPS`` times, and repeat a
#: set-up that is cheaper than ``SETUP_BUDGET_S`` until the repeats add
#: up to it (at most ``MAX_SETUPS``), so a 0.1-second set-up is a median
#: of many samples, not of three.
MIN_SETUPS = 3
SETUP_BUDGET_S = 2.0
MAX_SETUPS = 40
#: Most of the traced wall time, net of the tracer's calibrated cost,
#: that may fall outside every layer span.  The recorded runs read at
#: most 0.06 (``insert-stream``); more means a layer's wrappers stopped
#: matching and its time went unmeasured.
UNATTRIBUTED_CEILING = 0.15


def refusal() -> Optional[str]:
    """Why a timed run must not proceed, or None.

    Mirrors ``benchmarks/perf/run.py``: the message-isolation, schedule-
    fuzz and resource-tracking sanitizers and protocol validation are
    correctness harnesses, not modeled system cost.
    """
    from repro.net import message, protocol
    from repro.sim import events, resources

    if message.isolation_level() != message.ISOLATE_OFF:
        return "message isolation is ON; unset REPRO_ISOLATE_MESSAGES"
    if events.schedule_fuzz_mode() != events.FUZZ_OFF:
        return "schedule fuzz is ON; unset REPRO_SCHEDULE_FUZZ"
    if resources.tracking_enabled():
        return "resource tracking is ON; unset REPRO_TRACK_RESOURCES"
    if protocol.validation_enabled():
        return "protocol validation is ON; unset REPRO_PROTOCOL_VALIDATE"
    return None


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def op_metrics(out) -> Dict[str, Optional[float]]:
    """Op-type metrics of one outcome; None where there are no samples."""
    ins, qry = out.insert_latencies.tolist(), out.query_latencies.tolist()
    return {
        "insert_latency_p50_s": percentile(ins, 0.50) if ins else None,
        "insert_latency_p99_s": percentile(ins, 0.99) if ins else None,
        "query_latency_p50_s": percentile(qry, 0.50) if qry else None,
        "query_latency_p90_s": percentile(qry, 0.90) if qry else None,
        "query_nodes_visited": float(out.query_nodes.mean()) if len(out.query_nodes) else None,
        "ops_failed_fraction": out.failed / out.attempted,
        "wrong_answers": out.wrong_answers,
    }


def virtual_counts(out) -> tuple:
    """What a run computes in virtual time: identical for one seed."""
    return (out.events, out.messages_sent, out.messages_delivered, out.failed,
            out.wrong_answers, out.insert_latencies.tolist(), out.query_latencies.tolist())


def layer_metrics(tracer, out, untraced_wall_s: float) -> Dict[str, float]:
    from mindbench.layers import LAYERS

    ops = out.attempted
    wall = out.wall_s
    # The traced wall time the program spent: the tracer's cost taken out.
    program_s = wall - tracer.tracer_s
    kinds = tracer.msg_kinds
    probes = kinds.get("ring_probe", 0)
    shares = {layer: tracer.self_s[layer] / program_s for layer in LAYERS}
    m = {
        "sim.events_per_op": out.events / ops,
        "sim.self_us_per_event": tracer.self_s["sim"] * 1e6 / max(1, out.events),
        "net.send_us_per_msg": tracer.entries["net.send"].own_s * 1e6 / max(1, out.messages_sent),
        "net.deliver_us_per_msg": tracer.entries["net.deliver"].own_s * 1e6
        / max(1, out.messages_delivered),
        "net.delivered_fraction": out.messages_delivered / max(1, out.messages_sent),
        "net.bytes_per_op": tracer.msg_bytes / ops,
        "overlay.self_us_per_msg": tracer.self_s["overlay"] * 1e6 / max(1, out.messages_sent),
        "overlay.hops_per_insert": float(out.insert_hops.mean()) if len(out.insert_hops) else 0.0,
        "overlay.heartbeats_per_op": kinds.get("heartbeat", 0) / ops,
        "overlay.ring_probes_per_op": probes / ops,
        "overlay.ring_found_per_probe": kinds.get("ring_found", 0) / probes if probes else 0.0,
        "core.insert_origin_us": tracer.own_us_per("core.insert_origin"),
        "core.embed_us_per_record": tracer.own_us_per("core.embed", "units"),
        "core.query_origin_us": tracer.own_us_per("core.query_origin"),
        "core.arrival_us": tracer.own_us_per("core.arrival"),
        "core.result_merge_us_per_record": tracer.own_us_per("core.result_merge", "units"),
        "core.retries_per_op": out.retries / ops,
        "core.failovers_per_op": out.failovers / ops,
        "storage.scan_us_per_call": tracer.own_us_per("storage.scan"),
        "storage.rows_per_scan": tracer.units_per_call("storage.scan"),
        "storage.insert_us_per_record": tracer.own_us_per("storage.insert", "units"),
        "storage.dac_wait_ms": statistics.fmean(tracer.dac_waits) * 1e3 if tracer.dac_waits else 0.0,
        "storage.imbalance": out.storage_imbalance,
        "trace.unattributed_share": 1.0 - sum(shares.values()),
        "trace.overhead": wall / untraced_wall_s,
        "trace.residual_overhead": program_s / untraced_wall_s,
        "trace.span_cost_us": tracer.span_cost_s() * 1e6,
    }
    for layer, share in shares.items():
        m[f"{layer}.self_share"] = share
    return m


def attribution_failures(metrics: Dict[str, float]) -> List[str]:
    """What is wrong with the traced run's attribution, if anything.

    Every workload exercises all five layers, so each must hold a share
    above 0: a layer at 0 has wrappers that no longer match.  The time
    outside every layer must stay between 0 (below that, the tracer's
    cost was overestimated) and ``UNATTRIBUTED_CEILING``.
    """
    from mindbench.layers import LAYERS

    failures = [f"{layer}.self_share is not above 0" for layer in LAYERS
                if not metrics[f"{layer}.self_share"] > 0.0]
    unattributed = metrics["trace.unattributed_share"]
    if not 0.0 <= unattributed <= UNATTRIBUTED_CEILING:
        failures.append(f"trace.unattributed_share {unattributed:.3f} is outside "
                        f"[0, {UNATTRIBUTED_CEILING}]")
    return failures


def emit(human: List[str], result: dict) -> None:
    for line in human:
        print(line)
    print(json.dumps(result))


def fmt(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name:34s} {value:14.6g} {unit}{note}"


def main(argv=None) -> int:
    from mindbench import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured wall time the op count is sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink op and preload counts (tests)")
    args = parser.parse_args(argv)

    reason = refusal()
    if reason is not None:
        print(f"refusing a timed run: {reason}", file=sys.stderr)
        return 2

    from mindbench.layers import Tracer, assert_uninstalled

    workload = wl.WORKLOADS[args.workload]
    stream = wl.make_stream(workload, args.seed, args.seconds, args.scale)
    human = [f"workload {workload.name}: {workload.why}",
             f"seed {args.seed} on deployment {stream.deployment_seed}: {stream.ops} timed ops, "
             f"{len(stream.preload_times)} preloaded records"]

    def deploy_timed():
        t0 = time.perf_counter()
        dep = wl.deploy(workload, args.seed, stream)
        return dep, time.perf_counter() - t0

    def discard(dep) -> None:
        dep.cluster.close()
        gc.collect()

    # Untraced timed phase (both modes): no wrapper may be installed.
    assert_uninstalled()
    setups = []
    dep = None
    least = MIN_SETUPS if args.trace == 0 else 1
    while len(setups) < least or (
        args.trace == 0 and sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS
    ):
        if dep is not None:
            discard(dep)
        dep, setup_s = deploy_timed()
        setups.append(setup_s)
    out = wl.OpenLoop(dep, stream).run()
    discard(dep)
    correct = out.wrong_answers == 0 and out.unfinished == 0 and out.stored_vs_acked_ok
    if not out.stored_vs_acked_ok:
        human.append("CHECK FAILED: stored record count differs from acked inserts")

    if args.trace == 0:
        done = out.succeeded / out.attempted
        metrics = {
            "ops_per_s": done * statistics.median(ops / wall for ops, wall, _ in out.segments),
            "cpu_us_per_op": statistics.median(cpu / ops for ops, _, cpu in out.segments)
            * 1e6 / max(done, 1e-9),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": out.peak_rss_mb,
            "msgs_per_op": out.messages_sent / out.attempted,
        }
        for name, value in metrics.items():
            human.append(fmt(name, value, END_TO_END_UNITS[name]))
        counts = {"insert_latency": len(out.insert_latencies), "query_latency": len(out.query_latencies),
                  "query_nodes_visited": len(out.query_nodes)}
        for name, value in op_metrics(out).items():
            if value is None:
                continue
            n = next((c for prefix, c in counts.items() if name.startswith(prefix)), None)
            human.append(fmt(name, value, OP_METRIC_UNITS[name], f" (n={n})" if n is not None else ""))
        human.append(f"timed wall {out.wall_s:.3f} s over {len(out.segments)} segments, "
                     f"cpu {out.cpu_s:.3f} s, {len(setups)} set-ups of "
                     f"{min(setups):.3f}-{max(setups):.3f} s")
        units = END_TO_END_UNITS
    else:
        tracer = Tracer()
        tracer.install()
        try:
            dep, _ = deploy_timed()
            tracer.reset()
            traced = wl.OpenLoop(dep, stream, wrap=tracer.harness).run()
        finally:
            tracer.uninstall()
        discard(dep)
        tracer.finish()
        metrics = {name: (0.0 if value is None else value) for name, value in op_metrics(traced).items()}
        metrics.update(layer_metrics(tracer, traced, out.wall_s))
        if virtual_counts(traced) != virtual_counts(out):
            correct = False
            human.append("CHECK FAILED: the traced run diverged from the untraced run")
        for failure in attribution_failures(metrics):
            correct = False
            human.append(f"CHECK FAILED: {failure}")
        for name, value in metrics.items():
            human.append(fmt(name, value, PER_LAYER_UNITS[name]))
        top = sorted(tracer.msg_kinds.items(), key=lambda kv: -kv[1])[:8]
        human.append("messages by kind: " + ", ".join(f"{k}={v}" for k, v in top))
        costs = ", ".join(f"{kind} {inner * 1e9:.0f}+{outer * 1e9:.0f}"
                          for kind, (inner, outer) in tracer.span_costs.items())
        extras = ", ".join(f"{kind} {cost * 1e9:.0f}" for kind, cost in tracer.extra_costs.items())
        human.append(f"calibrated span cost in ns (in span + in parent): {costs}; "
                     f"per call: {extras}")
        human.append(f"untraced wall {out.wall_s:.3f} s, traced wall {traced.wall_s:.3f} s, "
                     f"of which tracer {tracer.tracer_s:.3f} s")
        units = PER_LAYER_UNITS
    human.append(f"ops attempted {out.attempted}, failed {out.failed} "
                 f"(wrong answers {out.wrong_answers}), re-homed {out.rehomed}")

    emit(human, {
        "correct": bool(correct),
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    })
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    raise SystemExit(main())
