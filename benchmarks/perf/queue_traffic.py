"""Event-queue traffic of a real run: the figures behind the kernel microbench.

Instruments :class:`~repro.sim.events.EventQueue` during a timed phase and
prints, as JSON: events run per virtual second, the pending depth (live
events in the queue, sampled every 7th pop), the quantiles of the delay
of each event that ran (its firing time minus the virtual time it was
pushed at; cancelled events never run and are left out, as are the
workload's own bulk-scheduled ops).  ``KERNEL_DENSITIES`` in
:mod:`benchmarks.perf.microbench` copies its rate, depth and delay
quantiles from these figures.

Run from the repo root::

    PYTHONPATH=src python -m benchmarks.perf.queue_traffic query-scan
    PYTHONPATH=src python -m benchmarks.perf.queue_traffic scale --nodes 1000 --records 200000

``query-scan`` (or ``insert-stream``) runs that ``mindbench`` workload
(seed 1, 30 s) and records its timed phase only; ``scale`` runs the
scale tier (:mod:`benchmarks.perf.scale_bench`, seed 7) and records its
timed section, which ends in a 60 s drain that the per-virtual-second
rate includes.  The instrumentation slows the run; the figures are all
counts and virtual times, so that does not change them.
"""

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]

#: Delay quantiles recorded: 0 %, 2.5 %, ..., 100 %.
QUANTILE_STEPS = 40


class _Recorder:
    def __init__(self) -> None:
        self.on = False
        self.now = 0.0
        self.first = self.last = None
        self.pops = self.pushes = 0
        self.depths: List[int] = []
        self.delays: List[float] = []
        self.pushed_at: Dict[object, float] = {}

    def install(self) -> None:
        from repro.sim.events import EventQueue

        push, pop_due = EventQueue.push, EventQueue.pop_due
        rec = self

        def counted_push(queue, time, callback, args):
            if not rec.on:
                return push(queue, time, callback, args)
            rec.pushes += 1
            event = push(queue, time, callback, args)
            rec.pushed_at[event] = rec.now
            return event

        def counted_pop_due(queue, limit):
            event = pop_due(queue, limit)
            if event is not None:
                rec.now = event.time
                if rec.on:
                    rec.pops += 1
                    if rec.first is None:
                        rec.first = event.time
                    rec.last = event.time
                    pushed_at = rec.pushed_at.pop(event, None)
                    if pushed_at is not None:
                        rec.delays.append(event.time - pushed_at)
                    if rec.pops % 7 == 0:
                        rec.depths.append(len(queue))
            return event

        EventQueue.push, EventQueue.pop_due = counted_push, counted_pop_due

    def report(self, run: str) -> Dict:
        delays = sorted(self.delays)
        depths = sorted(self.depths)
        n = len(delays)
        span = self.last - self.first
        return {
            "run": run,
            "virtual_s": round(span, 1),
            "events": self.pops,
            "events_per_virtual_s": round(self.pops / span, 1),
            "pending_median": depths[len(depths) // 2],
            "pending_p10_p90": [depths[len(depths) // 10], depths[len(depths) * 9 // 10]],
            "pushes": self.pushes,
            "delay_mean_s": round(sum(delays) / n, 4),
            "delay_quantiles_s": [
                float(f"{delays[min(n - 1, i * n // QUANTILE_STEPS)]:.4g}")
                for i in range(QUANTILE_STEPS + 1)
            ],
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run", choices=["query-scan", "insert-stream", "scale"])
    parser.add_argument("--nodes", type=int, default=1000, help="scale tier only")
    parser.add_argument("--records", type=int, default=200_000, help="scale tier only")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    rec = _Recorder()
    rec.install()
    if args.run == "scale":
        from benchmarks.perf.scale_bench import run_scale_scenario
        from repro.core.cluster import MindCluster
        from repro.net import protocol

        advance = MindCluster.advance

        def recorded_advance(cluster, seconds):
            # The scale tier's timed section is its one ``advance`` call.
            rec.on = True
            try:
                return advance(cluster, seconds)
            finally:
                rec.on = False

        MindCluster.advance = recorded_advance
        protocol.set_validation(False)
        run_scale_scenario(nodes=args.nodes, records=args.records, seed=7)
        label = f"scale {args.nodes} nodes / {args.records} records"
    else:
        from mindbench import run as mindbench_run
        from mindbench import workloads

        timed_run = workloads.OpenLoop.run

        def recorded_run(loop):
            rec.on = not loop.preload
            try:
                return timed_run(loop)
            finally:
                rec.on = False

        workloads.OpenLoop.run = recorded_run
        # mindbench prints its own result line first; ours is the last.
        mindbench_run.main(["--workload", args.run, "--seed", "1", "--seconds", "30", "--trace", "0"])
        label = f"{args.run} timed phase"
    print(json.dumps(rec.report(label)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
