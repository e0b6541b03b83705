"""The three benchmark workloads and the open loop that runs them.

Everything here reaches the system only through its public API:
``MindCluster`` (build, ``create_index``, ``live_nodes``,
``storage_distribution``, ``close``), ``MindNode.insert_record`` /
``query_index``, ``FailureInjector.start_churn`` / ``stop_churn`` and the
cluster's ``Simulator`` (``schedule_many``, ``run_until``).  The workload
sets only deployment and traffic: node count, sites, seed,
``liveness_enabled=True``, replication, churn and the op streams.  Every
implementation knob — coalescing window, draw blocks, heartbeat
suppression, settle polling, GC — stays at its library default.

Arrivals are open loop in virtual time: each op is scheduled at its due
time on a seeded clock, independent of completions, and issues exactly
when due (so generator lateness is zero by construction).  Latency is
measured from the due time.  An op due at an origin that is down or
outside the overlay is re-homed to a live origin by the benchmark's own
seeded RNG, so the number of attempted ops is fixed per seed.
"""

import random
import resource
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from mindbench.oracle import Oracle
from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.net.topology import synthetic_planetlab_sites
from repro.overlay.node import OverlayConfig
from repro.traffic.generator import TrafficConfig
from repro.traffic.indices import FANOUT_CAP, INDEX1_FANOUT_MIN, index1_schema
from repro.traffic.prefixes import ADDRESS_SPACE

INDEX = "index1"
DAY_S = 86400.0
#: Virtual seconds after the last arrival by which every op must have
#: finished; op timeouts (90 s) bound the real drain well inside it.
DRAIN_LIMIT_S = 400.0
#: Seed of a workload's deployment: sites, join order, the cluster's
#: internal random streams (latency draws, the churn trace) and the
#: preload.  Fixed so that runs with different ``--seed`` measure one
#: deployment under different op streams: across deployments the churn
#: storm alone moves msgs/op by a factor of six.
DEPLOYMENT_SEED = 1
#: Records per virtual second per node, the paper's Section 4.3 rate (and
#: ``RATE_PER_NODE`` of ``benchmarks/test_fig14_large_scale.py``).  Every
#: insert stream here, preloads included, runs at this rate.
INSERT_RATE_PER_NODE = 1.0
#: Queries per virtual second: the baseline deployment behind Figs 9 and
#: 10 issues 30 queries per 300-second slice
#: (``QUERIES_PER_SLOT`` in ``benchmarks/baseline_run.py``).
QUERY_RATE = 30 / 300.0

#: First octets of the monitored networks of the skewed workload, spread
#: over the address space so even cuts split them across nodes.
NETWORK_OCTETS = (12, 40, 71, 98, 130, 161, 190, 210)
#: Zipf exponent of network popularity (prefix popularity inside a
#: network uses ``TrafficConfig.zipf_s``, as ``repro.traffic`` does).
NETWORK_ZIPF_S = 1.0


@dataclass(frozen=True)
class Churn:
    """Stationary crash/restore process (``FailureInjector.start_churn``)."""

    mean_between_crashes_s: float
    mean_downtime_s: float
    max_down: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nodes: int
    #: Co-located nodes (LAN latencies, the Fig-16 local cluster) instead
    #: of synthetic PlanetLab sites.
    colocated: bool
    replication: int
    #: Timed-phase query arrivals per *virtual* second.
    query_rate: float
    #: Timed-phase op counts per requested wall second of measurement,
    #: fixed constants (not measured), so a run's ops are a pure function
    #: of ``--seed`` and ``--seconds``.
    inserts_per_s: float
    queries_per_s: float
    preload: int = 0
    #: Virtual seconds the overlay runs between build and ``create_index``.
    settle_s: float = 0.0
    #: The timed phase is measured in consecutive segments of this many
    #: ops; wall-clock metrics are medians over segments, which keeps
    #: them steady under bursts of machine noise.  0 measures the whole
    #: phase as one segment, for workloads whose cost is uneven in time
    #: by design (churn storms).
    segment_ops: int = 0
    #: Zipf-skewed destination prefixes (else uniform over the space).
    skewed: bool = False
    #: "wide": one network's whole /8 over a 6 h window, with networks in
    #: fixed Zipf proportions and window starts spread over the day within
    #: every segment; "selective": 3% of the address space over the whole
    #: day.
    query_shape: str = "selective"
    #: Queries from random origins, or all from the observer (``nodes[0]``,
    #: which churn never crashes).
    queries_from_observer: bool = False
    churn: Optional[Churn] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="insert-stream",
            why="Fig-14 insert stream at 256 nodes: the per-message data plane "
            "(kernel, transmit/delivery, routing, origin embed) does the work",
            nodes=256,
            colocated=False,
            replication=0,
            query_rate=0.0,
            inserts_per_s=4000.0,
            queries_per_s=0.0,
            segment_ops=512,
        ),
        Workload(
            name="query-scan",
            why="Fig-9/10 wide range queries over a Zipf-skewed preloaded store: "
            "store scan, result shipping and merge do the work",
            nodes=32,
            colocated=False,
            replication=0,
            query_rate=QUERY_RATE,
            inserts_per_s=0.0,
            queries_per_s=40.0,
            preload=20_000,
            # Past the join-time sibling pointers' lifetime: while they
            # live, every sub-query also fetches from its split host, and
            # a run that crosses their expiry halves its query cost
            # midway.  The paper's queries met an overlay up for days.
            settle_s=OverlayConfig().sibling_pointer_ttl_s,
            segment_ops=12,
            skewed=True,
            query_shape="wide",
        ),
        Workload(
            name="churn-mixed",
            why="Fig-16 crash/restore churn at replication 1: liveness, ring "
            "recovery, retry/failover and replica writes do the work",
            nodes=64,
            colocated=True,
            replication=1,
            query_rate=QUERY_RATE,
            inserts_per_s=600.0,
            # Queries span the same virtual time as the inserts.
            queries_per_s=600.0 * QUERY_RATE / (64 * INSERT_RATE_PER_NODE),
            queries_from_observer=True,
            churn=Churn(mean_between_crashes_s=20.0, mean_downtime_s=40.0, max_down=4),
        ),
    )
}


# ----------------------------------------------------------------------
# Op streams (pure functions of the seed)
# ----------------------------------------------------------------------
@dataclass
class Stream:
    """One run's inputs: record values and the timed op schedule."""

    values: np.ndarray  # (records, 3): preload rows first
    preload_times: np.ndarray
    preload_origins: np.ndarray
    #: Timed ops sorted by due time (relative to the timed-phase start):
    #: ``kinds[i]`` is 0 for an insert of record ``refs[i]`` (a row of
    #: ``values``) and 1 for query ``queries[refs[i]]``.
    times: np.ndarray
    kinds: np.ndarray
    refs: np.ndarray
    origins: np.ndarray
    queries: List[RangeQuery]
    deployment_seed: int

    @property
    def ops(self) -> int:
        return len(self.times)


def _rng(workload: Workload, seed: int, purpose: int) -> np.random.Generator:
    tag = sum(ord(c) * 31**i for i, c in enumerate(workload.name)) % (2**31)
    return np.random.default_rng([seed, tag, purpose])


def _record_values(workload: Workload, rng: np.random.Generator, n: int) -> np.ndarray:
    stamps = rng.uniform(0.0, DAY_S, n)
    fanout = np.minimum(INDEX1_FANOUT_MIN + rng.lognormal(3.0, 1.2, n), FANOUT_CAP)
    if not workload.skewed:
        dest = rng.uniform(0.0, float(ADDRESS_SPACE), n)
        return np.column_stack([dest, stamps, fanout])
    # Zipf over networks, then Zipf over each network's 192 /16 prefixes
    # (the prefix pool of ``repro.traffic``), by popularity rank.
    net_w = 1.0 / np.arange(1, len(NETWORK_OCTETS) + 1) ** NETWORK_ZIPF_S
    pfx_w = 1.0 / np.arange(1, 193) ** TrafficConfig().zipf_s
    nets = rng.choice(len(NETWORK_OCTETS), size=n, p=net_w / net_w.sum())
    ranks = rng.choice(192, size=n, p=pfx_w / pfx_w.sum())
    dest = (np.array(NETWORK_OCTETS)[nets] << 24) + (ranks << 16)
    return np.column_stack([dest.astype(np.float64), stamps, fanout])


def _segment_networks(segment_ops: int) -> List[int]:
    """Networks of one segment's wide queries, in Zipf proportions.

    Stratified rather than drawn independently: every segment (and every
    seed) then carries the same mix of cheap and expensive scans, so
    per-segment timings are comparable.
    """
    weights = 1.0 / np.arange(1, len(NETWORK_OCTETS) + 1) ** NETWORK_ZIPF_S
    counts = np.maximum(1, np.round(segment_ops * weights / weights.sum())).astype(int)
    counts[0] += segment_ops - counts.sum()
    return [net for net, c in enumerate(counts.tolist()) for _ in range(c)]


def _queries(workload: Workload, rng: np.random.Generator, n: int) -> List[RangeQuery]:
    out = []
    if workload.query_shape == "wide":
        window = 6 * 3600.0
        segment = _segment_networks(workload.segment_ops)
        blocks = -(-n // len(segment))
        nets = np.concatenate([rng.permutation(segment) for _ in range(blocks)])
        # Window starts are stratified too: one per equal slice of the day.
        slices = (np.arange(len(segment)) + rng.uniform(0.0, 1.0, (blocks, len(segment))))
        starts = (slices / len(segment) * (DAY_S - window)).ravel()
        for net, t0 in zip(nets[:n].tolist(), starts[:n].tolist()):
            lo = float(NETWORK_OCTETS[net] << 24)
            out.append(RangeQuery(INDEX, {"dest_prefix": (lo, lo + float(1 << 24)),
                                          "timestamp": (t0, t0 + window)}))
    else:
        width = 0.03 * float(ADDRESS_SPACE)
        for lo in rng.uniform(0.0, float(ADDRESS_SPACE) - width, n).tolist():
            out.append(RangeQuery(INDEX, {"dest_prefix": (lo, lo + width)}))
    return out


def _poisson_times(rng: np.random.Generator, rate: float, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros(0)
    return np.cumsum(rng.exponential(1.0 / rate, n))


def make_stream(workload: Workload, seed: int, seconds: float, scale: float = 1.0,
                deployment_seed: int = DEPLOYMENT_SEED) -> Stream:
    """The inputs of one run; ``scale`` shrinks op counts for tests.

    The preload belongs to the deployment and is drawn from
    ``deployment_seed``; the timed ops are drawn from ``seed``.
    """
    seg = workload.segment_ops or 1

    def whole_segments(per_s: float) -> int:
        return seg * max(1, int(round(per_s * seconds * scale / seg))) if per_s else 0

    n_ins = whole_segments(workload.inserts_per_s)
    n_q = whole_segments(workload.queries_per_s)
    n_pre = int(round(workload.preload * scale))
    pre = _rng(workload, deployment_seed, 0)
    rng = _rng(workload, seed, 1)
    values = np.concatenate([_record_values(workload, pre, n_pre), _record_values(workload, rng, n_ins)])
    insert_rate = INSERT_RATE_PER_NODE * workload.nodes
    preload_times = _poisson_times(pre, insert_rate, n_pre)
    preload_origins = pre.integers(0, workload.nodes, n_pre)

    ins_t = _poisson_times(rng, insert_rate, n_ins)
    q_t = _poisson_times(rng, workload.query_rate or 1.0, n_q)
    times = np.concatenate([ins_t, q_t])
    kinds = np.concatenate([np.zeros(n_ins, dtype=np.int64), np.ones(n_q, dtype=np.int64)])
    refs = np.concatenate([np.arange(n_pre, n_pre + n_ins), np.arange(n_q)])
    ins_origins = rng.integers(0, workload.nodes, n_ins)
    if workload.queries_from_observer:
        q_origins = np.zeros(n_q, dtype=np.int64)
    else:
        q_origins = rng.integers(0, workload.nodes, n_q)
    origins = np.concatenate([ins_origins, q_origins])
    order = np.argsort(times, kind="stable")
    return Stream(
        values=values,
        preload_times=preload_times,
        preload_origins=preload_origins,
        times=times[order],
        kinds=kinds[order],
        refs=refs[order],
        origins=origins[order],
        queries=_queries(workload, rng, n_q),
        deployment_seed=deployment_seed,
    )


# ----------------------------------------------------------------------
# Deployment (the timed set-up)
# ----------------------------------------------------------------------
@dataclass
class Deployment:
    workload: Workload
    cluster: MindCluster
    oracle: Oracle
    rehome_rng: random.Random


def deploy(workload: Workload, seed: int, stream: Stream) -> Deployment:
    """Build the cluster, let it settle, create the index and run the
    preload.

    The deployment — sites, join order, the cluster's own random streams
    (and with them the churn trace), the preload — follows the stream's
    deployment seed; only the re-homing RNG follows the run's seed.
    """
    config = ClusterConfig(seed=stream.deployment_seed, overlay=OverlayConfig(liveness_enabled=True))
    if workload.colocated:
        cluster = MindCluster(workload.nodes, config)
    else:
        sites = synthetic_planetlab_sites(workload.nodes, random.Random(stream.deployment_seed))
        cluster = MindCluster(sites, config)
    cluster.build()
    cluster.advance(workload.settle_s)
    schema = index1_schema(DAY_S)
    cluster.create_index(schema, replication=workload.replication)
    dep = Deployment(workload, cluster, Oracle(schema, stream.values), random.Random(seed))
    if len(stream.preload_times):
        outcome = OpenLoop(dep, stream, preload=True).run()
        if outcome.failed:
            raise RuntimeError(f"{outcome.failed} preload inserts failed")
    return dep


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Raw measurements of one timed phase."""

    attempted: int
    #: Per measured segment: ops due in it, its wall and CPU seconds.
    segments: List[tuple]
    events: int
    messages_sent: int
    messages_delivered: int
    insert_latencies: np.ndarray
    insert_hops: np.ndarray
    query_latencies: np.ndarray
    query_nodes: np.ndarray
    inserts_failed: int
    queries_failed: int
    unfinished: int
    wrong_answers: int
    retries: int
    failovers: int
    rehomed: int
    storage_imbalance: float
    stored_vs_acked_ok: bool
    peak_rss_mb: float

    @property
    def wall_s(self) -> float:
        return sum(s[1] for s in self.segments)

    @property
    def cpu_s(self) -> float:
        return sum(s[2] for s in self.segments)

    @property
    def failed(self) -> int:
        return self.inserts_failed + self.queries_failed + self.unfinished + self.wrong_answers

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed


class OpenLoop:
    """Issues a stream's ops at their due times and collects the outcome.

    Completions land in flat arrays indexed by op, not in retained metric
    objects: thousands of live ``InsertMetric``/``QueryMetric`` objects
    (queries keep their result records) would grow the heap the
    collector scans and slow the program down as the run goes on.
    ``wrap`` lets the traced run mark the benchmark's own callbacks as
    harness work, so their time is not charged to the layer that called
    them.
    """

    def __init__(
        self,
        dep: Deployment,
        stream: Stream,
        preload: bool = False,
        wrap: Callable[[Callable], Callable] = lambda fn: fn,
    ) -> None:
        self.dep = dep
        self.cluster = dep.cluster
        self.stream = stream
        self.preload = preload
        if preload:
            n = len(stream.preload_times)
            self.times = stream.preload_times
            self.kinds = np.zeros(n, dtype=np.int64)
            self.refs = np.arange(n)
            self.origins = stream.preload_origins
        else:
            self.times, self.kinds = stream.times, stream.kinds
            self.refs, self.origins = stream.refs, stream.origins
        n = len(self.times)
        self.addresses = [node.address for node in self.cluster.nodes]
        self.outstanding = 0
        self.rehomed = 0
        self.done = np.zeros(n, dtype=bool)
        self.ok = np.zeros(n, dtype=bool)
        self.start = np.zeros(n)
        self.end = np.zeros(n)
        self.hops = np.zeros(n, dtype=np.int64)
        self.visited = np.zeros(n, dtype=np.int64)
        self.retries = np.zeros(n, dtype=np.int64)
        self.failovers = np.zeros(n, dtype=np.int64)
        self.answers: Dict[int, np.ndarray] = {}
        self._issue = wrap(self._issue)
        self._insert_done = wrap(self._insert_done)
        self._query_done = wrap(self._query_done)

    # -- issuing -------------------------------------------------------
    def _origin(self, idx: int):
        node = self.cluster.by_address[self.addresses[idx]]
        if node.in_overlay() and node.has_index(INDEX) and self.cluster.network.is_node_up(node.address):
            return node
        live = [n for n in self.cluster.live_nodes() if n.has_index(INDEX)]
        self.rehomed += 1
        return live[self.dep.rehome_rng.randrange(len(live))]

    def _issue(self, i: int) -> None:
        node = self._origin(int(self.origins[i]))
        ref = int(self.refs[i])
        self.outstanding += 1
        if self.kinds[i] == 0:
            key = ref + 1
            record = Record(self.stream.values[ref].tolist(), {"node": node.address}, key=key)
            self.dep.oracle.issued(key, self.cluster.sim.now)
            node.insert_record(INDEX, record, callback=lambda m, i=i: self._insert_done(i, m))
        else:
            node.query_index(self.stream.queries[ref], callback=lambda m, i=i: self._query_done(i, m))

    def _finish(self, i: int, metric, ok: bool) -> None:
        self.outstanding -= 1
        self.done[i] = True
        self.ok[i] = ok
        self.start[i] = metric.start
        self.end[i] = metric.end
        self.retries[i] = metric.retries
        self.failovers[i] = metric.failovers

    def _insert_done(self, i: int, metric) -> None:
        self._finish(i, metric, metric.success)
        if metric.success:
            self.hops[i] = metric.hops
            self.dep.oracle.acked(int(self.refs[i]) + 1, metric.end)

    def _query_done(self, i: int, metric) -> None:
        self._finish(i, metric, metric.complete)
        if metric.complete:
            self.visited[i] = metric.cost
            self.answers[i] = np.fromiter(metric.record_keys, dtype=np.int64, count=len(metric.record_keys))

    # -- running -------------------------------------------------------
    def run(self) -> Outcome:
        """Run every op to completion: the timed phase, or the preload.

        Segment ``k`` schedules its ops and runs virtual time up to the
        due time of the next segment's first op; the last segment also
        drains every op still in flight.
        """
        sim = self.cluster.sim
        net = self.cluster.network
        churn = None if self.preload else self.dep.workload.churn
        base = sim.now
        ev0, sent0, deliv0 = sim.events_processed, net.messages_sent, net.messages_delivered
        if churn is not None:
            pool = self.addresses[1:]
            self.cluster.failures.start_churn(
                pool, churn.mean_between_crashes_s, churn.mean_downtime_s, len(pool) - churn.max_down
            )
        times = self.times
        n = len(times)
        step = 1000 if self.preload else (self.dep.workload.segment_ops or n)
        segments = []
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            wall0, cpu0 = time.perf_counter(), time.process_time()
            sim.schedule_many([(base + float(times[i]), self._issue, (i,)) for i in range(lo, hi)])
            if hi < n:
                sim.run_until(base + float(times[hi]))
            else:
                sim.run_until(base + float(times[-1]))
                deadline = sim.now + DRAIN_LIMIT_S
                while self.outstanding and sim.now < deadline:
                    sim.run_until(sim.now + 1.0)
            segments.append((hi - lo, time.perf_counter() - wall0, time.process_time() - cpu0))
        if churn is not None:
            self.cluster.failures.stop_churn()
        return self._outcome(segments, sim.events_processed - ev0, net.messages_sent - sent0,
                             net.messages_delivered - deliv0)

    def _outcome(self, segments: List[tuple], events: int, sent: int, delivered: int) -> Outcome:
        inserts = self.kinds == 0
        ins_ok = inserts & self.ok
        qry_ok = ~inserts & self.ok
        wrong = 0
        oracle = self.dep.oracle
        for i in np.nonzero(qry_ok)[0].tolist():
            query = self.stream.queries[int(self.refs[i])]
            if oracle.violates(query, self.start[i], self.end[i], self.answers[i]):
                wrong += 1
                qry_ok[i] = False
        counts = list(self.cluster.storage_distribution(INDEX).values())
        mean = sum(counts) / len(counts) if counts else 0.0
        stored_ok = True
        if self.dep.workload.replication == 0 and self.dep.workload.churn is None:
            # Unreplicated and failure-free: every acked record is stored
            # exactly once, so the per-node counts must add up.
            stored_ok = sum(counts) == int(np.isfinite(oracle.acked_at).sum())
        if self.done.sum() + self.outstanding != len(self.times):
            raise RuntimeError("an op of the stream was never issued")
        return Outcome(
            attempted=len(self.times),
            segments=segments,
            events=events,
            messages_sent=sent,
            messages_delivered=delivered,
            insert_latencies=(self.end - self.start)[ins_ok],
            insert_hops=self.hops[ins_ok],
            query_latencies=(self.end - self.start)[qry_ok],
            query_nodes=self.visited[qry_ok],
            inserts_failed=int((inserts & self.done & ~self.ok).sum()),
            queries_failed=int((~inserts & self.done & ~self.ok).sum()),
            unfinished=self.outstanding,
            wrong_answers=wrong,
            retries=int(self.retries.sum()),
            failovers=int(self.failovers.sum()),
            rehomed=self.rehomed,
            storage_imbalance=max(counts) / mean if mean else 0.0,
            stored_vs_acked_ok=stored_ok,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
