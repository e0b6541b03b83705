"""The originator's batched response filter keeps what ``matches`` keeps.

``MindNode._apply_query_response`` filters every response with one
``normalize_batch`` + ``rect_mask`` over the whole batch of shipped
``Record`` objects.  These tests drive that method on a small cluster
with generated responses and compare the records it keeps — which keys,
in which order, which copy of a duplicated key, and how many count as
failover replicas — against a per-record evaluation with the scalar
reference ``RangeQuery.matches``.
"""

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.net.message import freeze_payload

SCHEMA = IndexSchema(
    "rf",
    attributes=[
        AttributeSpec("x", 0.0, 100.0),
        AttributeSpec("timestamp", 0.0, 86400.0, is_time=True),
        AttributeSpec("v", -50.0, 50.0),
    ],
    payload_names=("copy",),
)

# Every domain is overflowed on both sides, so clamping to 0 and to the
# top of the range (``1 - eps``) is always in play.
values_strategy = st.tuples(
    st.floats(min_value=-10.0, max_value=1.0e6, allow_nan=False, width=32),
    st.floats(min_value=-5.0, max_value=2.0e5, allow_nan=False, width=32),
    st.floats(min_value=-1000.0, max_value=60.0, allow_nan=False, width=32),
)


def bound(lo: float, hi: float):
    return st.one_of(st.none(), st.floats(min_value=lo, max_value=hi, allow_nan=False))


# Sides may be unbounded (None), lie outside the domain, or cross (an
# empty interval).
query_strategy = st.builds(
    lambda x, t, v: RangeQuery("rf", {"x": x, "timestamp": t, "v": v}),
    st.tuples(bound(-20.0, 2.0e6), bound(-20.0, 2.0e6)),
    st.tuples(bound(-10.0, 2.0e5), bound(-10.0, 2.0e5)),
    st.tuples(bound(-100.0, 100.0), bound(-100.0, 100.0)),
)


@pytest.fixture(scope="module")
def cluster():
    cluster = MindCluster(4, ClusterConfig(seed=131))
    cluster.build()
    cluster.create_index(SCHEMA)
    yield cluster
    cluster.close()


def reference(query: RangeQuery, responses) -> Tuple[Dict[int, Record], int]:
    """Per-record merge with the scalar ``RangeQuery.matches``."""
    kept: Dict[int, Record] = {}
    replicas = 0
    for records, failover in responses:
        for record in records:
            if query.matches(SCHEMA, record):
                if failover and record.key not in kept:
                    replicas += 1
                kept[record.key] = record
    return kept, replicas


def run_responses(cluster, query: RangeQuery, responses, frozen: bool = False):
    """Feed ``responses`` to a live query op; return (records, replicas).

    The responses name regions the op never launched, so they merge
    records without completing it.  The op then finishes normally from
    its real sub-queries (the cluster stores nothing) and its metric is
    checked against the op state it read before.
    """
    node = cluster.nodes[0]
    done = []
    op_id = node.query_index(query, callback=done.append)
    op = node._query_ops[op_id]
    valid_from = next(iter(op.inner_by_version))
    for i, (records, failover) in enumerate(responses):
        payload = {
            "qid": op_id,
            "version": valid_from,
            "region": f"injected-{i}",
            "spawned": [],
            "records": records,
            "path": [node.address],
            "responder": cluster.nodes[1].address,
            "attempt": 1,
            "failover": failover,
        }
        node._apply_query_response(freeze_payload(payload) if frozen else payload)
    kept = dict(op.records)
    replicas = op.metric.replica_records
    cluster.sim.run_until_predicate(lambda: bool(done), timeout=120.0)
    assert done and done[0].complete
    assert [r.key for r in done[0].results] == list(kept)
    return kept, replicas


def assert_same(got: Dict[int, Record], want: Dict[int, Record]) -> None:
    assert list(got) == list(want)
    for key, record in want.items():
        assert got[key].values == record.values
        assert got[key].payload == record.payload


@st.composite
def responses_strategy(draw):
    """Up to four responses drawn from one record pool.

    Keys repeat within and across responses; each copy carries its
    response number in the payload, so the test sees which copy the merge
    kept.
    """
    rows = draw(st.lists(values_strategy, min_size=1, max_size=40))
    pool = [Record(values) for values in rows]
    responses = []
    for i in range(draw(st.integers(0, 4))):
        picked = draw(st.lists(st.sampled_from(pool), max_size=60))
        copies = [Record(r.values, {"copy": i}, r.key) for r in picked]
        responses.append((copies, draw(st.booleans())))
    return responses


@settings(max_examples=60, deadline=None)
@given(query=query_strategy, responses=responses_strategy(), frozen=st.booleans())
def test_batched_filter_keeps_what_matches_keeps(cluster, query, responses, frozen):
    want, want_replicas = reference(query, responses)
    got, replicas = run_responses(cluster, query, responses, frozen)
    assert_same(got, want)
    assert replicas == want_replicas


def make_records(rows: List[tuple], tag: int = 0) -> List[Record]:
    return [Record(values, {"copy": tag}) for values in rows]


def test_clamped_top_of_range_records_match_unbounded_top(cluster):
    # x and v far beyond their domains normalize to 1 - eps; a query whose
    # top side is open or at/above the domain edge must keep them.
    records = make_records([(5.0e5, 100.0, 900.0), (99.0, 100.0, 49.0), (10.0, 100.0, -60.0)])
    for query in (
        RangeQuery("rf", {"x": (50.0, None)}),
        RangeQuery("rf", {"x": (50.0, 100.0), "v": (0.0, 75.0)}),
        RangeQuery("rf", {"x": (50.0, 99.5)}),
    ):
        want, _ = reference(query, [(records, False)])
        got, _ = run_responses(cluster, query, [(records, False)])
        assert_same(got, want)
    assert len(want) == 1  # 99.5 is inside the domain: the clamped record is out


def test_empty_response_keeps_nothing(cluster):
    got, replicas = run_responses(cluster, RangeQuery("rf", {}), [([], True)])
    assert got == {} and replicas == 0


def test_all_match_response_keeps_everything_in_order(cluster):
    records = make_records([(float(i), 10.0 * i, 0.0) for i in range(50)])
    records += records[:5]  # a repeated key is kept once, at its first position
    got, _ = run_responses(cluster, RangeQuery("rf", {}), [(records, False)])
    assert list(got) == [r.key for r in records[:50]]


def test_dedup_and_failover_replica_count(cluster):
    rows = [(1.0, 10.0, 0.0), (2.0, 20.0, 0.0), (3.0, 30.0, 0.0)]
    primary = make_records(rows, tag=0)
    # The failover response repeats all three keys with new payloads and
    # adds a fourth record.  The two keys the primary response did not
    # carry count as replica records, and the later copies win.
    keys = [r.key for r in primary]
    failover = [Record(values, {"copy": 1}, key) for values, key in zip(rows, keys)]
    failover.append(Record((4.0, 40.0, 0.0), {"copy": 1}))
    responses = [(primary[:2], False), (failover, True)]
    query = RangeQuery("rf", {"x": (0.0, 50.0)})
    want, want_replicas = reference(query, responses)
    got, replicas = run_responses(cluster, query, responses)
    assert_same(got, want)
    assert replicas == want_replicas == 2
    assert [r.payload["copy"] for r in got.values()] == [1, 1, 1, 1]
