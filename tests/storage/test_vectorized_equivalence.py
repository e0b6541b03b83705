"""Property tests: the vectorized hot paths equal the scalar ground truth.

Every batch/columnar path introduced by the perf work — store inserts and
rectangle scans, histogram binning, balanced-cut derivation, batch point
codes — must return *exactly* what the original scalar implementation
returns for the same inputs, including the clamping of out-of-domain
values to the top of the normalized range documented in ``memtable.py``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balance import derive_cut_tree, histogram_from_records
from repro.core.cuts import BalancedCuts
from repro.core.embedding import Embedding
from repro.core.histogram import MultiDimHistogram
from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.storage.memtable import TimePartitionedStore

SCHEMA = IndexSchema(
    "equiv",
    attributes=[
        AttributeSpec("x", 0.0, 100.0),
        AttributeSpec("timestamp", 0.0, 1000.0, is_time=True),
        AttributeSpec("v", -50.0, 50.0),
    ],
)

# Timestamps crowd into three hot 100-s buckets (the stores below use
# bucket_s=100) and scatter thinly over the rest of the range, so a scan
# concatenates a few large buckets with many tiny ones.
timestamp_strategy = st.one_of(
    st.sampled_from([100.0, 700.0, 1300.0]).flatmap(
        lambda t: st.floats(min_value=t, max_value=t + 99.0, allow_nan=False, width=32)
    ),
    st.floats(min_value=-5.0, max_value=2000.0, allow_nan=False, width=32),
)

# Values deliberately overflow every domain (x up to 1e6, v down to -1e3)
# so the clamped top/bottom-of-range edge cases are always in play.
values_strategy = st.tuples(
    st.floats(min_value=-10.0, max_value=1.0e6, allow_nan=False, width=32),
    timestamp_strategy,
    st.floats(min_value=-1000.0, max_value=60.0, allow_nan=False, width=32),
)

records_strategy = st.lists(values_strategy, min_size=0, max_size=60).map(
    lambda rows: [Record(row) for row in rows]
)

# The store scans take sizes drawn uniformly up to a few hundred: left to
# itself hypothesis keeps lists short, and the hot buckets only grow
# large with many records.
scan_records_strategy = (
    st.integers(min_value=0, max_value=240)
    .flatmap(lambda n: st.lists(values_strategy, min_size=n, max_size=n))
    .map(lambda rows: [Record(row) for row in rows])
)

interval_strategy = st.tuples(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
).map(lambda pair: (min(pair), max(pair)))

rect_strategy = st.tuples(interval_strategy, interval_strategy, interval_strategy)


def make_stores(records):
    scalar = TimePartitionedStore(SCHEMA, bucket_s=100.0, vectorized=False)
    vector = TimePartitionedStore(SCHEMA, bucket_s=100.0, vectorized=True)
    for r in records:
        assert scalar.insert(r) == vector.insert(r)
    return scalar, vector


@settings(max_examples=60, deadline=None)
@given(records=scan_records_strategy, rect=rect_strategy)
def test_store_query_identical(records, rect):
    scalar, vector = make_stores(records)
    assert len(scalar) == len(vector)
    got_scalar = scalar.query(rect)
    got_vector = vector.query(rect)
    assert [r.key for r in got_scalar] == [r.key for r in got_vector]


@settings(max_examples=40, deadline=None)
@given(
    records=scan_records_strategy,
    rect=rect_strategy,
    t_range=st.tuples(
        st.floats(min_value=-10.0, max_value=2010.0, allow_nan=False),
        st.floats(min_value=-10.0, max_value=2010.0, allow_nan=False),
    ).map(lambda pair: (min(pair), max(pair))),
)
def test_store_query_with_time_range_identical(records, rect, t_range):
    scalar, vector = make_stores(records)
    got_scalar = scalar.query(rect, time_range=t_range)
    got_vector = vector.query(rect, time_range=t_range)
    assert [r.key for r in got_scalar] == [r.key for r in got_vector]


@settings(max_examples=40, deadline=None)
@given(records=records_strategy)
def test_insert_batch_matches_scalar_inserts(records):
    one_by_one = TimePartitionedStore(SCHEMA, vectorized=False)
    batched = TimePartitionedStore(SCHEMA, vectorized=True)
    inserted = sum(1 for r in records if one_by_one.insert(r))
    assert batched.insert_batch(records) == inserted
    # Re-inserting the same batch is a no-op in both.
    assert batched.insert_batch(records) == 0
    assert len(batched) == len(one_by_one)
    full = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    assert [r.key for r in batched.query(full)] == [
        r.key for r in one_by_one.query(full)
    ]


def test_clamping_edge_case_identical():
    # The documented out-of-domain behavior: values at/beyond hi land in
    # the top of the range and must match a rect whose top edge is 1.0 in
    # both implementations.
    records = [Record([1e9, 500.0, 0.0]), Record([-1e9, 500.0, 49.999])]
    scalar, vector = make_stores(records)
    top_rect = ((0.999999, 1.0), (0.0, 1.0), (0.0, 1.0))
    bottom_rect = ((0.0, 1e-9), (0.0, 1.0), (0.0, 1.0))
    for rect in (top_rect, bottom_rect):
        assert [r.key for r in scalar.query(rect)] == [r.key for r in vector.query(rect)]


@settings(max_examples=40, deadline=None)
@given(records=records_strategy)
def test_histogram_bin_counts_identical(records):
    grains = (8, 16, 4)
    scalar = histogram_from_records(SCHEMA, records, grains, vectorized=False)
    vector = histogram_from_records(SCHEMA, records, grains, vectorized=True)
    assert scalar.cell_counts() == vector.cell_counts()
    assert scalar.total == vector.total


@settings(max_examples=30, deadline=None)
@given(records=records_strategy, rect=rect_strategy, dim=st.integers(0, 2))
def test_split_point_identical(records, rect, dim):
    grains = (8, 16, 4)
    hist = histogram_from_records(SCHEMA, records, grains)
    # Degenerate rectangles make the cut fall back to the midpoint; keep
    # them out so the weighted-median path itself is what's compared.
    rect = tuple((lo, hi if hi > lo else lo + 0.25) for lo, hi in rect)
    hist.vectorized = True
    vec = hist.split_point(rect, dim)
    hist.vectorized = False
    sca = hist.split_point(rect, dim)
    assert vec == sca


@settings(max_examples=30, deadline=None)
@given(records=records_strategy, rect=rect_strategy)
def test_count_in_rect_agrees(records, rect):
    grains = (8, 16, 4)
    hist = histogram_from_records(SCHEMA, records, grains)
    hist.vectorized = True
    vec = hist.count_in_rect(rect)
    hist.vectorized = False
    sca = hist.count_in_rect(rect)
    # Summation order differs (pairwise vs sequential), so allow ulps.
    assert math.isclose(vec, sca, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=20, deadline=None)
@given(records=records_strategy, depth=st.integers(0, 6))
def test_derived_cut_trees_identical(records, depth):
    grains = (8, 16, 4)
    hist = histogram_from_records(SCHEMA, records, grains)
    assert derive_cut_tree(hist, depth, vectorized=True) == derive_cut_tree(
        hist, depth, vectorized=False
    )


@settings(max_examples=20, deadline=None)
@given(records=st.lists(values_strategy, min_size=1, max_size=40), depth=st.integers(1, 12))
def test_point_codes_batch_matches_scalar(records, depth):
    hist = histogram_from_records(SCHEMA, [Record(v) for v in records], (8, 16, 4))
    embedding = Embedding(SCHEMA, BalancedCuts(hist), code_depth=depth)
    batch = embedding.point_codes_batch(list(records), depth=depth)
    scalar = [embedding.point_code(v, depth) for v in records]
    assert [c.bits for c in batch] == [c.bits for c in scalar]


@settings(max_examples=20, deadline=None)
@given(records=records_strategy, depth=st.integers(0, 5))
def test_preloaded_splits_reproduce_embedding_cuts(records, depth):
    hist = histogram_from_records(SCHEMA, records, (8, 16, 4))
    cuts = derive_cut_tree(hist, depth)
    fresh = Embedding(SCHEMA, BalancedCuts(hist), code_depth=max(depth, 1))
    lazy = Embedding(SCHEMA, BalancedCuts(hist), code_depth=max(depth, 1))
    fresh.preload_splits(cuts)
    for prefix in cuts:
        from repro.overlay.code import Code

        assert fresh.region_rect(Code(prefix)) == lazy.region_rect(Code(prefix))
    assert all(fresh._split_cache[p] == lazy._split_cache.get(p, fresh._split_cache[p]) for p in cuts)
