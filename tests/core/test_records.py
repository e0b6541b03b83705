"""``Record`` is an immutable value, so it crosses the wire as itself.

Every record a MIND node sends — inserts, replicas, sibling data, query
responses, trigger fires, the baselines' traffic — travels in the message
payload as the ``Record`` object.  That is only sound if no receiver can
change anything it reaches from a record: setting an attribute raises,
the payload is a read-only view, and the constructor copies the caller's
dict so the sender's own dict stays private.  The network deliveries run
at the ``copy`` and ``freeze`` message-isolation levels.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import Record
from repro.net.message import ISOLATE_COPY, ISOLATE_FREEZE, isolation
from repro.net.topology import Site
from repro.sim.kernel import Simulator
from tests.helpers import make_network

pytestmark = pytest.mark.sanitize

values_strategy = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4
).map(tuple)
payload_strategy = st.dictionaries(
    st.text(max_size=6),
    st.one_of(st.integers(), st.text(max_size=6), st.floats(allow_nan=False), st.none()),
    max_size=4,
)


def assert_read_only(record: Record) -> None:
    """Every way to change a record, or its payload, must raise."""
    for name, value in (("values", (0.0,)), ("payload", {}), ("key", -1)):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    # A name outside the slots: the frozen check raises, as AttributeError
    # or (a frozen slotted dataclass on Python 3.11) as TypeError.
    with pytest.raises((AttributeError, TypeError)):
        record.extra = 1
    with pytest.raises(AttributeError):
        del record.key
    with pytest.raises(TypeError):
        record.payload["__mutated__"] = 1
    for name in list(record.payload):
        with pytest.raises(TypeError):
            record.payload[name] = "changed"
        with pytest.raises(TypeError):
            del record.payload[name]
    assert not hasattr(record.payload, "update")
    assert not hasattr(record.payload, "pop")
    assert isinstance(record.values, tuple)


def deliver_record(record: Record, level: str) -> Record:
    """Ship a record a->b in a ``replica_store`` message; return what arrives."""
    sim = Simulator(seed=7)
    sites = {"a": Site("a", 0.0, 0.0, "t"), "b": Site("b", 1.0, 1.0, "t")}
    network = make_network(sim, sites)
    received = []
    network.register("a", received.append)
    network.register("b", received.append)
    with isolation(level):
        network.send("a", "b", "replica_store", {"index": "i", "record": record})
        sim.run_until_idle()
    assert len(received) == 1
    return received[0].payload["record"]


@settings(max_examples=50, deadline=None)
@given(values=values_strategy, payload=payload_strategy)
def test_record_is_read_only(values, payload):
    record = Record(values, payload)
    assert_read_only(record)
    assert record.values == tuple(values)
    assert record.payload == payload


@settings(max_examples=50, deadline=None)
@given(values=values_strategy, payload=payload_strategy)
def test_constructor_copies_the_callers_dict(values, payload):
    before = dict(payload)
    record = Record(values, payload)
    payload["__mutated__"] = 1
    for name in before:
        payload[name] = "changed"
    assert record.payload == before
    # A record built from another record's payload view owns its own copy.
    copy = Record(record.values, record.payload, record.key)
    assert copy.payload == record.payload and copy == record
    assert_read_only(copy)


def test_copies_of_a_record_are_equal_and_read_only():
    record = Record([1.0, 2.0], {"src": "10.0.0.0/8"})
    shallow = copy.copy(record)
    assert shallow == record and shallow.payload == record.payload
    assert_read_only(shallow)
    # An immutable value is its own deep copy, also inside a container.
    nested = copy.deepcopy({"records": [record]})
    assert nested["records"][0] is record


def test_payloadless_records_share_one_read_only_empty_view():
    # Records built without a payload share one empty view; a write to it
    # would reach every such record, so it must raise like any other.
    first, second = Record([1.0]), Record([2.0], {})
    assert first.payload is second.payload
    assert_read_only(first)
    assert first.payload == {} and first.key != second.key


@pytest.mark.parametrize("level", [ISOLATE_COPY, ISOLATE_FREEZE])
@settings(max_examples=20, deadline=None)
@given(values=values_strategy, payload=payload_strategy)
def test_record_survives_the_network_at_isolation_level(level, values, payload):
    original = Record(values, payload)
    arrived = deliver_record(original, level)
    assert arrived == original
    assert arrived.values == original.values
    assert arrived.payload == original.payload == payload
    assert_read_only(arrived)
    assert_read_only(original)
    assert original.payload == payload
