"""``Record``'s wire form: a ``(values, payload, key)`` round trip.

Every record a MIND node sends — inserts, replicas, sibling data, query
responses, trigger fires, the baselines' traffic — crosses the simulated
wire as ``Record.to_wire()`` and is rebuilt with ``Record.from_wire``.
The rebuilt record must carry the same values, payload and key, and own
its payload dict, so a receiver's mutation can never reach the sender's
record.  The network round trips run at the ``copy`` and ``freeze``
message-isolation levels.
"""

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


def assert_same_record(clone: Record, original: Record) -> None:
    assert clone.values == original.values
    assert clone.payload == original.payload
    assert clone.key == original.key
    assert clone == original


def assert_owns_payload(clone: Record, original: Record) -> None:
    before = dict(original.payload)
    assert clone.payload is not original.payload
    clone.payload["__mutated__"] = 1
    for name in before:
        clone.payload[name] = "changed"
    assert original.payload == before


def deliver_record(record: Record, level: str) -> Record:
    """Ship a record a->b in a ``replica_store`` message; rebuild it."""
    sim = Simulator(seed=7)
    sites = {"a": Site("a", 0.0, 0.0, "t"), "b": Site("b", 1.0, 1.0, "t")}
    network = make_network(sim, sites)
    received = []
    network.register("a", received.append)
    network.register("b", received.append)
    with isolation(level):
        network.send("a", "b", "replica_store", {"index": "i", "record": record.to_wire()})
        sim.run_until_idle()
    assert len(received) == 1
    return Record.from_wire(received[0].payload["record"])


@settings(max_examples=50, deadline=None)
@given(values=values_strategy, payload=payload_strategy)
def test_from_wire_round_trip_copies_payload(values, payload):
    original = Record(values, payload)
    clone = Record.from_wire(original.to_wire())
    assert_same_record(clone, original)
    assert_owns_payload(clone, original)


@pytest.mark.parametrize("level", [ISOLATE_COPY, ISOLATE_FREEZE])
@settings(max_examples=20, deadline=None)
@given(values=values_strategy, payload=payload_strategy)
def test_record_survives_the_network_at_isolation_level(level, values, payload):
    original = Record(values, payload)
    clone = deliver_record(original, level)
    assert_same_record(clone, original)
    # Under ``freeze`` the delivered payload is a read-only view; the
    # rebuilt record still gets a plain, private dict.
    assert type(clone.payload) is dict
    assert_owns_payload(clone, original)


def test_wire_form_is_a_values_payload_key_tuple():
    record = Record([1, 2.5], {"node": "n1"}, key=42)
    assert record.to_wire() == ((1, 2.5), {"node": "n1"}, 42)
    assert Record.from_wire(((3.0,), {}, 7)).key == 7
