"""Tests for the three baseline architectures."""

import pytest

from repro.baselines.centralized import CentralizedSystem
from repro.baselines.dht import UniformHashSystem
from repro.baselines.flooding import QueryFloodingSystem
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.net.topology import ABILENE_SITES


def make_schema():
    return IndexSchema(
        "b",
        attributes=[
            AttributeSpec("x", 0.0, 1000.0),
            AttributeSpec("timestamp", 0.0, 86400.0, is_time=True),
        ],
    )


SYSTEMS = [QueryFloodingSystem, CentralizedSystem, UniformHashSystem]


@pytest.mark.parametrize("cls", SYSTEMS)
def test_insert_and_query_round_trip(cls):
    system = cls(ABILENE_SITES, make_schema(), seed=1)
    r1 = Record([100.0, 50.0])
    r2 = Record([900.0, 50.0])
    m1 = system.insert_now(r1, origin="CHIN")
    m2 = system.insert_now(r2, origin="NYCM")
    assert m1.success and m2.success

    query = RangeQuery("b", {"x": (0, 500), "timestamp": (0, 100)})
    metric = system.query_now(query, origin="LOSA")
    assert metric.complete
    assert metric.record_keys == {r1.key}


@pytest.mark.parametrize("cls", SYSTEMS)
def test_query_latency_positive(cls):
    system = cls(ABILENE_SITES, make_schema(), seed=2)
    system.insert_now(Record([1.0, 1.0]), origin="CHIN")
    metric = system.query_now(RangeQuery("b", {}), origin="CHIN")
    assert metric.latency > 0


def test_flooding_insert_is_local():
    system = QueryFloodingSystem(ABILENE_SITES, make_schema(), seed=3)
    metric = system.insert_now(Record([1.0, 1.0]), origin="CHIN")
    assert metric.hops == 0
    assert metric.latency < 0.05  # no WAN round trip


def test_flooding_query_visits_everyone():
    system = QueryFloodingSystem(ABILENE_SITES, make_schema(), seed=4)
    metric = system.query_now(RangeQuery("b", {}), origin="CHIN")
    assert metric.cost == len(ABILENE_SITES) - 1


def test_centralized_query_visits_one_node():
    system = CentralizedSystem(ABILENE_SITES, make_schema(), seed=5)
    system.insert_now(Record([1.0, 1.0]), origin="NYCM")
    metric = system.query_now(RangeQuery("b", {}), origin="NYCM")
    assert metric.cost == 1
    assert metric.records == 1


def test_centralized_all_data_at_server():
    system = CentralizedSystem(ABILENE_SITES, make_schema(), seed=6)
    for i in range(10):
        system.insert_now(Record([float(i), 1.0]), origin="LOSA")
    assert len(system.by_address[system.server].store) == 10
    others = [n for n in system.nodes if n.address != system.server]
    assert all(len(n.store) == 0 for n in others)


def test_dht_storage_is_spread():
    system = UniformHashSystem(ABILENE_SITES, make_schema(), seed=7)
    for i in range(60):
        system.insert_now(Record([float(i % 100), 1.0]), origin="CHIN")
    occupancy = [len(n.store) for n in system.nodes]
    assert sum(occupancy) == 60
    assert max(occupancy) < 20  # no single node hoards the data


def test_dht_range_query_contacts_all_nodes():
    system = UniformHashSystem(ABILENE_SITES, make_schema(), seed=8)
    system.insert_now(Record([5.0, 1.0]), origin="CHIN")
    metric = system.query_now(RangeQuery("b", {"x": (0, 10)}), origin="CHIN")
    assert metric.cost == len(ABILENE_SITES) - 1
    assert metric.records == 1


def test_registering_an_unregistered_kind_raises():
    system = CentralizedSystem(ABILENE_SITES, make_schema(), seed=1)
    node = system.nodes[0]
    with pytest.raises(ValueError, match="'mystery'"):
        node.handlers["mystery"] = lambda msg: None
