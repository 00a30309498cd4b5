"""Scenario construction, validation, and serialization round trips."""

import copy
import math
import random

import pytest

from vecopt.randgen import random_scenario
from vecopt.scenario import (
    CLASS_ORDER,
    DEMAND_CLASSES,
    EDGE_COUNT,
    VEHICLE_COUNT,
    VEHICLES_PER_EDGE,
    attachment_map,
    build_reference_scenario,
    cloud_pool,
    load_scenario,
    local_capacity,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_scenario,
    validate_scenario,
)
from vecopt.types import ModelOptions, ScenarioError

INSTRUCTIONS_PER_BIT = 2000.0


def test_fleet_shape():
    s = build_reference_scenario("small", 1)
    vehicles = s.tier_nodes("vehicle")
    edges = s.tier_nodes("edge")
    clouds = s.tier_nodes("cloud")
    assert len(vehicles) == VEHICLE_COUNT == 20
    assert len(edges) == EDGE_COUNT == 4
    assert len(clouds) == 1  # single_pool default
    assert [v.id for v in vehicles] == [f"v{i}" for i in range(20)]
    assert [e.id for e in edges] == [f"e{j}" for j in range(4)]


def test_local_capacity():
    s = build_reference_scenario("medium", 3)
    assert local_capacity(s) == 20 * 1600.0 + 4 * 3600.0 == 46400.0


def test_node_ratings():
    s = build_reference_scenario("small", 1)
    v = s.node("v0")
    assert (v.max_power_w, v.idle_power_w) == (10.0, 5.0)
    assert (v.processing_fraction, v.communication_fraction) == (0.58, 0.21)
    assert v.capacity_mips == 1600.0
    assert {i.kind: i.capacity_bps for i in v.interfaces} == {
        "dsrc": 27e6,
        "wifi": 150e6,
    }
    e = s.node("e0")
    assert (e.max_power_w, e.idle_power_w) == (37.5, 7.5)
    assert e.capacity_mips == 3600.0
    assert {i.kind for i in e.interfaces} == {"wifi", "core"}
    c = s.tier_nodes("cloud")[0]
    assert c.idle_power_w == 201.0
    assert c.max_power_w == 201.0 + c.capacity_mips / 100.0


def test_demand_classes():
    assert CLASS_ORDER == ("small", "medium", "large")
    assert DEMAND_CLASSES == {
        "small": 2880.0,
        "medium": 5760.0,
        "large": 11520.0,
    }
    # medium and large are clean multiples so overflow counts land exactly
    assert DEMAND_CLASSES["medium"] == 2 * DEMAND_CLASSES["small"]
    assert DEMAND_CLASSES["large"] == 4 * DEMAND_CLASSES["small"]


def test_demands_originate_at_distinct_vehicles():
    s = build_reference_scenario("large", 7)
    assert [d.source for d in s.demands] == [f"v{i}" for i in range(7)]
    for d in s.demands:
        assert d.workload_mips == 11520.0
        assert d.traffic_bps == d.workload_mips * 1e6 / INSTRUCTIONS_PER_BIT


def test_request_count_bounds():
    with pytest.raises(ScenarioError):
        build_reference_scenario("small", -1)
    with pytest.raises(ScenarioError):
        build_reference_scenario("small", VEHICLE_COUNT + 1)
    with pytest.raises(ScenarioError):
        build_reference_scenario("tiny", 1)
    empty = build_reference_scenario("small", 0)
    assert empty.demands == ()


def test_attachment_groups_vehicles_under_edges():
    s = build_reference_scenario("small", 1)
    attach = attachment_map(s.nodes)
    for i in range(VEHICLE_COUNT):
        assert attach[f"v{i}"] == f"e{i // VEHICLES_PER_EDGE}"


def test_link_rates():
    s = build_reference_scenario("small", 1)
    kinds = {}
    for link in s.links:
        kinds.setdefault(link.kind, set()).add(link.capacity_bps)
    assert kinds["dsrc"] == {27e6}
    assert kinds["wifi"] == {150e6}
    assert "core" in kinds


def test_routes_cover_every_demand_node_pair():
    s = build_reference_scenario("medium", 4)
    for demand in s.demands:
        for node in s.nodes:
            path = s.route(demand.source, node.id)
            if node.id == demand.source:
                assert len(path) == 0
                continue
            at = demand.source
            for link_id in path.links:
                link = s.link(link_id)
                assert link.head == at
                at = link.tail
            assert at == node.id


def test_validate_accepts_reference_scenarios():
    for cls in CLASS_ORDER:
        for count in (0, 1, 10):
            assert validate_scenario(build_reference_scenario(cls, count)) == []


def test_validate_flags_unknown_source():
    doc = scenario_to_dict(build_reference_scenario("small", 1))
    doc["demands"][0]["source"] = "v99"
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_validate_flags_overcommitted_power_split():
    doc = scenario_to_dict(build_reference_scenario("small", 1))
    doc["nodes"][0]["processing_fraction"] = 0.9
    doc["nodes"][0]["communication_fraction"] = 0.4
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_validate_flags_duplicate_node_id():
    doc = scenario_to_dict(build_reference_scenario("small", 1))
    doc["nodes"].append(dict(doc["nodes"][0]))
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


BAD_NUMBERS = (float("nan"), float("inf"), float("-inf"), "1", None, True)


def number_fields(doc):
    """(entity, field) for one of each kind of number in the document."""
    node, demand = doc["nodes"][0], doc["demands"][0]
    fields = [
        (node, name)
        for name in (
            "max_power_w",
            "idle_power_w",
            "processing_fraction",
            "communication_fraction",
            "capacity_mips",
        )
    ]
    fields.append((node["interfaces"][0], "capacity_bps"))
    fields += [(demand, "workload_mips"), (demand, "traffic_bps")]
    if "links" in doc:
        link = doc["links"][0]
        fields += [(link, "capacity_bps"), (link, "energy_per_bit")]
    return fields


@pytest.mark.parametrize("wired", [True, False])
def test_validate_rejects_numbers_that_are_not_finite(wired):
    base = scenario_to_dict(build_reference_scenario("small", 1))
    if not wired:  # the loader wires links from the node numbers
        del base["links"], base["routes"]
    for k in range(len(number_fields(base))):
        for value in BAD_NUMBERS:
            doc = copy.deepcopy(base)
            entity, name = number_fields(doc)[k]
            if name == "traffic_bps" and value is None:
                continue  # absent traffic is derived from the workload
            entity[name] = value
            with pytest.raises(ScenarioError):
                scenario_from_dict(doc)


def test_loader_reports_unpriceable_nodes_and_workloads():
    doc = scenario_to_dict(build_reference_scenario("small", 1))
    del doc["links"], doc["routes"]
    idle_above_max = copy.deepcopy(doc)
    idle_above_max["nodes"][0]["idle_power_w"] = 1e9
    with pytest.raises(ScenarioError, match="power budget"):
        scenario_from_dict(idle_above_max)
    negative = copy.deepcopy(doc)
    del negative["demands"][0]["traffic_bps"]
    negative["demands"][0]["workload_mips"] = -1.0
    with pytest.raises(ScenarioError, match="workload"):
        scenario_from_dict(negative)


def test_serialization_is_deterministic():
    a = serialize_scenario(build_reference_scenario("medium", 5))
    b = serialize_scenario(build_reference_scenario("medium", 5))
    assert a == b


def test_round_trip_preserves_scenario():
    s = build_reference_scenario("large", 2)
    again = scenario_from_dict(scenario_to_dict(s))
    assert again.nodes == s.nodes
    assert again.demands == s.demands
    assert again.links == s.links
    assert again.routes == s.routes


def test_round_trip_random_scenarios():
    rng = random.Random(1234)
    for _ in range(20):
        s = random_scenario(rng.randrange(2**31))
        assert validate_scenario(s) == []
        again = scenario_from_dict(scenario_to_dict(s))
        assert again.nodes == s.nodes
        assert again.demands == s.demands
        assert serialize_scenario(again) == serialize_scenario(s)


def test_save_and_load(tmp_path):
    s = build_reference_scenario("small", 3)
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    loaded = load_scenario(path)
    assert loaded.nodes == s.nodes
    assert loaded.demands == s.demands
    assert serialize_scenario(loaded) == serialize_scenario(s)


def test_loader_recomputes_missing_routes():
    doc = scenario_to_dict(build_reference_scenario("small", 2))
    doc.pop("routes")
    s = scenario_from_dict(doc)
    assert s.route("v0", "v1").links
    assert validate_scenario(s) == []


def test_cloud_pool_single_pool_aggregates_idle():
    opts = ModelOptions()
    pool = cloud_pool(34000.0, opts)
    assert len(pool) == 1
    servers = math.ceil(34000.0 / opts.cloud_server_capacity) + 1
    assert pool[0].capacity_mips == servers * opts.cloud_server_capacity
    assert pool[0].idle_power_w == 201.0


def test_cloud_pool_per_server_counts():
    opts = ModelOptions(cloud_provisioning="per_server")
    pool = cloud_pool(34000.0, opts)
    assert len(pool) == math.ceil(34000.0 / opts.cloud_server_capacity) + 1
    assert all(n.capacity_mips == opts.cloud_server_capacity for n in pool)


def test_cloud_pool_never_binds():
    rng = random.Random(99)
    for _ in range(50):
        work = rng.uniform(1.0, 3e5)
        for prov in ("single_pool", "per_server"):
            opts = ModelOptions(cloud_provisioning=prov)
            pool = cloud_pool(work, opts)
            assert sum(n.capacity_mips for n in pool) >= work


def test_random_scenarios_are_reproducible():
    for seed in (0, 7, 123456):
        a = random_scenario(seed)
        b = random_scenario(seed)
        assert serialize_scenario(a) == serialize_scenario(b)
