"""Power derivation and placement evaluation against hand-computed values."""

import random

import pytest

from vecopt.power import (
    DerivationError,
    cloud_only_baseline,
    cloud_only_placement,
    derive_power_params,
    evaluate_placement,
    node_power,
    traffic_for_workload,
)
from vecopt.randgen import random_scenario
from vecopt.scenario import build_reference_scenario
from vecopt.types import (
    InterfaceSpec,
    ModelOptions,
    NodeSpec,
    Placement,
    PlacementError,
)

OPTS = ModelOptions()


def vehicle_params():
    s = build_reference_scenario("small", 1)
    return derive_power_params(s.node("v0"), OPTS)


def test_stated_efficiencies():
    s = build_reference_scenario("small", 1)
    assert derive_power_params(s.node("v0"), OPTS).efficiency_mips_per_w == 550.0
    assert derive_power_params(s.node("e0"), OPTS).efficiency_mips_per_w == 340.0
    cloud = s.tier_nodes("cloud")[0]
    assert derive_power_params(cloud, OPTS).efficiency_mips_per_w == 100.0


def test_generic_efficiency_derivation():
    spec = NodeSpec(
        id="x",
        tier="vehicle",
        max_power_w=12.0,
        idle_power_w=4.0,
        processing_fraction=0.5,
        communication_fraction=0.25,
        capacity_mips=2000.0,
        interfaces=(InterfaceSpec("wifi", 100e6),),
    )
    params = derive_power_params(spec, OPTS)
    # capacity over the processing share of the 8 W span
    assert params.efficiency_mips_per_w == pytest.approx(2000.0 / 4.0)
    assert params.energy_per_bit["wifi"] == pytest.approx(2.0 / 100e6)


def test_interface_energy_per_bit():
    s = build_reference_scenario("small", 1)
    v = derive_power_params(s.node("v0"), OPTS)
    # 5 W span x 0.21 comm share spread over each interface's line rate
    assert v.energy_per_bit["dsrc"] == pytest.approx(1.05 / 27e6)
    assert v.energy_per_bit["wifi"] == pytest.approx(1.05 / 150e6)
    e = derive_power_params(s.node("e0"), OPTS)
    assert e.energy_per_bit["wifi"] == pytest.approx(19.5 / 150e6)
    # core transport is charged at the cloud end only
    assert e.energy_per_bit["core"] == 0.0
    c = derive_power_params(s.tier_nodes("cloud")[0], OPTS)
    assert c.energy_per_bit["core"] == OPTS.cloud_path_energy_per_bit


def test_derivation_rejects_degenerate_specs():
    base = dict(
        id="x",
        tier="vehicle",
        max_power_w=10.0,
        idle_power_w=5.0,
        processing_fraction=0.0,
        communication_fraction=0.2,
        capacity_mips=100.0,
        interfaces=(InterfaceSpec("wifi", 100e6),),
    )
    with pytest.raises(DerivationError):
        derive_power_params(NodeSpec(**base), OPTS)
    base["processing_fraction"] = 0.5
    base["interfaces"] = (InterfaceSpec("wifi", 0.0),)
    with pytest.raises(DerivationError):
        derive_power_params(NodeSpec(**base), OPTS)


def test_traffic_for_workload():
    assert traffic_for_workload(2880.0, 2000.0) == pytest.approx(1.44e6)
    assert traffic_for_workload(0.0, 2000.0) == 0.0
    with pytest.raises(ValueError):
        traffic_for_workload(100.0, 0.0)
    with pytest.raises(ValueError):
        traffic_for_workload(-1.0, 2000.0)


def test_node_power_operating_points():
    params = vehicle_params()
    assert node_power(params, active=False) == 0.0
    assert node_power(params, active=True) == 5.0
    watts = node_power(
        params,
        active=True,
        load_mips=1100.0,
        tx_bps={"dsrc": 1e6},
        rx_bps={"wifi": 2e6},
    )
    expect = 5.0 + 1100.0 / 550.0 + 1e6 * (1.05 / 27e6) + 2e6 * (1.05 / 150e6)
    assert watts == pytest.approx(expect)


def test_inactive_node_must_stay_unloaded():
    params = vehicle_params()
    with pytest.raises(PlacementError):
        node_power(params, active=False, load_mips=10.0)
    with pytest.raises(PlacementError):
        node_power(params, active=False, tx_bps={"dsrc": 1.0})


def test_two_vehicle_split_power():
    # d0 at v0 split 1280 local + 1600 on v1 over the dsrc pair link:
    # idle 2x5, processing (1280+1600)/550, one 1.44 Mbps transfer at
    # (1.05/27e6) J/bit on each end.
    s = build_reference_scenario("small", 1)
    placement = Placement.build(s, {("d0", "v0"): 1280.0, ("d0", "v1"): 1600.0})
    report = evaluate_placement(s, placement)
    rows = {r.node_id: r for r in report.nodes if r.total_w}
    assert set(rows) == {"v0", "v1"}
    pair_w = 1.44e6 * 1.05 / 27e6
    assert rows["v0"].communication_w == pytest.approx(pair_w)
    assert rows["v1"].communication_w == pytest.approx(pair_w)
    assert rows["v0"].processing_w == pytest.approx(1280.0 / 550.0)
    assert rows["v1"].processing_w == pytest.approx(1600.0 / 550.0)
    assert report.total_w == pytest.approx(
        10.0 + 2880.0 / 550.0 + 2 * pair_w
    )
    assert report.total_w == pytest.approx(15.348363636363636, rel=1e-12)


def test_tier_rollup_sums_node_rows():
    s = build_reference_scenario("medium", 2)
    report = cloud_only_baseline(s)
    assert report.total_w == pytest.approx(sum(r.total_w for r in report.nodes))
    for tier in ("vehicle", "edge", "cloud"):
        assert report.tier_total(tier) == pytest.approx(
            sum(r.total_w for r in report.nodes if r.tier == tier)
        )
    doc = report.to_dict()
    assert set(doc) == {"total_w", "tiers", "nodes"}
    assert doc["tiers"]["cloud"]["load_mips"] == pytest.approx(11520.0)


def test_cloud_baseline_anatomy():
    # Everything to the cloud: source uplink at 7e-9 J/bit, the serving
    # edge relays at 1.3e-7, the pool pays idle 201 plus 2880/100 MIPS/W
    # plus the 5e-7 J/bit core path.
    s = build_reference_scenario("small", 1)
    report = cloud_only_baseline(s)
    rows = {r.node_id: r for r in report.nodes if r.total_w}
    assert set(rows) == {"v0", "e0", "cloud0"}
    assert rows["v0"].total_w == pytest.approx(5.0 + 1.44e6 * 7e-9)
    assert rows["e0"].total_w == pytest.approx(7.5 + 1.44e6 * 1.3e-7)
    assert rows["cloud0"].total_w == pytest.approx(
        201.0 + 28.8 + 1.44e6 * 5e-7
    )
    assert report.total_w == pytest.approx(243.21728, rel=1e-12)


def test_cloud_baseline_scales_with_count():
    s1 = cloud_only_baseline(build_reference_scenario("small", 1)).total_w
    s2 = cloud_only_baseline(build_reference_scenario("small", 2)).total_w
    # the pool idle is paid once, each extra request adds its own power
    assert s2 > s1
    assert s2 - s1 < s1


def test_cloud_only_placement_is_cloud_only():
    s = build_reference_scenario("large", 6)
    placement = cloud_only_placement(s)
    clouds = {n.id for n in s.tier_nodes("cloud")}
    assert all(node in clouds for (_, node) in placement.x)
    for demand in s.demands:
        total = sum(v for (d, _), v in placement.x.items() if d == demand.id)
        assert total == pytest.approx(demand.workload_mips)


def test_bandwidth_check_flags_overload():
    s = build_reference_scenario("small", 1)
    placement = Placement.build(s, {("d0", "v0"): 1280.0, ("d0", "v1"): 1600.0})
    evaluate_placement(s, placement)  # within every link's capacity
    # shrink every dsrc link far below the demand's 1.44 Mbps transfer
    starved = [
        l.__class__(**{**l.__dict__, "capacity_bps": 1e3})
        if l.kind == "dsrc"
        else l
        for l in s.links
    ]
    s2 = s.__class__(
        nodes=s.nodes,
        links=tuple(starved),
        demands=s.demands,
        routes=s.routes,
        options=s.options,
    )
    # only v0>v1 carries the demand's traffic, to its serving node v1
    with pytest.raises(PlacementError) as raised:
        evaluate_placement(s2, placement)
    assert str(raised.value) == "link v0>v1: 1.44e+06 bps exceeds 1000"


def test_random_placements_price_consistently():
    # total power equals idle of active nodes plus processing plus the
    # per-link transfer cost along each serving route
    rng = random.Random(4321)
    priced = 0
    for _ in range(25):
        s = random_scenario(rng.randrange(2**31))
        x = {}
        residual = {n.id: n.capacity_mips for n in s.nodes}
        for demand in s.demands:
            fits = [n for n in s.nodes if residual[n.id] >= demand.workload_mips]
            if not fits:
                x = None
                break
            pick = rng.choice(fits)
            x[(demand.id, pick.id)] = demand.workload_mips
            residual[pick.id] -= demand.workload_mips
        if not x:
            continue
        report = evaluate_placement(s, Placement.build(s, x))
        assert report.total_w > 0
        assert report.total_w == pytest.approx(
            sum(r.total_w for r in report.nodes)
        )
        priced += 1
    assert priced >= 10
