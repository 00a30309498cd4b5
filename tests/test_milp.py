"""Model construction: variables, rows, costs, and assignment helpers."""

import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from handmade import hand_model
from vecopt.milp import (
    RowDef,
    VarDef,
    assignment_from_placement,
    build_milp,
    check_assignment,
    clean_assignment,
    extract_placement,
    interchange_classes,
    to_fixed_format,
)
from vecopt.power import (
    cloud_only_placement,
    derive_power_params,
    hop_energy_per_bit,
)
from vecopt.randgen import random_scenario
from vecopt.scenario import CLASS_ORDER, build_reference_scenario
from vecopt.types import PLACEMENT_THRESHOLD, PlacementError


def small1():
    return build_milp(build_reference_scenario("small", 1))


def test_variable_layout():
    prob = small1()
    assert prob.n_demands == 1
    assert prob.n_nodes == 25
    assert len(prob.variables) == 3 * 25
    # x block, then y block, then a block, all in scenario node order
    assert prob.x_index(0, 0) == 0
    assert prob.y_index(0, 0) == 25
    assert prob.a_index(0) == 50
    for n, node_id in enumerate(prob.node_ids):
        x = prob.variables[prob.x_index(0, n)]
        y = prob.variables[prob.y_index(0, n)]
        a = prob.variables[prob.a_index(n)]
        assert (x.kind, y.kind, a.kind) == ("continuous", "binary", "binary")
        assert (x.name, y.name, a.name) == (
            f"x[d0,{node_id}]",
            f"y[d0,{node_id}]",
            f"a[{node_id}]",
        )


def test_row_census():
    prob = small1()
    families = Counter(r.label.split("[")[0] for r in prob.rows)
    assert families == {
        "conserve": 1,
        "bigm": 25,
        "capacity": 25,
        "serve_active": 25,
        "source_active": 1,
        "cover": 1,
        "relay_active": 4,
        "bandwidth": 24,
    }
    assert len(prob.rows) == 106


def test_assignment_bounds_follow_capacity():
    prob = small1()
    demand = prob.scenario.demands[0]
    for n, node_id in enumerate(prob.node_ids):
        var = prob.variables[prob.x_index(0, n)]
        cap = prob.scenario.node(node_id).capacity_mips
        assert var.upper == min(cap, demand.workload_mips)


def test_objective_costs():
    prob = small1()
    c = prob.objective_vector()
    n_v1 = prob.node_ids.index("v1")
    n_e0 = prob.node_ids.index("e0")
    n_cl = prob.node_ids.index("cloud0")
    # activation pays idle, assignment pays MIPS over efficiency
    assert c[prob.a_index(0)] == 5.0
    assert c[prob.a_index(n_e0)] == 7.5
    assert c[prob.a_index(n_cl)] == 201.0
    assert c[prob.x_index(0, 0)] == pytest.approx(1 / 550.0)
    assert c[prob.x_index(0, n_e0)] == pytest.approx(1 / 340.0)
    assert c[prob.x_index(0, n_cl)] == pytest.approx(1 / 100.0)
    # serving pays the demand's full bit rate along the route
    assert c[prob.y_index(0, 0)] == 0.0
    assert c[prob.y_index(0, n_v1)] == pytest.approx(1.44e6 * 1.05 / 13.5e6)
    assert c[prob.y_index(0, n_e0)] == pytest.approx(1.44e6 * 1.37e-7)
    assert c[prob.y_index(0, n_cl)] == pytest.approx(1.44e6 * 6.37e-7)


def route_energy_per_bit(s, src, dst):
    """Joules per bit along the fixed route, summed hop by hop."""
    params = {n.id: derive_power_params(n, s.options) for n in s.nodes}
    return sum(hop_energy_per_bit(params, link) for link in s.hops(src, dst))


def test_route_energy_per_bit():
    s = build_reference_scenario("small", 1)
    cloud = s.tier_nodes("cloud")[0].id
    assert route_energy_per_bit(s, "v0", "v0") == 0.0
    # vehicle pair: both dsrc ends at 1.05/27e6 each
    assert route_energy_per_bit(s, "v0", "v7") == pytest.approx(2 * 1.05 / 27e6)
    # uplink: vehicle wifi tx + edge wifi rx
    assert route_energy_per_bit(s, "v0", "e0") == pytest.approx(
        1.05 / 150e6 + 19.5 / 150e6
    )
    # edge hop crosses two wifi ends twice over the shared rate
    assert route_energy_per_bit(s, "e0", "e1") == pytest.approx(2.6e-7)
    assert route_energy_per_bit(s, "e0", cloud) == pytest.approx(5e-7)
    assert route_energy_per_bit(s, "v0", cloud) == pytest.approx(
        1.37e-7 + 5e-7
    )


def test_interchange_classes_group_symmetric_peers():
    s = build_reference_scenario("small", 1)
    order = {n.id: i for i, n in enumerate(s.nodes)}
    groups = [sorted(g) for g in interchange_classes(build_milp(s))]
    # every vehicle but the source is exchangeable, same for edges
    assert [order[f"v{i}"] for i in range(1, 20)] in groups
    assert [order[f"e{j}"] for j in range(1, 4)] in groups
    flat = [i for g in groups for i in g]
    assert order["v0"] not in flat
    assert order["e0"] not in flat


def test_interchange_respects_sources():
    s = build_reference_scenario("small", 3)
    order = {n.id: i for i, n in enumerate(s.nodes)}
    flat = [i for g in interchange_classes(build_milp(s)) for i in g]
    for src in ("v0", "v1", "v2"):
        assert order[src] not in flat
    assert order["v3"] in flat


@pytest.mark.parametrize(
    "cls, count, vehicles, edges",
    [("small", 4, 4, 1), ("medium", 10, 10, 2), ("large", 10, 10, 2)],
)
def test_interchange_classes_are_pinned(cls, count, vehicles, edges):
    prob = build_milp(build_reference_scenario(cls, count))
    names = [
        [prob.node_ids[n] for n in group]
        for group in interchange_classes(prob)
    ]
    assert names == [
        [f"v{i}" for i in range(vehicles, 20)],
        [f"e{j}" for j in range(edges, 4)],
    ]


def test_interchange_classes_read_the_rows_not_the_scenario():
    prob = build_milp(build_reference_scenario("small", 4))
    v4, v5 = prob.node_ids.index("v4"), prob.node_ids.index("v5")
    # a row on v4's activation alone: v4 no longer swaps with its peers
    extra = RowDef("extra", ((prob.a_index(v4), 1.0),), "<=", 1.0)
    hand = hand_model(
        prob.variables,
        prob.rows + (extra,),
        prob.demand_ids,
        prob.node_ids,
    )
    assert hand.scenario is None
    groups = interchange_classes(hand)
    vehicles = next(g for g in groups if v5 in g)
    assert v4 not in vehicles
    assert v4 not in [n for g in groups for n in g]
    assert [prob.node_ids[n] for n in vehicles] == [
        f"v{i}" for i in range(5, 20)
    ]


def test_check_assignment_flags_violations():
    prob = small1()
    v = np.zeros(len(prob.variables))
    # serving without conservation, loading without activation
    v[prob.x_index(0, 0)] = 500.0
    problems = check_assignment(prob, v)
    assert any("conserve" in p for p in problems)
    assert any("bigm" in p for p in problems)


def test_cloud_baseline_satisfies_every_row():
    for cls, count in (("small", 1), ("medium", 4), ("large", 9)):
        s = build_reference_scenario(cls, count)
        prob = build_milp(s)
        v = assignment_from_placement(prob, cloud_only_placement(s))
        assert check_assignment(prob, v) == []


def test_placement_round_trip():
    s = build_reference_scenario("small", 2)
    prob = build_milp(s)
    placement = cloud_only_placement(s)
    v = assignment_from_placement(prob, placement)
    again = extract_placement(prob, v)
    assert again.x == placement.x


def test_extract_rejects_fractional_binaries():
    prob = small1()
    v = assignment_from_placement(prob, cloud_only_placement(prob.scenario))
    v[prob.y_index(0, 0)] = 0.4
    with pytest.raises(PlacementError):
        extract_placement(prob, v)


def test_clean_assignment_strips_solver_noise():
    s = build_reference_scenario("small", 1)
    prob = build_milp(s)
    v = assignment_from_placement(
        prob,
        extract_placement(
            prob,
            assignment_from_placement(prob, cloud_only_placement(s)),
        ),
    )
    noisy = v.copy()
    n_v3 = prob.node_ids.index("v3")
    noisy[prob.x_index(0, n_v3)] = 1e-9  # crumb below the noise floor
    cleaned = clean_assignment(prob, noisy)
    assert check_assignment(prob, cleaned) == []
    assert cleaned[prob.x_index(0, n_v3)] == 0.0
    assert cleaned[prob.y_index(0, n_v3)] == 0.0
    # conservation is restored exactly
    total = sum(cleaned[prob.x_index(0, n)] for n in range(prob.n_nodes))
    assert total == pytest.approx(2880.0, abs=1e-9)


def clean_by_demand(prob, values):
    """Per-demand loop that the vectorized cleanup must match bit for bit."""
    v = np.array(values, dtype=float)
    D, N = prob.n_demands, prob.n_nodes
    scenario = prob.scenario
    node_pos = {node_id: n for n, node_id in enumerate(prob.node_ids)}
    active = set()
    for d in range(D):
        demand = scenario.demands[d]
        idx = [prob.x_index(d, n) for n in range(N)]
        xs = v[idx]
        xs[xs < 1e-7 * demand.workload_mips] = 0.0
        total = xs.sum()
        if total > 0:
            xs *= demand.workload_mips / total
        v[idx] = xs
        active.add(node_pos[demand.source])
        for n in range(N):
            serving = xs[n] > 0
            v[prob.y_index(d, n)] = 1.0 if serving else 0.0
            if serving:
                active.add(n)
                for relay in scenario.path_intermediates(
                    demand.source, prob.node_ids[n]
                ):
                    active.add(node_pos[relay])
    for n in range(N):
        v[prob.a_index(n)] = 1.0 if n in active else 0.0
    return v


def noisy_relaxation(prob, rng):
    """Shares of each workload spread over a few nodes, plus solver noise."""
    D, N = prob.n_demands, prob.n_nodes
    v = rng.uniform(-1e-9, 1e-9, len(prob.variables))
    for d, demand in enumerate(prob.scenario.demands):
        idx = [prob.x_index(d, n) for n in range(N)]
        share = rng.dirichlet(np.ones(N)) * demand.workload_mips
        share[rng.random(N) < 0.6] = 0.0  # most nodes do not serve
        crumbs = rng.random(N) < 0.3
        share[crumbs] = rng.uniform(0.0, 2e-7, crumbs.sum()) * (
            demand.workload_mips
        )
        v[idx] += share
    v[D * N :] += rng.random(len(v) - D * N) < 0.5
    return v


def test_clean_assignment_matches_the_per_demand_loop():
    rng = np.random.default_rng(7)
    problems = [build_milp(random_scenario(seed)) for seed in range(30)]
    problems += [
        build_milp(build_reference_scenario(cls, count))
        for cls, count in (("small", 1), ("medium", 4), ("large", 10))
    ]
    checked = 0
    for prob in problems:
        for _ in range(40):
            noisy = noisy_relaxation(prob, rng)
            want = clean_by_demand(prob, noisy)
            got = clean_assignment(prob, noisy)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            checked += 1
    assert checked == 40 * len(problems)


def test_extract_placement_matches_the_per_pair_loop(monkeypatch):
    class Raw:  # hands back the amounts extract_placement picked
        build = staticmethod(lambda scenario, x: x)

    monkeypatch.setattr("vecopt.milp.Placement", Raw)
    rng = np.random.default_rng(11)
    for seed in range(30):
        prob = build_milp(random_scenario(seed))
        for _ in range(10):
            v = clean_assignment(prob, noisy_relaxation(prob, rng))
            edge = rng.integers(0, prob.n_demands * prob.n_nodes, 3)
            v[edge] = PLACEMENT_THRESHOLD  # exactly at it: not placed
            want = {}
            for d, demand_id in enumerate(prob.demand_ids):
                for n, node_id in enumerate(prob.node_ids):
                    amount = float(v[prob.x_index(d, n)])
                    if amount > PLACEMENT_THRESHOLD:
                        want[(demand_id, node_id)] = amount
            got = extract_placement(prob, v)
            assert list(got.items()) == list(want.items())
            assert all(type(amount) is float for amount in got.values())


def test_fixed_format_sections():
    prob = small1()
    text = to_fixed_format(prob)
    lines = text.splitlines()
    assert lines[0].startswith("NAME")
    for section in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert section in lines
    assert "    MARKER                 'MARKER'                 'INTORG'" in text or "INTORG" in text
    # one line per row plus the objective in the ROWS section
    rows_at = lines.index("ROWS")
    cols_at = lines.index("COLUMNS")
    assert cols_at - rows_at - 1 == len(prob.rows) + 1
    assert to_fixed_format(prob) == text


def test_fixed_format_bytes_are_pinned():
    # Digest of the medium@3 export: it moves with any changed coefficient,
    # number spelling (a repr of np.float64 in place of float, say) or
    # line order in any section.
    text = to_fixed_format(build_milp(build_reference_scenario("medium", 3)))
    assert len(text.splitlines()) == 1350
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "87354da64b7e0c9f1f27b437f334e92d3694e92948ffb654bb89493f9fb07df3"
    )


def test_model_bytes_are_pinned_across_every_row_family():
    # The 30 reference models and the first 200 models of the mini corpus
    # draw hold every row family, cover and the shared DSRC medium
    # included; the digest moves with any coefficient, bound, label or
    # order in any of them.
    rng = random.Random(42)
    seeds = [rng.randrange(2**31) for _ in range(200)]
    scenarios = [
        build_reference_scenario(cls, count)
        for cls in CLASS_ORDER
        for count in range(1, 11)
    ] + [random_scenario(seed) for seed in seeds]
    digest = hashlib.sha256()
    for scenario in scenarios:
        digest.update(to_fixed_format(build_milp(scenario)).encode())
    assert digest.hexdigest() == (
        "f84f3cf4d995d94cd327385b4084461f06851ad8f302a3b849ec8038a5af82f8"
    )


def test_record_views_give_back_the_arrays():
    # bench/checks.py and people read the rows and variables as records;
    # a model written from those records has the same bytes.
    for scenario in (
        build_reference_scenario("small", 1),
        build_reference_scenario("medium", 4),
        random_scenario(3),
    ):
        prob = build_milp(scenario)
        again = hand_model(
            prob.variables, prob.rows, prob.demand_ids, prob.node_ids
        )
        assert again.row_labels == prob.row_labels
        assert again.var_names == prob.var_names
        for name, array in vars(prob.sparse).items():
            copy = getattr(again.sparse, name)
            assert copy.dtype == array.dtype
            assert copy.tobytes() == array.tobytes()
            assert not array.flags.writeable


def test_fixed_format_spells_every_number_as_a_float():
    # A scenario file may give whole numbers as JSON integers; the export
    # spells a value the same way whichever type it arrived as.
    prob = hand_model(
        variables=(
            VarDef("x[d0,n0]", "continuous", 1, 5, 2),
            VarDef("y[d0,n0]", "binary", 0, 1, 3),
        ),
        rows=(RowDef("bigm[d0,n0]", ((0, 1), (1, -5)), "<=", 7),),
        demand_ids=("d0",),
        node_ids=("n0",),
    )
    lines = to_fixed_format(prob).splitlines()
    assert lines[lines.index("COLUMNS") + 1 : lines.index("RHS")] == [
        "    x_d0_n0                 COST                    2.0",
        "    x_d0_n0                 bigm_d0_n0              1.0",
        "    MARKER0       'MARKER'                 'INTORG'",
        "    y_d0_n0                 COST                    3.0",
        "    y_d0_n0                 bigm_d0_n0              -5.0",
        "    MARKER1       'MARKER'                 'INTEND'",
    ]
    assert "    RHS                     bigm_d0_n0              7.0" in lines
    assert " LO BND                     x_d0_n0                 1.0" in lines
    assert " UP BND                     x_d0_n0                 5.0" in lines


def test_fixed_format_round_trips_rhs():
    prob = small1()
    text = to_fixed_format(prob)
    rhs = {}
    in_rhs = False
    for line in text.splitlines():
        if line.strip() == "RHS":
            in_rhs = True
            continue
        if in_rhs:
            if not line.startswith(" "):
                break
            parts = line.split()
            for name, value in zip(parts[1::2], parts[2::2]):
                rhs[name] = float(value)
    def ident(label):
        return (
            label.replace("[", "_")
            .replace("]", "")
            .replace(",", "_")
            .replace(">", "_")
        )

    by_label = {ident(r.label): r.rhs for r in prob.rows}
    for name, value in rhs.items():
        assert value == pytest.approx(by_label[name])
    # zero right-hand sides may be omitted, everything else must appear
    for label, value in by_label.items():
        if abs(value) > 0:
            assert label in rhs
