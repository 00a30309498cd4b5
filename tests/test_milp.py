"""Model construction: variables, rows, costs, and assignment helpers."""

from collections import Counter

import numpy as np
import pytest

from vecopt.milp import (
    ROLE_ACTIVATE,
    ROLE_ASSIGN,
    ROLE_SERVE,
    assignment_from_placement,
    build_milp,
    check_assignment,
    clean_assignment,
    cleanup_arrays,
    extract_placement,
    interchange_classes,
    route_energy_per_bit,
    to_fixed_format,
)
from vecopt.power import cloud_only_placement
from vecopt.randgen import random_scenario
from vecopt.scenario import build_reference_scenario
from vecopt.types import PlacementError


def small1():
    return build_milp(build_reference_scenario("small", 1))


def test_variable_layout():
    prob = small1()
    assert prob.n_demands == 1
    assert prob.n_nodes == 25
    assert len(prob.variables) == 3 * 25
    roles = Counter(v.role for v in prob.variables)
    assert roles == {ROLE_ASSIGN: 25, ROLE_SERVE: 25, ROLE_ACTIVATE: 25}
    # x block, then y block, then a block, all in scenario node order
    assert prob.x_index(0, 0) == 0
    assert prob.y_index(0, 0) == 25
    assert prob.a_index(0) == 50
    assert prob.variables[prob.x_index(0, 3)].kind == "continuous"
    assert prob.variables[prob.y_index(0, 3)].kind == "binary"
    assert prob.variables[prob.a_index(3)].kind == "binary"


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
    groups = [sorted(g) for g in interchange_classes(s)]
    # every vehicle but the source is exchangeable, same for edges
    assert [order[f"v{i}"] for i in range(1, 20)] in groups
    assert [order[f"e{j}"] for j in range(1, 4)] in groups
    flat = [i for g in groups for i in g]
    assert order["v0"] not in flat
    assert order["e0"] not in flat


def test_interchange_respects_sources():
    s = build_reference_scenario("small", 3)
    order = {n.id: i for i, n in enumerate(s.nodes)}
    flat = [i for g in interchange_classes(s) for i in g]
    for src in ("v0", "v1", "v2"):
        assert order[src] not in flat
    assert order["v3"] in flat


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
        arrays = cleanup_arrays(prob)
        for _ in range(40):
            noisy = noisy_relaxation(prob, rng)
            want = clean_by_demand(prob, noisy)
            for got in (
                clean_assignment(prob, noisy),
                clean_assignment(prob, noisy, arrays),
            ):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
            checked += 1
    assert checked == 40 * len(problems)


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
