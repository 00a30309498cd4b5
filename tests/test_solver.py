"""Exact solver behaviour: optima, determinism, budgets, oracle agreement."""

import math

import numpy as np
import pytest

from vecopt.bnb import BnbOptions, branch_and_bound, solve_scenario
from vecopt.check import cross_check
from vecopt.milp import build_milp, check_assignment
from vecopt.oracle import OracleSizeError, exhaustive_oracle
from vecopt.power import evaluate_placement
from vecopt.randgen import random_scenario
from vecopt.scenario import build_reference_scenario, scenario_from_dict
from vecopt.simplex import LpWorkspace

VEHICLE = dict(
    tier="vehicle",
    max_power_w=10.0,
    idle_power_w=5.0,
    processing_fraction=0.58,
    communication_fraction=0.21,
    capacity_mips=1600.0,
    interfaces=[
        {"kind": "dsrc", "capacity_bps": 27e6},
        {"kind": "wifi", "capacity_bps": 150e6},
    ],
)


def two_vehicle_scenario(workload: float):
    return scenario_from_dict(
        {
            "nodes": [dict(VEHICLE, id="v0"), dict(VEHICLE, id="v1")],
            "demands": [{"id": "d0", "source": "v0", "workload_mips": workload}],
        }
    )


def test_reference_single_request_optimum():
    sol = solve_scenario(build_reference_scenario("small", 1))
    assert sol.status == "optimal"
    # source plus exactly one helper: 2x5 W idle, 2880 MIPS at 550 MIPS/W,
    # one 1.44 Mbps transfer paying both dsrc ends
    expect = 10.0 + 2880.0 / 550.0 + 1.44e6 * 2 * 1.05 / 27e6
    assert sol.objective == pytest.approx(expect, rel=1e-12)
    assert sol.objective == pytest.approx(15.348363636363636, rel=1e-12)
    # every split of the 2880 MIPS between the two costs the same; the
    # solver's vertex fills the source and sends the rest to the helper
    assert sol.placement.x == {("d0", "v0"): 1600.0, ("d0", "v1"): 1280.0}
    assert sol.stats.gap == 0.0


def test_equal_optima_pick_lexicographically_first_pattern():
    # every helper vehicle is symmetric; the tie must break toward v1
    sol = solve_scenario(build_reference_scenario("small", 1))
    assert sol.placement.serving["d0"] == ("v0", "v1")


def test_local_demand_stays_local():
    s = two_vehicle_scenario(800.0)
    sol = solve_scenario(s)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(5.0 + 800.0 / 550.0)
    assert sol.placement.x == {("d0", "v0"): 800.0}


def test_forced_split_pays_for_the_transfer():
    s = two_vehicle_scenario(2000.0)
    sol = solve_scenario(s)
    traffic = 2000.0 * 1e6 / 2000.0
    expect = 10.0 + 2000.0 / 550.0 + traffic * 2 * 1.05 / 27e6
    assert sol.objective == pytest.approx(expect)
    # any split costs the same; the source fills first
    assert sol.placement.x[("d0", "v1")] == pytest.approx(400.0)


def test_oracle_matches_hand_values():
    sol = exhaustive_oracle(two_vehicle_scenario(2000.0))
    traffic = 2000.0 * 1e6 / 2000.0
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(
        10.0 + 2000.0 / 550.0 + traffic * 2 * 1.05 / 27e6
    )


def test_oracle_refuses_oversized_instances():
    with pytest.raises(OracleSizeError):
        exhaustive_oracle(build_reference_scenario("small", 1))


def test_solver_agrees_with_oracle_on_random_instances():
    report = cross_check(25, seed=7)
    disagreements = [r for r in report.results if not r.agree]
    assert disagreements == []
    assert report.matches == 25
    assert report.max_discrepancy <= 1e-6


def test_optimal_verdict_holds_on_a_badly_scaled_instance():
    # a root solve that stopped on an absolute reduced-cost tolerance
    # once reported 23.351180 W here, 6.1e-5 W above the true optimum
    s = random_scenario(101367560)
    sol = solve_scenario(s)
    assert sol.status == "optimal"
    assert sol.objective <= exhaustive_oracle(s).objective + 1e-6


def test_infeasible_when_demand_exceeds_reachable_capacity():
    s = two_vehicle_scenario(4000.0)  # 3200 MIPS of fleet, no cloud
    sol = solve_scenario(s)
    assert sol.status == "infeasible"
    assert sol.assignment is None
    assert math.isnan(sol.objective)


def test_identical_solves_are_identical():
    s = build_reference_scenario("medium", 2)
    a = solve_scenario(s)
    b = solve_scenario(s)
    assert a.status == b.status == "optimal"
    assert a.objective == b.objective
    assert np.array_equal(a.assignment, b.assignment)
    assert a.placement.x == b.placement.x
    assert a.stats.explored_nodes == b.stats.explored_nodes
    assert a.stats.lp_iterations == b.stats.lp_iterations


def test_node_budget_flags_and_keeps_the_incumbent():
    s = build_reference_scenario("small", 5)
    capped = solve_scenario(s, node_limit=1)
    richer = solve_scenario(s, node_limit=40)
    assert capped.status == "timeout"
    assert capped.stats.explored_nodes <= 2
    assert capped.stats.gap > 0
    # a bigger budget never yields a worse incumbent
    assert richer.objective <= capped.objective + 1e-9
    # the flagged answer is still a real feasible placement
    prob = build_milp(s)
    assert check_assignment(prob, capped.assignment) == []
    priced = evaluate_placement(s, capped.placement).total_w
    assert priced == pytest.approx(capped.objective, rel=1e-9)


def test_every_budget_stop_brackets_the_optimum():
    # small@3 is proven in 17 nodes; each smaller budget stops the search
    # at a different point of a plunge, with or without an up child
    # pending, and the reported gap must still cover the optimum.
    s = build_reference_scenario("small", 3)
    optimum = solve_scenario(s)
    assert optimum.status == "optimal"
    assert optimum.objective == pytest.approx(46.0451, abs=1e-4)
    assert optimum.stats.explored_nodes == 17
    for limit in range(1, 17):
        sol = solve_scenario(s, node_limit=limit)
        assert sol.status == "timeout", limit
        bound = sol.objective - sol.stats.gap
        assert bound <= optimum.objective + 1e-9 <= sol.objective + 1e-9, limit


def test_root_is_solved_and_counted_once(monkeypatch):
    # small@1 is proven by rounding its root relaxation, so one LP solve,
    # the root's, is enough.
    s = build_reference_scenario("small", 1)
    sol = solve_scenario(s, node_limit=1)
    assert sol.status == "optimal"
    assert sol.stats.explored_nodes == 1
    assert sol.objective == pytest.approx(15.348363636363636, rel=1e-12)

    # Every node the loop re-solves carries at least one branching bound.
    branches = []
    set_branch = LpWorkspace.set_branch

    def spy(self, branch):
        branches.append(dict(branch))
        return set_branch(self, branch)

    monkeypatch.setattr(LpWorkspace, "set_branch", spy)
    sol = solve_scenario(build_reference_scenario("small", 3))
    assert sol.status == "optimal"
    assert branches
    assert all(branches)


@pytest.mark.parametrize(
    "scenario, budget, status, reason",
    [
        # small@1 is proven at its root, inside a one-node budget
        (lambda: build_reference_scenario("small", 1), {"node_limit": 1},
         "optimal", "optimal"),
        (lambda: build_reference_scenario("small", 4), {"node_limit": 150},
         "timeout", "node_limit"),
        (lambda: build_reference_scenario("small", 4), {"time_limit_s": 0},
         "timeout", "time_limit"),
        # random_scenario(2)'s root relaxation is infeasible
        (lambda: random_scenario(2), {}, "infeasible", "infeasible"),
    ],
    ids=["optimal", "node_limit", "time_limit", "infeasible"],
)
def test_stop_reason_names_what_ended_the_search(
    scenario, budget, status, reason
):
    sol = solve_scenario(scenario(), **budget)
    assert sol.status == status
    assert sol.stats.stop_reason == reason


def test_time_limit_flags_the_result():
    s = build_reference_scenario("small", 5)
    sol = solve_scenario(s, time_limit_s=1e-9)
    assert sol.status == "timeout"
    if sol.assignment is not None:
        prob = build_milp(s)
        assert check_assignment(prob, sol.assignment) == []
    else:
        assert math.isnan(sol.objective)
        assert sol.stats.gap == float("inf")


def test_wider_gap_tolerance_still_brackets_the_optimum():
    s = build_reference_scenario("small", 2)
    exact = solve_scenario(s)
    loose = solve_scenario(s, absolute_gap=0.5)
    assert loose.status == "optimal"
    assert exact.objective <= loose.objective <= exact.objective + 0.5


def test_solution_prices_to_its_own_objective():
    for cls, count in (("small", 1), ("small", 2), ("medium", 1), ("large", 1)):
        s = build_reference_scenario(cls, count)
        sol = solve_scenario(s)
        assert sol.status == "optimal"
        priced = evaluate_placement(s, sol.placement).total_w
        assert priced == pytest.approx(sol.objective, rel=1e-9)


def test_stats_are_populated():
    sol = solve_scenario(build_reference_scenario("small", 1))
    assert sol.stats.explored_nodes >= 1
    assert sol.stats.lp_iterations > 0
    assert sol.stats.wall_ms > 0


def test_options_object_drives_the_search():
    prob = build_milp(build_reference_scenario("small", 1))
    sol = branch_and_bound(prob, BnbOptions(node_limit=1))
    assert sol.status in ("optimal", "timeout")
    sol2 = branch_and_bound(prob)
    assert sol2.status == "optimal"
    assert sol2.objective == pytest.approx(15.348363636363636, rel=1e-12)


def test_random_optimal_solutions_verify_end_to_end():
    # solve, check rows, reprice the placement, all on fresh instances
    import random as _random

    rng = _random.Random(8080)
    solved = 0
    for _ in range(10):
        s = random_scenario(rng.randrange(2**31))
        sol = solve_scenario(s)
        if sol.status != "optimal":
            continue
        prob = build_milp(s)
        assert check_assignment(prob, sol.assignment) == []
        priced = evaluate_placement(s, sol.placement).total_w
        assert priced == pytest.approx(sol.objective, rel=1e-9)
        solved += 1
    assert solved >= 6
