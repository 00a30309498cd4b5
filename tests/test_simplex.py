"""LP engine checked against an independent reference implementation."""

import random

import numpy as np
import pytest
from scipy.optimize import linprog

from vecopt.milp import MilpProblem, RowDef, VarDef, build_milp
from vecopt.randgen import random_scenario
from vecopt.scenario import build_reference_scenario
from vecopt.simplex import (
    STATUS_CUTOFF,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    LpWorkspace,
    solve_lp,
)

OBJ_TOL = 1e-6


def synth_problem(rng: random.Random) -> MilpProblem:
    n = rng.randint(2, 8)
    m = rng.randint(1, 6)
    variables = tuple(
        VarDef(
            name=f"x{j}",
            kind="continuous",
            lower=0.0,
            upper=rng.uniform(0.5, 10.0),
            objective=rng.uniform(-5.0, 5.0),
            role="assign",
            demand=None,
            node=f"n{j}",
        )
        for j in range(n)
    )
    rows = []
    for i in range(m):
        support = rng.sample(range(n), rng.randint(2, n))
        coeffs = tuple(
            (j, float(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])))
            for j in sorted(support)
        )
        sense = rng.choice(["<=", ">=", "="])
        rhs = rng.uniform(-6.0, 12.0)
        rows.append(RowDef(label=f"r{i}", coeffs=coeffs, sense=sense, rhs=rhs))
    return MilpProblem(
        variables=variables,
        rows=tuple(rows),
        demand_ids=("d0",),
        node_ids=tuple(f"n{j}" for j in range(n)),
        scenario=None,
    )


def reference_solve(problem: MilpProblem, bounds=None):
    n = len(problem.variables)
    lb = [v.lower for v in problem.variables]
    ub = [v.upper for v in problem.variables]
    for j, (lo, hi) in (bounds or {}).items():
        lb[j] = max(lb[j], lo)
        ub[j] = min(ub[j], hi)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row in problem.rows:
        dense = np.zeros(n)
        for j, c in row.coeffs:
            dense[j] = c
        if row.sense == "<=":
            a_ub.append(dense)
            b_ub.append(row.rhs)
        elif row.sense == ">=":
            a_ub.append(-dense)
            b_ub.append(-row.rhs)
        else:
            a_eq.append(dense)
            b_eq.append(row.rhs)
    res = linprog(
        [v.objective for v in problem.variables],
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(lb, ub)),
        method="highs",
    )
    return res


def assert_row_feasible(problem: MilpProblem, values: np.ndarray):
    for j, var in enumerate(problem.variables):
        assert var.lower - 1e-7 <= values[j] <= var.upper + 1e-7
    for row in problem.rows:
        lhs = sum(c * values[j] for j, c in row.coeffs)
        scale = max(1.0, abs(row.rhs))
        if row.sense == "<=":
            assert lhs <= row.rhs + 1e-6 * scale
        elif row.sense == ">=":
            assert lhs >= row.rhs - 1e-6 * scale
        else:
            assert lhs == pytest.approx(row.rhs, abs=1e-6 * scale)


def test_known_tiny_lp():
    prob = MilpProblem(
        variables=(
            VarDef("x0", "continuous", 0.0, 1.0, -1.0, "assign", None, "n0"),
            VarDef("x1", "continuous", 0.0, 1.0, -1.0, "assign", None, "n1"),
        ),
        rows=(RowDef("cap", ((0, 1.0), (1, 1.0)), "<=", 1.0),),
        demand_ids=("d0",),
        node_ids=("n0", "n1"),
        scenario=None,
    )
    sol = solve_lp(prob)
    assert sol.status == STATUS_OPTIMAL
    assert sol.objective == pytest.approx(-1.0)
    assert sol.values.sum() == pytest.approx(1.0)


def test_infeasible_row_detected():
    prob = MilpProblem(
        variables=(
            VarDef("x0", "continuous", 0.0, 1.0, 1.0, "assign", None, "n0"),
            VarDef("x1", "continuous", 0.0, 1.0, 1.0, "assign", None, "n1"),
        ),
        rows=(RowDef("need", ((0, 1.0), (1, 1.0)), ">=", 5.0),),
        demand_ids=("d0",),
        node_ids=("n0", "n1"),
        scenario=None,
    )
    assert solve_lp(prob).status == STATUS_INFEASIBLE


def test_matches_reference_on_random_dense_lps():
    rng = random.Random(20240817)
    optimal = infeasible = 0
    for _ in range(60):
        prob = synth_problem(rng)
        ours = solve_lp(prob)
        ref = reference_solve(prob)
        if ours.status == STATUS_OPTIMAL:
            assert ref.status == 0
            assert abs(ours.objective - ref.fun) <= OBJ_TOL * max(
                1.0, abs(ref.fun)
            )
            assert_row_feasible(prob, ours.values)
            optimal += 1
        else:
            assert ours.status == STATUS_INFEASIBLE
            assert ref.status == 2
            infeasible += 1
    # the generator must exercise both verdicts
    assert optimal >= 15
    assert infeasible >= 5


def test_matches_reference_on_placement_relaxations():
    rng = random.Random(77)
    solved = 0
    for _ in range(12):
        prob = build_milp(random_scenario(rng.randrange(2**31)))
        ours = solve_lp(prob)
        ref = reference_solve(prob)
        if ours.status == STATUS_INFEASIBLE:
            # demand can genuinely exceed reachable capacity
            assert ref.status == 2
            continue
        assert ours.status == STATUS_OPTIMAL
        assert ref.status == 0
        assert abs(ours.objective - ref.fun) <= OBJ_TOL * max(1.0, abs(ref.fun))
        assert_row_feasible(prob, ours.values)
        solved += 1
    assert solved >= 6


def test_warm_restart_matches_cold_solve():
    rng = random.Random(90125)
    agreed = 0
    for _ in range(10):
        prob = build_milp(random_scenario(rng.randrange(2**31)))
        binaries = list(prob.binary_indices())
        ws = LpWorkspace(prob)
        if ws.solve_primal() != STATUS_OPTIMAL:
            continue
        root_obj = ws.objective()
        for _ in range(4):
            branch = {
                int(rng.choice(binaries)): rng.choice([(0.0, 0.0), (1.0, 1.0)])
                for _ in range(rng.randint(1, 3))
            }
            cold = LpWorkspace(prob, branch)
            cold_status = cold.solve_primal()
            if not ws.set_branch(branch):
                # bounds collapsed against a root-fixed variable
                assert ws.solve_dual() == STATUS_INFEASIBLE
                assert cold_status == STATUS_INFEASIBLE
                ws.set_branch({})
                ws.solve_dual()
                continue
            warm_status = ws.solve_dual()
            if cold_status == STATUS_OPTIMAL:
                assert warm_status == STATUS_OPTIMAL
                assert abs(ws.objective() - cold.objective()) <= OBJ_TOL * max(
                    1.0, abs(cold.objective())
                )
                # a branch only ever tightens the relaxation
                assert ws.objective() >= root_obj - 1e-7
            else:
                assert warm_status == STATUS_INFEASIBLE
            agreed += 1
    assert agreed >= 20


def test_long_warm_pivot_runs_match_cold_solves():
    """Warm restarts stay exact over long runs of basis-inverse updates.

    A dive on a reference model of more than 200 rows fixes one binary
    after another, so the inverse takes many rank-1 updates between
    refactorizations; every warm answer must match a cold solve.
    """
    prob = build_milp(build_reference_scenario("small", 6))
    binaries = list(prob.binary_indices())
    ws = LpWorkspace(prob)
    assert ws.solve_primal() == STATUS_OPTIMAL
    assert ws.m >= 200
    root_iterations = ws.iterations
    rng = random.Random(6021)
    branch: dict[int, tuple[float, float]] = {}
    optimal = 0
    for _ in range(12):
        j = int(rng.choice(binaries))
        branch[j] = rng.choice([(0.0, 0.0), (1.0, 1.0)])
        cold = LpWorkspace(prob, branch)
        cold_status = cold.solve_primal()
        conflict = not ws.set_branch(branch)
        warm_status = ws.solve_dual()
        if cold_status == STATUS_OPTIMAL:
            assert not conflict
            assert warm_status == STATUS_OPTIMAL
            assert abs(ws.objective() - cold.objective()) <= OBJ_TOL * max(
                1.0, abs(cold.objective())
            )
            optimal += 1
        else:
            assert warm_status == STATUS_INFEASIBLE
            del branch[j]  # back out of the dead end and dive on
    assert optimal >= 6
    assert ws.iterations - root_iterations >= 100


def test_warm_state_survives_cutoff_stops(monkeypatch):
    """Cutoff stops and refactorizations leave the dual's state exact.

    A dive on a reference model fixes three binaries a step and stops
    some solves at a cutoff just below the cold objective: left there,
    or resumed by a warm solve.  The others run under a cutoff just above
    it.  Every finished warm solve must match a cold solve.
    """
    prob = build_milp(build_reference_scenario("small", 6))
    binaries = list(prob.binary_indices())
    ws = LpWorkspace(prob)
    assert ws.solve_primal() == STATUS_OPTIMAL
    root_iterations = ws.iterations
    refactors = 0
    refactor = ws._refactor

    def counted():
        nonlocal refactors
        refactors += 1
        refactor()

    monkeypatch.setattr(ws, "_refactor", counted)
    rng = random.Random(4)
    branch: dict[int, tuple[float, float]] = {}
    cutoffs = optimal = 0
    for step in range(18):
        fixed = [int(j) for j in rng.sample(binaries, 3)]
        for j in fixed:
            branch[j] = rng.choice([(0.0, 0.0), (1.0, 1.0)])
        cold = LpWorkspace(prob, branch)
        conflict = not ws.set_branch(branch)
        if cold.solve_primal() != STATUS_OPTIMAL:
            assert ws.solve_dual() == STATUS_INFEASIBLE
            for j in fixed:
                del branch[j]  # back out of the dead end and dive on
            continue
        assert not conflict
        cold_obj = cold.objective()
        margin = 1e-3 * max(1.0, abs(cold_obj))
        if step % 3 < 2:
            assert ws.solve_dual(cutoff=cold_obj - margin) == STATUS_CUTOFF
            cutoffs += 1
            if step % 3 == 0:
                continue  # the next step starts from the stopped state
            status = ws.solve_dual()
        else:
            status = ws.solve_dual(cutoff=cold_obj + margin)
        assert status == STATUS_OPTIMAL
        assert abs(ws.objective() - cold_obj) <= OBJ_TOL * max(
            1.0, abs(cold_obj)
        )
        optimal += 1
    assert cutoffs >= 6 and optimal >= 6
    assert refactors >= 3
    assert ws.iterations - root_iterations >= 200


def test_branch_conflict_is_reported():
    prob = build_milp(random_scenario(3))
    j = int(prob.binary_indices()[0])
    ws = LpWorkspace(prob)
    assert ws.solve_primal() == STATUS_OPTIMAL
    assert ws.set_branch({j: (2.0, 3.0)}) is False  # empty after clamping
    assert ws.solve_dual() == STATUS_INFEASIBLE
    # workspace recovers once the conflict is withdrawn
    assert ws.set_branch({})
    assert ws.solve_dual() == STATUS_OPTIMAL


def test_cutoff_prunes_without_losing_optima():
    rng = random.Random(555)
    pruned = finished = 0
    for _ in range(10):
        prob = build_milp(random_scenario(rng.randrange(2**31)))
        binaries = list(prob.binary_indices())
        ws = LpWorkspace(prob)
        if ws.solve_primal() != STATUS_OPTIMAL:
            continue
        branch = {int(rng.choice(binaries)): (1.0, 1.0)}
        cold = LpWorkspace(prob, branch)
        if cold.solve_primal() != STATUS_OPTIMAL:
            continue
        child_obj = cold.objective()

        ws.set_branch(branch)
        status = ws.solve_dual(cutoff=child_obj - 1.0)
        assert status in (STATUS_CUTOFF, STATUS_INFEASIBLE)
        if status == STATUS_CUTOFF:
            pruned += 1

        # rewind and confirm a generous cutoff never changes the answer
        ws.set_branch({})
        ws.solve_dual()
        ws.set_branch(branch)
        assert ws.solve_dual(cutoff=child_obj + 1.0) == STATUS_OPTIMAL
        assert ws.objective() == pytest.approx(child_obj, abs=OBJ_TOL)
        finished += 1
    assert pruned >= 3
    assert finished >= 5


def test_iteration_counter_accumulates():
    prob = build_milp(random_scenario(11))
    ws = LpWorkspace(prob)
    ws.solve_primal()
    after_root = ws.iterations
    assert after_root > 0
    j = int(prob.binary_indices()[0])
    ws.set_branch({j: (1.0, 1.0)})
    ws.solve_dual()
    assert ws.iterations >= after_root
