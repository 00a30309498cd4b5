"""LP engine checked against an independent reference implementation."""

import dataclasses
import random

import numpy as np
import pytest
from scipy.optimize import linprog

from handmade import hand_model
from vecopt import simplex
from vecopt.bnb import _BOUND_MARGIN
from vecopt.milp import FEAS_TOL, MilpProblem, RowDef, VarDef, build_milp
from vecopt.randgen import random_scenario
from vecopt.scenario import build_reference_scenario
from vecopt.simplex import (
    STATUS_CUTOFF,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    LpWorkspace,
    SolverError,
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
    return hand_model(
        variables=variables,
        rows=tuple(rows),
        demand_ids=("d0",),
        node_ids=tuple(f"n{j}" for j in range(n)),
    )


def cold_workspace(prob: MilpProblem, branch) -> LpWorkspace:
    """A fresh workspace on the model with the branch's bounds written into
    its columns: the cold solve a warm re-solve is checked against."""
    form = prob.sparse
    lb, ub = form.lb.copy(), form.ub.copy()
    for j, (lo, hi) in branch.items():
        lb[j] = max(lb[j], lo)
        ub[j] = min(ub[j], hi)
    form = dataclasses.replace(form, lb=lb, ub=ub)
    return LpWorkspace(dataclasses.replace(prob, sparse=form))


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
    prob = hand_model(
        variables=(
            VarDef("x0", "continuous", 0.0, 1.0, -1.0),
            VarDef("x1", "continuous", 0.0, 1.0, -1.0),
        ),
        rows=(RowDef("cap", ((0, 1.0), (1, 1.0)), "<=", 1.0),),
        demand_ids=("d0",),
        node_ids=("n0", "n1"),
    )
    ws = LpWorkspace(prob)
    assert ws.solve_primal() == STATUS_OPTIMAL
    assert ws.objective() == pytest.approx(-1.0)
    assert ws.values().sum() == pytest.approx(1.0)


def test_infeasible_row_detected():
    prob = hand_model(
        variables=(
            VarDef("x0", "continuous", 0.0, 1.0, 1.0),
            VarDef("x1", "continuous", 0.0, 1.0, 1.0),
        ),
        rows=(RowDef("need", ((0, 1.0), (1, 1.0)), ">=", 5.0),),
        demand_ids=("d0",),
        node_ids=("n0", "n1"),
    )
    assert LpWorkspace(prob).solve_primal() == STATUS_INFEASIBLE


def test_cost_toward_an_infinite_bound_is_refused():
    # x0 gains from growing without limit: no slack basis is dual feasible
    prob = hand_model(
        variables=(
            VarDef("x0", "continuous", 0.0, np.inf, -1.0),
            VarDef("x1", "continuous", 0.0, 1.0, 1.0),
        ),
        rows=(RowDef("need", ((0, 1.0), (1, 1.0)), ">=", 2.0),),
        demand_ids=("d0",),
        node_ids=("n0", "n1"),
    )
    with pytest.raises(SolverError):
        LpWorkspace(prob).solve_primal()


def test_matches_reference_on_random_dense_lps():
    rng = random.Random(20240817)
    optimal = infeasible = 0
    for _ in range(60):
        prob = synth_problem(rng)
        ours = LpWorkspace(prob)
        status = ours.solve_primal()
        ref = reference_solve(prob)
        if status == STATUS_OPTIMAL:
            assert ref.status == 0
            assert abs(ours.objective() - ref.fun) <= OBJ_TOL * max(
                1.0, abs(ref.fun)
            )
            assert_row_feasible(prob, ours.values())
            optimal += 1
        else:
            assert status == STATUS_INFEASIBLE
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
        ours = LpWorkspace(prob)
        status = ours.solve_primal()
        ref = reference_solve(prob)
        if status == STATUS_INFEASIBLE:
            # demand can genuinely exceed reachable capacity
            assert ref.status == 2
            continue
        assert status == STATUS_OPTIMAL
        assert ref.status == 0
        assert abs(ours.objective() - ref.fun) <= OBJ_TOL * max(1.0, abs(ref.fun))
        assert_row_feasible(prob, ours.values())
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
            cold = cold_workspace(prob, branch)
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
        cold = cold_workspace(prob, branch)
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


def cutoff_dive(
    prob: MilpProblem, ws: LpWorkspace, rng: random.Random, per_step: int
) -> tuple[int, int]:
    """Dive on a solved workspace, with cutoff stops; returns their counts.

    Each of 18 steps fixes ``per_step`` more binaries and stops some
    solves at a cutoff just below the cold objective: left there, or
    resumed by a warm solve.  The others run under a cutoff just above
    it.  A step whose cold solve is infeasible must be infeasible warm
    too, and is backed out of.  Every finished warm solve must match a
    cold solve.  Returns the numbers of cutoff stops and checked optima.
    """
    binaries = list(prob.binary_indices())
    branch: dict[int, tuple[float, float]] = {}
    cutoffs = optimal = 0
    for step in range(18):
        fixed = [int(j) for j in rng.sample(binaries, per_step)]
        for j in fixed:
            branch[j] = rng.choice([(0.0, 0.0), (1.0, 1.0)])
        cold = cold_workspace(prob, branch)
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
    return cutoffs, optimal


def test_warm_state_survives_cutoff_stops(monkeypatch):
    """Cutoff stops and refactorizations leave the dual's state exact."""
    prob = build_milp(build_reference_scenario("small", 6))
    ws = LpWorkspace(prob)
    assert ws.solve_primal() == STATUS_OPTIMAL
    root_iterations = ws.iterations
    refactors = 0
    refactor = ws._refactor

    def counted():
        nonlocal refactors
        refactors += 1
        return refactor()

    monkeypatch.setattr(ws, "_refactor", counted)
    cutoffs, optimal = cutoff_dive(prob, ws, random.Random(4), per_step=3)
    assert cutoffs >= 6 and optimal >= 6
    assert refactors >= 3
    assert ws.iterations - root_iterations >= 200


@pytest.mark.parametrize("seed", range(1, 13))
def test_warm_dives_survive_branch_conflicts(seed):
    """Deep dives whose steps often conflict with root-fixed binaries.

    A conflicting ``set_branch`` applies no bound, so the call after it
    must still reset every bound of the branch applied before it.
    """
    prob = build_milp(build_reference_scenario("small", 6))
    ws = LpWorkspace(prob)
    assert ws.solve_primal() == STATUS_OPTIMAL
    cutoff_dive(prob, ws, random.Random(seed), per_step=8)


def dense_basis(ws: LpWorkspace) -> np.ndarray:
    """The basis matrix B, column k the extended column basis[k]."""
    B = np.zeros((ws.m, ws.m))
    for k, j in enumerate(ws.basis):
        ridx, vals = ws._column(int(j))
        B[ridx, k] = vals
    return B


def test_low_rank_inverse_stays_exact_across_folds(monkeypatch):
    """The base plus tail form of B^-1 stays exact over many folds.

    A warm dive without a refactorization folds the tail into the base
    several times.  After every step, each product with the inverse
    (pivot rows, FTRAN of columns and dense vectors, BTRAN) must invert
    the basis columns, and the warm objective must match a cold solve.
    """
    prob = build_milp(build_reference_scenario("small", 6))
    binaries = list(prob.binary_indices())
    ws = LpWorkspace(prob)
    assert ws.solve_primal() == STATUS_OPTIMAL
    monkeypatch.setattr(ws, "_refactor", lambda: pytest.fail("refactored"))
    # A single solve may pass the pivot count that forces a refactorization
    # on some BLAS thread counts (pivot paths differ in the last bits).
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 10**9)
    m = ws.m
    eye = np.eye(m)
    root_iterations = ws.iterations
    root_t = ws.t  # the root may stop with a tail in place
    rng = random.Random(6021)
    branch: dict[int, tuple[float, float]] = {}
    for _ in range(12):
        branch[int(rng.choice(binaries))] = rng.choice(
            [(0.0, 0.0), (1.0, 1.0)]
        )
        assert ws.set_branch(branch)
        assert ws.solve_dual() == STATUS_OPTIMAL
        cold = cold_workspace(prob, branch)
        assert cold.solve_primal() == STATUS_OPTIMAL
        assert abs(ws.objective() - cold.objective()) <= OBJ_TOL * max(
            1.0, abs(cold.objective())
        )

        pivots = ws.iterations - root_iterations
        # one term a pivot
        assert ws.t == (root_t + pivots) % simplex._FOLD_EVERY
        B = dense_basis(ws)
        binv = np.linalg.inv(B)
        rows = np.array([ws._pivot_row(r)[0] for r in range(m)])
        cols = np.column_stack([ws._ftran_column(int(j)) for j in ws.basis])
        assert np.abs(rows - binv).max() <= 1e-8 * np.abs(binv).max()
        assert np.abs(rows @ B - eye).max() <= 1e-8
        assert np.abs(cols - eye).max() <= 1e-8
        assert np.abs(ws._ftran(B) - eye).max() <= 1e-8
        assert np.abs(ws._btran(B.T) - eye).max() <= 1e-8
    assert pivots >= 3 * simplex._FOLD_EVERY


def two_var_problem(*rows) -> MilpProblem:
    """x0, x1 in [0, 4] with unit costs, under (coeffs, sense, rhs) rows."""
    return hand_model(
        variables=tuple(
            VarDef(f"x{j}", "continuous", 0.0, 4.0, 1.0)
            for j in range(2)
        ),
        rows=tuple(
            RowDef(f"r{i}", coeffs, sense, rhs)
            for i, (coeffs, sense, rhs) in enumerate(rows)
        ),
        demand_ids=("d0",),
        node_ids=("n0", "n1"),
    )


def test_fold_moves_singletons_into_bounds_and_drops_dead_rows():
    # A zero coefficient counts as absent: 0 x0 + 2 x1 <= 3 is x1 <= 1.5.
    ws = LpWorkspace(two_var_problem((((0, 0.0), (1, 2.0)), "<=", 3.0)))
    assert not ws.proven_infeasible and ws.m == 0
    assert list(ws.lb) == [0.0, 0.0] and list(ws.ub) == [4.0, 1.5]

    # A singleton >= row with a negative coefficient caps the variable:
    # -2 x0 >= -3 is x0 <= 1.5.
    ws = LpWorkspace(two_var_problem((((0, -2.0),), ">=", -3.0)))
    assert ws.m == 0 and ws.ub[0] == 1.5 and ws.lb[0] == 0.0

    # Empty rows: one that cannot hold proves infeasibility, one that
    # holds is dropped.
    for coeffs in ((), ((1, 0.0),)):
        ws = LpWorkspace(two_var_problem((coeffs, ">=", 1.0)))
        assert ws.proven_infeasible and ws.m == 0
        assert ws.solve_primal() == STATUS_INFEASIBLE
    ws = LpWorkspace(two_var_problem(((), "<=", 1.0)))
    assert not ws.proven_infeasible and ws.m == 0

    # Two singletons that leave no room: x0 >= 3 and 2 x0 <= 4.
    ws = LpWorkspace(
        two_var_problem((((0, 1.0),), ">=", 3.0), (((0, 2.0),), "<=", 4.0))
    )
    assert ws.proven_infeasible and ws.m == 0

    # A row that no values within the bounds can violate is dropped; the
    # bounds it is judged by include those from singletons anywhere in
    # the model (x0 <= 1 makes x0 + x1 <= 5 redundant).  The kept >= row
    # is stored negated.
    ws = LpWorkspace(
        two_var_problem(
            (((0, 1.0), (1, 1.0)), "<=", 5.0),
            (((0, 1.0), (1, 1.0)), ">=", 1.0),
            (((0, 1.0),), "<=", 1.0),
        )
    )
    assert not ws.proven_infeasible and ws.m == 1
    assert list(ws.b) == [-1.0] and ws.ub[0] == 1.0
    assert ws.solve_primal() == STATUS_OPTIMAL
    assert ws.objective() == pytest.approx(1.0)
    without = LpWorkspace(
        two_var_problem(
            (((0, 1.0), (1, 1.0)), "<=", 5.0),
            (((0, 1.0), (1, 1.0)), ">=", 1.0),
        )
    )
    assert without.m == 2


def test_refactor_matches_a_full_inverse():
    """The kernel factorization gives the inverse of the whole basis.

    Checked on the all-slack basis (an empty kernel), the large@10 root
    basis and the bases along a warm dive on small@6, where slack and
    structural positions mix.  A basis that holds one structural column
    twice is singular and must be refused.
    """

    def check(ws: LpWorkspace):
        binv = np.linalg.inv(dense_basis(ws))
        ws._refactor()
        assert ws.t == 0
        assert np.abs(ws.Bt - binv.T).max() <= 1e-10 * np.abs(binv).max()

    ws = LpWorkspace(build_milp(build_reference_scenario("large", 10)))
    ws._start_basis()
    check(ws)
    assert np.array_equal(ws.Bt, np.eye(ws.m))
    assert ws.solve_primal() == STATUS_OPTIMAL
    kernel = int((ws.basis < ws.n_struct).sum())
    assert 0 < kernel < ws.m
    check(ws)

    prob = build_milp(build_reference_scenario("small", 6))
    binaries = list(prob.binary_indices())
    ws = LpWorkspace(prob)
    assert ws.solve_primal() == STATUS_OPTIMAL
    check(ws)
    rng = random.Random(6021)
    branch: dict[int, tuple[float, float]] = {}
    checked = 0
    for _ in range(8):
        j = int(rng.choice(binaries))
        branch[j] = rng.choice([(0.0, 0.0), (1.0, 1.0)])
        if not ws.set_branch(branch) or ws.solve_dual() != STATUS_OPTIMAL:
            del branch[j]  # back out of the dead end and dive on
            continue
        check(ws)
        checked += 1
    assert checked >= 4

    ws._start_basis()
    ws.basis[:2] = int(binaries[0])  # one structural column, twice
    with pytest.raises(SolverError, match="singular basis"):
        ws._refactor()


def test_refactorization_rebuilds_the_base_in_place(monkeypatch):
    """A product-form dive that refactorizes keeps one base array.

    Every refactorization, at the root and along a warm dive on small@6,
    writes B^-T into the workspace's own ``Bt`` rather than a new array,
    and the rebuilt base inverts the basis.
    """
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 5)
    prob = build_milp(build_reference_scenario("small", 6))
    ws = LpWorkspace(prob)
    assert not ws.tableau
    refactor = ws._refactor
    rebuilt = 0

    def in_place():
        nonlocal rebuilt
        base = ws.Bt
        d = refactor()
        assert ws.Bt is base
        assert np.abs(base.T @ dense_basis(ws) - np.eye(ws.m)).max() <= 1e-8
        rebuilt += 1
        return d

    monkeypatch.setattr(ws, "_refactor", in_place)
    assert ws.solve_primal() == STATUS_OPTIMAL
    binaries = list(prob.binary_indices())
    rng = random.Random(6021)
    branch: dict[int, tuple[float, float]] = {}
    for _ in range(8):
        j = int(rng.choice(binaries))
        branch[j] = rng.choice([(0.0, 0.0), (1.0, 1.0)])
        if not ws.set_branch(branch) or ws.solve_dual() != STATUS_OPTIMAL:
            del branch[j]  # back out of the dead end and dive on
    assert rebuilt >= 10


def assert_resident_state(ws: LpWorkspace):
    """The dual's state kept in the workspace equals a rebuild from scratch.

    A column's state is its basis row and its direction: 0 for a basic or
    fixed column, +1 or -1 for a movable nonbasic one, whose value is
    the bound it names.  The directions must keep the basis dual
    feasible under the reduced costs rebuilt from B^-1.
    """
    row_of = np.full(ws.ncols, -1)
    row_of[ws.basis] = np.arange(ws.m)
    assert np.array_equal(ws.row_of, row_of)
    nonbasic = row_of < 0
    fixed = nonbasic & (ws.lb == ws.ub)
    movable = nonbasic & ~fixed
    assert np.all(ws.dirv[~movable] == 0.0)
    assert np.all(np.isin(ws.dirv[movable], (-1.0, 1.0)))
    at_lb, at_ub = nonbasic & (ws.dirv >= 0), ws.dirv < 0
    assert np.array_equal(ws.xnb[at_lb], ws.lb[at_lb])
    assert np.array_equal(ws.xnb[at_ub], ws.ub[at_ub])
    assert np.isfinite(ws.xnb[nonbasic]).all()
    A = np.zeros((ws.m, ws.ncols))
    A[ws.A_rows, ws.A_cols] = ws.A_vals
    T = np.linalg.solve(dense_basis(ws), A) if ws.m else A
    d = ws.c - ws.c[ws.basis] @ T
    d_tol = 1e-9 * max(1.0, np.abs(d).max())
    assert np.all(ws.dirv[movable] * d[movable] >= -d_tol)
    finite_lb = np.where(np.isfinite(ws.lb), np.abs(ws.lb), 0.0)
    finite_ub = np.where(np.isfinite(ws.ub), np.abs(ws.ub), 0.0)
    col_tol = simplex._PRIMAL_TOL * np.maximum(
        1.0, np.maximum(finite_lb, finite_ub)
    )
    assert np.array_equal(ws.col_tol, col_tol)
    assert np.array_equal(ws.lb_b, ws.lb[ws.basis])
    assert np.array_equal(ws.ub_b, ws.ub[ws.basis])
    assert np.array_equal(ws.tol_b, col_tol[ws.basis])
    if ws.tableau and ws.m:
        assert np.abs(ws.T - T).max() <= 1e-9 * max(1.0, np.abs(T).max())
        assert np.abs(ws.d - d).max() <= d_tol


def next_branch(
    rng: random.Random,
    ws: LpWorkspace,
    branch: dict[int, tuple[float, float]],
    step: int,
) -> dict[int, tuple[float, float]]:
    """One step of a random walk over branches, by the step's number.

    Fixes more binaries, frees one entry again, narrows a continuous x
    column, or adds an entry that empties a binary's bounds.
    """
    prob = ws.problem
    binaries = [int(j) for j in prob.binary_indices()]
    new = dict(branch)
    move = step % 4
    if move == 0 or not new:  # fix more binaries
        for j in rng.sample(binaries, min(2, len(binaries))):
            new[j] = rng.choice([(0.0, 0.0), (1.0, 1.0)])
    elif move == 1:  # free one entry again
        del new[rng.choice(sorted(new))]
    elif move == 2:  # narrow a continuous x column
        D, N = prob.n_demands, prob.n_nodes
        xs = [prob.x_index(d, n) for d in range(D) for n in range(N)]
        j = rng.choice(xs)
        hi = ws.root_ub[j]
        new[j] = (rng.uniform(0.0, 0.5) * hi, rng.uniform(0.5, 1) * hi)
    else:  # an entry that empties a binary's bounds
        new[rng.choice(binaries)] = (2.0, 3.0)
    return new


def test_resident_state_matches_a_rebuild_after_every_step():
    """Pivots and bound changes keep the dual's state exact.

    Random walks over branches on seeded random models: binaries fixed
    and freed, conflicting entries, new bounds on continuous x columns,
    and solves stopped at a cutoff.  After every ``set_branch`` and
    every ``solve_dual`` the state must equal a rebuild; the tableau
    these models keep must equal B^-1 [A | I] and its reduced costs
    c - c_B' T.
    """
    rng = random.Random(2718)
    seen = dict(conflict=0, freed=0, basic_bounds=0, cutoff=0, optimal=0)
    for _ in range(12):
        prob = build_milp(random_scenario(rng.randrange(2**31)))
        ws = LpWorkspace(prob)
        assert ws.tableau
        if ws.solve_primal() != STATUS_OPTIMAL:
            continue
        assert_resident_state(ws)
        branch: dict[int, tuple[float, float]] = {}
        for step in range(16):
            new = next_branch(rng, ws, branch, step)
            fixed = (ws.dirv == 0.0) & (ws.row_of < 0)
            basic = ws.row_of >= 0
            moved = [j for j in set(new) | set(branch)
                     if new.get(j) != branch.get(j)]
            if ws.set_branch(new):
                branch = new
                seen["freed"] += int((fixed & (ws.dirv != 0.0)).sum())
                seen["basic_bounds"] += int(basic[moved].sum())
            else:
                seen["conflict"] += 1
            assert_resident_state(ws)
            cutoff = None
            if step % 3 == 2:
                # The objective of the shifted basis bounds the branch's
                # optimum from below, so the solve stops at this cutoff.
                cutoff = ws.objective() - 1e-3
            status = ws.solve_dual(cutoff)
            seen[status] = seen.get(status, 0) + 1
            assert_resident_state(ws)
    assert min(seen.values()) >= 3, seen


def test_restored_state_matches_a_rebuild():
    """A snapshot taken at an optimal node resumes it exactly.

    Random walks over branches on seeded random models, as above.  The
    walk snapshots its optimal tableau after it frees an entry and goes
    on for three steps; the snapshot is then restored, which must give
    back the state and objective it copied, and the walk resumes from
    there by fixing more binaries, as a popped down child does.  After
    every restore, ``set_branch`` and ``solve_dual`` the state must
    equal a rebuild, and every solve must reach the verdict and the
    optimum of a cold solve of its branch.
    """
    rng = random.Random(3141)
    seen = dict(restored=0, optimal=0, infeasible=0)
    for _ in range(12):
        prob = build_milp(random_scenario(rng.randrange(2**31)))
        ws = LpWorkspace(prob)
        if ws.solve_primal() != STATUS_OPTIMAL:
            continue
        branch: dict[int, tuple[float, float]] = {}
        saved = None
        for step in range(16):
            if step % 4 == 0 and saved is not None:
                state, branch, z = saved
                saved = None
                ws.restore(state)
                assert_resident_state(ws)
                assert ws.objective() == z
                seen["restored"] += 1
            new = next_branch(rng, ws, branch, step)
            if ws.set_branch(new):
                branch = new
            assert_resident_state(ws)
            status = ws.solve_dual()
            seen[status] += 1
            assert_resident_state(ws)
            cold = cold_workspace(prob, new)
            assert cold.solve_primal() == status
            if status != STATUS_OPTIMAL:
                continue
            assert ws.objective() == pytest.approx(cold.objective(), abs=1e-9)
            if step % 4 == 1:
                saved = (ws.snapshot(), branch, ws.objective())
    assert min(seen.values()) >= 3, seen


def test_penalties_bound_each_child():
    """A child's optimum is at least its parent's plus its penalty.

    Random walks over branches on seeded random models, as above.  At
    every optimal node, each fractional binary's down child (upper bound
    0) and up child (lower bound 1) is solved cold: its optimum must
    reach the node's objective plus the child's penalty, less branch and
    bound's margin, and a child whose penalty is inf must be infeasible.
    Once the tableau's rows drift, no penalty may be inf.
    """
    rng = random.Random(1966)
    seen = dict(zero=0, lifted=0, infeasible=0, drifted=0)
    for _ in range(12):
        prob = build_milp(random_scenario(rng.randrange(2**31)))
        binaries = prob.binary_indices()
        ws = LpWorkspace(prob)
        status = ws.solve_primal()
        branch: dict[int, tuple[float, float]] = {}
        for step in range(12):
            if status == STATUS_OPTIMAL:
                z = ws.objective()
                margin = _BOUND_MARGIN * max(1.0, abs(z))
                vals = ws.values_extended()[binaries]
                frac = binaries[np.abs(vals - np.round(vals)) > FEAS_TOL]
                down, up = ws.penalties(frac) if frac.size else ((), ())
                assert ws.objective() == z
                if np.isinf(down).any() or np.isinf(up).any():
                    # A drifted row proves nothing: its child keeps the
                    # node's bound.
                    T = ws.T.copy()
                    ws.T[:, : ws.n_struct] *= 1.0 + 1e-6
                    assert np.isfinite(ws.penalties(frac)).all()
                    ws.T = T
                    seen["drifted"] += 1
                for j, p_down, p_up in zip(frac, down, up):
                    children = (((0.0, 0.0), p_down), ((1.0, 1.0), p_up))
                    for bounds, lift in children:
                        assert lift >= 0.0
                        cold = cold_workspace(prob, {**branch, int(j): bounds})
                        verdict = cold.solve_primal()
                        if np.isinf(lift):
                            assert verdict == STATUS_INFEASIBLE
                            seen["infeasible"] += 1
                        elif verdict == STATUS_OPTIMAL:
                            assert z + lift - margin <= cold.objective()
                            seen["lifted" if lift > margin else "zero"] += 1
            new = next_branch(rng, ws, branch, step)
            if ws.set_branch(new):
                branch = new
            status = ws.solve_dual()
    assert min(seen.values()) >= 10, seen


def product_form(monkeypatch):
    """Make workspaces built from now on keep the product form."""
    monkeypatch.setattr(simplex, "_TABLEAU_ROWS", -1)


def test_tableau_agrees_with_the_product_form(monkeypatch):
    """The two forms of the inverse reach the same verdicts and optima.

    Seeded random models, each solved at the root and along a random
    walk over branches (conflicts, freed fixed columns, cutoff stops) in
    a tableau workspace and in a product-form one.  A cutoff just below
    the shifted objective is set only where a cold solve finds the
    branch feasible, so that both forms must stop at it.
    """
    rng = random.Random(1618)
    seen = dict(conflict=0, freed=0, cutoff=0, optimal=0, infeasible=0)
    for _ in range(12):
        prob = build_milp(random_scenario(rng.randrange(2**31)))
        tab = LpWorkspace(prob)
        with monkeypatch.context() as patch:
            product_form(patch)
            prod = LpWorkspace(prob)
        assert tab.tableau and not prod.tableau
        status = tab.solve_primal()
        assert prod.solve_primal() == status
        if status != STATUS_OPTIMAL:
            continue
        branch: dict[int, tuple[float, float]] = {}
        for step in range(16):
            new = next_branch(rng, tab, branch, step)
            fixed = (tab.dirv == 0.0) & (tab.row_of < 0)
            applied = tab.set_branch(new)
            assert prod.set_branch(new) == applied
            if applied:
                branch = new
                freed = fixed & (tab.dirv != 0.0)
                seen["freed"] += int(freed.sum())
            else:
                seen["conflict"] += 1
            cutoff = None
            if step % 3 == 2 and applied:
                if cold_workspace(prob, branch).solve_primal() == STATUS_OPTIMAL:
                    cutoff = tab.objective() - 1e-3
            status = tab.solve_dual(cutoff)
            assert prod.solve_dual(cutoff) == status
            seen[status] += 1
            if status == STATUS_OPTIMAL:
                z = prod.objective()
                assert abs(tab.objective() - z) <= 1e-9 * (1.0 + abs(z))
    assert min(seen.values()) >= 3, seen


def test_row_count_chooses_the_form_of_the_inverse():
    """The 79-row small@1 keeps the product form, which takes no
    snapshot; every model of the benchmark's mini corpus (1000 seeds
    drawn by ``random.Random(42)``) keeps the tableau."""
    small = LpWorkspace(build_milp(build_reference_scenario("small", 1)))
    assert small.m == 79 and not small.tableau
    assert small.solve_primal() == STATUS_OPTIMAL
    assert small.snapshot() is None
    rng = random.Random(42)
    for _ in range(1000):
        prob = build_milp(random_scenario(rng.randrange(2**31)))
        assert LpWorkspace(prob).tableau


@pytest.mark.parametrize("tableau", [True, False])
def test_infeasible_node_is_refactorized_once(monkeypatch, tableau):
    """An infeasibility verdict costs at most one refactorization.

    Fixing both columns at zero leaves the >= row unmet with nothing
    that can move.  The product form checks the first such row by a
    refactorization, and the next one, with nothing pivoted since, is
    not.  The tableau trusts the row, as it trusts an optimal verdict,
    when the row equals rho [A | I] and the basic solution meets its
    rows; it refactorizes once only after its rows have drifted.
    """
    if not tableau:
        product_form(monkeypatch)

    def refactorizations(drift: float) -> int:
        ws = LpWorkspace(
            two_var_problem(
                (((0, 1.0), (1, 1.0)), ">=", 1.0),
                (((0, 1.0), (1, -1.0)), "<=", 3.0),
            )
        )
        assert ws.m == 2 and ws.tableau == tableau
        assert ws.solve_primal() == STATUS_OPTIMAL
        assert ws.set_branch({0: (0.0, 0.0), 1: (0.0, 0.0)})
        if drift:
            ws.T[:, : ws.n_struct] += drift  # each row's structural part
        calls = 0
        refactor = ws._refactor

        def counted():
            nonlocal calls
            calls += 1
            return refactor()

        monkeypatch.setattr(ws, "_refactor", counted)
        assert ws.solve_dual() == STATUS_INFEASIBLE
        return calls

    if tableau:
        assert refactorizations(0.0) == 0
        assert refactorizations(1e-6) == 1
    else:
        assert refactorizations(0.0) == 1


def test_refactorized_verdict_restarts_the_pivot_count(monkeypatch):
    """A verdict that stands only after a refactorization restarts the
    count of pivots since the last one.

    A tableau dive on drifted rows (each row's structural part perturbed,
    as above) pivots its basic solution off A x = b, so its optimal
    verdict fails the residual check: the dual refactorizes once, at a
    primal feasible basis, and returns with ``since_refactor`` at 0.
    """
    prob = build_milp(random_scenario(10))
    ws = LpWorkspace(prob)
    assert ws.tableau and ws.solve_primal() == STATUS_OPTIMAL
    assert ws.since_refactor > 0
    binaries = prob.binary_indices()
    vals = ws.values_extended()[binaries]
    j = int(binaries[np.abs(vals - np.round(vals)) > FEAS_TOL][0])
    assert ws.set_branch({j: (1.0, 1.0)})
    ws.T[:, : ws.n_struct] += 1e-6
    feasible_at = []
    refactor = ws._refactor

    def counted():
        scaled = np.maximum(ws.lb_b - ws.beta, ws.beta - ws.ub_b) / ws.tol_b
        feasible_at.append(bool(scaled.max() <= 1.0))
        return refactor()

    monkeypatch.setattr(ws, "_refactor", counted)
    before = ws.iterations
    assert ws.solve_dual() == STATUS_OPTIMAL
    assert ws.iterations > before
    assert feasible_at == [True]
    assert ws.since_refactor == 0
    cold = cold_workspace(prob, {j: (1.0, 1.0)})
    assert cold.solve_primal() == STATUS_OPTIMAL
    assert ws.objective() == pytest.approx(cold.objective(), abs=OBJ_TOL)


def test_product_form_prices_nothing_and_restores_nothing():
    """The 79-row small@1 keeps the product form: its penalties are zero
    for every candidate, and its snapshot, None, restores nothing."""
    ws = LpWorkspace(build_milp(build_reference_scenario("small", 1)))
    assert not ws.tableau and ws.solve_primal() == STATUS_OPTIMAL
    cand = ws.problem.binary_indices()
    down, up = ws.penalties(cand)
    assert np.array_equal(down, np.zeros(cand.size))
    assert np.array_equal(up, np.zeros(cand.size))
    z, basis = ws.objective(), ws.basis.copy()
    ws.restore(ws.snapshot())
    assert ws.objective() == z and np.array_equal(ws.basis, basis)


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


def test_conflicting_branch_applies_nothing():
    """After a conflict, the next branch still resets the bounds in place."""
    prob = build_milp(build_reference_scenario("small", 1))
    cloud = [v.name for v in prob.variables].index("a[cloud0]")
    k = int(prob.binary_indices()[0])
    ws = LpWorkspace(prob)
    assert ws.solve_primal() == STATUS_OPTIMAL
    root = ws.objective()
    assert ws.set_branch({cloud: (1.0, 1.0)})
    assert ws.solve_dual() == STATUS_OPTIMAL
    assert ws.objective() > root + 1.0  # the cloud's idle power
    assert ws.set_branch({k: (1.0, 0.0)}) is False
    assert ws.solve_dual() == STATUS_INFEASIBLE
    assert ws.set_branch({})
    assert ws.solve_dual() == STATUS_OPTIMAL
    assert ws.objective() == pytest.approx(root, rel=1e-9)


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
        cold = cold_workspace(prob, branch)
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
