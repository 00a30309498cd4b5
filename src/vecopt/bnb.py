"""Branch and bound on serving and activation binaries.

Best-bound search with plunging and deterministic tie-breaking,
warm-started dual simplex re-solves, a rounding heuristic that turns any
node relaxation into a feasible placement, and an optional initial
incumbent (the cloud-only baseline, in practice) so pruning starts
immediately.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from .milp import (
    FEAS_TOL,
    MilpProblem,
    assignment_from_placement,
    build_milp,
    check_assignment,
    clean_assignment,
    cleanup_arrays,
    extract_placement,
    interchange_classes,
)
from .power import cloud_only_placement
from .simplex import (
    LpWorkspace,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
)
from .types import Placement, PlacementError, Scenario

STATUS_TIMEOUT = "timeout"


@dataclass
class BnbOptions:
    absolute_gap: float = 1e-6
    time_limit_s: float | None = None
    # Deterministic work budget: stop after this many explored nodes with
    # the best incumbent, independent of machine speed or load.
    node_limit: int | None = None
    initial_assignment: np.ndarray | None = None


@dataclass
class SolveStats:
    explored_nodes: int = 0
    lp_iterations: int = 0
    wall_ms: float = 0.0
    gap: float = 0.0


@dataclass
class MilpSolution:
    status: str  # optimal | infeasible | timeout
    objective: float
    placement: Placement
    assignment: np.ndarray | None
    stats: SolveStats = field(default_factory=SolveStats)


def _key_of(v: np.ndarray, binaries: np.ndarray) -> list[int]:
    return np.rint(v[binaries]).astype(np.int64).tolist()


def branch_and_bound(
    problem: MilpProblem, options: BnbOptions | None = None
) -> MilpSolution:
    """Exact minimization of the placement MILP.

    The search is best-bound with plunging: after a node branches, its
    up child is solved next, one bound away from the warm basis, and the
    down child waits on a best-bound heap (ties newest-first).  The heap
    is popped only when the plunge ends in a pruned, infeasible or
    integral node.  The branching variable maximizes fractionality
    weighted by objective coefficient, so expensive activations settle
    before cheap serving indicators, with lower indices winning ties.
    Equal-objective incumbents keep the lexicographically smallest
    binary pattern.

    Branching is orbital: when the chosen variable belongs to a node that
    is interchangeable with others whose branching state is identical, the
    zero branch fixes the variable to zero across the whole orbit.  Any
    solution it cuts is a permutation of one the one branch keeps, so the
    optimum is preserved while permutation duplicates disappear from the
    tree.
    """
    options = options or BnbOptions()
    t0 = time.perf_counter()
    stats = SolveStats()

    def done(status: str, obj: float, vec: np.ndarray | None) -> MilpSolution:
        stats.wall_ms = (time.perf_counter() - t0) * 1000.0
        placement = Placement.empty()
        if vec is not None:
            placement = extract_placement(problem, vec)
        return MilpSolution(
            status=status,
            objective=obj,
            placement=placement,
            assignment=vec,
            stats=stats,
        )

    ws = LpWorkspace(problem)
    root_status = ws.solve_primal()
    stats.lp_iterations = ws.iterations
    stats.explored_nodes = 1
    if root_status != STATUS_OPTIMAL:
        return done(STATUS_INFEASIBLE, float("nan"), None)

    binaries = problem.binary_indices()
    cleanup = cleanup_arrays(problem)
    cvec = problem.objective_vector()

    D, N = problem.n_demands, problem.n_nodes
    DN = D * N
    class_of: dict[int, tuple[int, ...]] = {}
    for cls in interchange_classes(problem.scenario):
        for pos in cls:
            class_of[pos] = tuple(cls)

    def var_node(j: int) -> int:
        return j - 2 * DN if j >= 2 * DN else (j - DN) % N

    def var_block(j: int) -> int:
        # demand index for serving variables, -1 for activation
        return -1 if j >= 2 * DN else (j - DN) // N

    def block_var(block: int, pos: int) -> int:
        return 2 * DN + pos if block == -1 else DN + block * N + pos

    def orbit_of(pos: int, branch: dict) -> tuple[int, ...]:
        """Interchangeable nodes whose branching history matches pos's."""
        cls = class_of.get(pos)
        if cls is None:
            return (pos,)
        states: dict[int, list] = {q: [] for q in cls}
        for j, bounds in branch.items():
            if j < DN:
                continue
            q = var_node(j)
            if q in states:
                states[q].append((var_block(j), bounds))
        target = sorted(states[pos])
        return tuple(q for q in cls if sorted(states[q]) == target)

    inc_vec: np.ndarray | None = None
    inc_obj = np.inf
    inc_key: list[int] = []
    gap = options.absolute_gap

    def consider(vec: np.ndarray):
        """Keep vec as the incumbent if it is feasible and beats it."""
        nonlocal inc_vec, inc_obj, inc_key
        if check_assignment(problem, vec):
            return
        obj = float(cvec @ vec)
        if inc_vec is None or obj < inc_obj - 1e-9:
            inc_vec, inc_obj, inc_key = vec, obj, _key_of(vec, binaries)
        elif obj <= inc_obj + 1e-9:
            key = _key_of(vec, binaries)
            if key < inc_key:
                inc_vec, inc_obj, inc_key = vec, obj, key

    def process(values: np.ndarray) -> list[int] | None:
        """Returns fractional binary candidates, or None if integral.

        Any relaxation, integral or not, is cleaned into a placement read
        off its positive x entries and offered as an incumbent.
        """
        consider(clean_assignment(problem, values, cleanup))
        bin_vals = values[binaries]
        frac = np.abs(bin_vals - np.round(bin_vals))
        cand = np.nonzero(frac > FEAS_TOL)[0]
        if cand.size == 0:
            return None
        return [int(binaries[k]) for k in cand]

    if options.initial_assignment is not None:
        consider(np.asarray(options.initial_assignment, dtype=float))

    heap: list[tuple[float, int, dict[int, tuple[float, float]]]] = []
    counter = 0
    root_obj = ws.objective()
    # The next node of the current plunge (the root, then the up child of
    # each node that branches), solved before anything on the heap.
    plunge: tuple[float, dict] | None = (root_obj, {})
    timed_out = False
    parent_bound = root_obj

    while heap or plunge is not None:
        if (
            options.time_limit_s is not None
            and time.perf_counter() - t0 > options.time_limit_s
        ) or (
            options.node_limit is not None
            and stats.explored_nodes >= options.node_limit
        ):
            timed_out = True
            break
        if plunge is not None:
            parent_bound, branch = plunge
            plunge = None
        else:
            parent_bound, _, branch = heapq.heappop(heap)
        if inc_vec is not None and parent_bound >= inc_obj - gap:
            continue
        if not ws.set_branch(branch):
            continue
        before = ws.iterations
        status = ws.solve_dual(
            None if inc_vec is None else inc_obj - gap
        )
        stats.lp_iterations += ws.iterations - before
        stats.explored_nodes += 1
        if status != STATUS_OPTIMAL:
            continue
        node_obj = ws.objective()
        if inc_vec is not None and node_obj >= inc_obj - gap:
            continue
        fractional = process(ws.values())
        if fractional is None:
            continue
        if inc_vec is not None and node_obj >= inc_obj - gap:
            continue  # the heuristic may have closed this node
        vals = ws.values_extended()
        # Weight fractionality by the variable's objective coefficient so
        # expensive activations (cloud idle dwarfs any transfer term) are
        # resolved before penny-scale serving indicators.
        best_j = max(
            fractional,
            key=lambda j: (
                (0.5 - abs(vals[j] - 0.5)) * max(cvec[j], 1.0),
                -j,
            ),
        )

        down = dict(branch)
        block = var_block(best_j)
        for q in orbit_of(var_node(best_j), branch):
            down[block_var(block, q)] = (0.0, 0.0)
        heapq.heappush(heap, (node_obj, -counter, down))
        counter += 1
        up = dict(branch)
        up[best_j] = (1.0, 1.0)
        plunge = (node_obj, up)

    if timed_out:
        bounds_left = [parent_bound] + [entry[0] for entry in heap]
        if plunge is not None:
            bounds_left.append(plunge[0])
        if inc_vec is None:
            stats.gap = float("inf")
            return done(STATUS_TIMEOUT, float("nan"), None)
        best_left = min(bounds_left) if bounds_left else inc_obj
        stats.gap = max(0.0, inc_obj - min(best_left, inc_obj))
        return done(STATUS_TIMEOUT, inc_obj, inc_vec)

    if inc_vec is None:
        return done(STATUS_INFEASIBLE, float("nan"), None)
    stats.gap = 0.0
    return done(STATUS_OPTIMAL, inc_obj, inc_vec)


def solve_scenario(
    scenario: Scenario,
    *,
    time_limit_s: float | None = None,
    node_limit: int | None = None,
    absolute_gap: float = 1e-6,
) -> MilpSolution:
    """Build the model, seed the baseline incumbent, and solve exactly."""
    problem = build_milp(scenario)
    initial = None
    try:
        baseline = cloud_only_placement(scenario)
        initial = assignment_from_placement(problem, baseline)
    except PlacementError:
        initial = None
    return branch_and_bound(
        problem,
        BnbOptions(
            absolute_gap=absolute_gap,
            time_limit_s=time_limit_s,
            node_limit=node_limit,
            initial_assignment=initial,
        ),
    )
