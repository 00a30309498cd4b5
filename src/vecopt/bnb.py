"""Branch and bound on serving and activation binaries.

Best-bound search with plunging and deterministic tie-breaking,
warm-started dual simplex re-solves, a rounding heuristic that turns any
node relaxation into a feasible placement, and an optional initial
incumbent (the cloud-only baseline, in practice) so pruning starts
immediately.  The root relaxation is the first node: it is solved once,
and a node budget counts LP solves, the root's included.
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
    # Why branch and bound stopped: optimal | infeasible (both proven) |
    # node_limit | time_limit (a budget ran out first).
    stop_reason: str = ""


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

    The root relaxation is the first node and each later node is one
    warm dual re-solve; ``node_limit`` counts these LP solves, so a
    budget of 1 returns the rounded root.  The search is best-bound with
    plunging: after a node branches, its up child is solved next, one
    bound away from the warm basis, and the down child waits on a
    best-bound heap (ties newest-first).  The heap is popped only when
    the plunge ends in a pruned, infeasible or integral node.  The
    branching variable maximizes fractionality weighted by objective
    coefficient, so expensive activations settle before cheap serving
    indicators, with lower indices winning ties.  Equal-objective
    incumbents keep the lexicographically smallest binary pattern.

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
        placement = (
            Placement.empty() if vec is None else extract_placement(problem, vec)
        )
        return MilpSolution(status, obj, placement, vec, stats)

    ws = LpWorkspace(problem)
    root_status = ws.solve_primal()
    stats.lp_iterations = ws.iterations
    stats.explored_nodes = 1
    if root_status != STATUS_OPTIMAL:
        stats.stop_reason = STATUS_INFEASIBLE
        return done(STATUS_INFEASIBLE, float("nan"), None)

    binaries = problem.binary_indices()
    cleanup = cleanup_arrays(problem)
    cvec = problem.objective_vector()

    # Binary j >= DN sits at node (j - DN) % N of the block that starts at
    # j - node: one block per demand's serving indicators, then one of
    # activations.
    D, N = problem.n_demands, problem.n_nodes
    DN = D * N
    blocks = range(DN, 2 * DN + 1, N)
    class_of: dict[int, list[int]] = {}
    for cls in interchange_classes(problem.scenario):
        for pos in cls:
            class_of[pos] = cls

    inc_vec: np.ndarray | None = None
    inc_obj = np.inf
    inc_key: list[int] = []
    gap = options.absolute_gap

    def consider(vec: np.ndarray):
        """Keep vec as the incumbent if it is feasible and beats it."""
        nonlocal inc_vec, inc_obj, inc_key
        # Feasibility cannot matter for a vector that does not reach the
        # incumbent, so it is checked last.
        obj = float(cvec @ vec)
        if obj > inc_obj + 1e-9 or check_assignment(problem, vec):
            return
        if obj < inc_obj - 1e-9:
            inc_vec, inc_obj, inc_key = vec, obj, _key_of(vec, binaries)
        else:
            key = _key_of(vec, binaries)
            if key < inc_key:
                inc_vec, inc_obj, inc_key = vec, obj, key

    if options.initial_assignment is not None:
        consider(np.asarray(options.initial_assignment, dtype=float))

    heap: list[tuple[float, int, dict[int, tuple[float, float]]]] = []
    counter = 0
    # The node taken last (first the root) with its parent's bound, and
    # the next node of the plunge: the up child of a node that branches,
    # solved before anything on the heap.
    branch: dict[int, tuple[float, float]] = {}
    parent_bound = ws.objective()
    plunge: tuple[float, dict] | None = None
    solved = True
    stop = STATUS_OPTIMAL  # or the budget that ran out

    while True:
        # The workspace holds the optimal relaxation of the node taken
        # last: offer its cleaned placement as an incumbent and, while it
        # can still beat the incumbent, branch on it.
        if solved:
            vals = ws.values_extended()
            node_obj = float(ws.c @ vals)  # ws.objective(), from vals
        if solved and node_obj < inc_obj - gap:
            consider(clean_assignment(problem, vals[: cvec.size], cleanup))
            bin_vals = vals[binaries]
            frac = np.abs(bin_vals - np.round(bin_vals)) > FEAS_TOL
            # The heuristic may have closed this node.
            if frac.any() and node_obj < inc_obj - gap:
                # Weight fractionality by the variable's objective
                # coefficient so expensive activations (cloud idle dwarfs
                # any transfer term) are resolved before penny-scale
                # serving indicators; the lowest index wins a tie.
                cand = binaries[frac]
                score = 0.5 - np.abs(vals[cand] - 0.5)
                score *= np.maximum(cvec[cand], 1.0)
                best_j = int(cand[np.argmax(score)])
                node = (best_j - DN) % N
                down = dict(branch)
                for q in class_of.get(node, [node]):
                    if all(
                        branch.get(b + q) == branch.get(b + node)
                        for b in blocks
                    ):
                        down[best_j - node + q] = (0.0, 0.0)
                heapq.heappush(heap, (node_obj, -counter, down))
                counter += 1
                up = dict(branch)
                up[best_j] = (1.0, 1.0)
                plunge = (node_obj, up)

        if plunge is None and not heap:
            break
        if (
            options.node_limit is not None
            and stats.explored_nodes >= options.node_limit
        ):
            stop = "node_limit"
            break
        if (
            options.time_limit_s is not None
            and time.perf_counter() - t0 > options.time_limit_s
        ):
            stop = "time_limit"
            break
        if plunge is not None:
            (parent_bound, branch), plunge = plunge, None
        else:
            parent_bound, _, branch = heapq.heappop(heap)
        solved = False
        if parent_bound >= inc_obj - gap or not ws.set_branch(branch):
            continue
        before = ws.iterations
        cutoff = None if inc_vec is None else inc_obj - gap
        solved = ws.solve_dual(cutoff) == STATUS_OPTIMAL
        stats.lp_iterations += ws.iterations - before
        stats.explored_nodes += 1

    status = STATUS_OPTIMAL
    if stop != STATUS_OPTIMAL:
        status = STATUS_TIMEOUT
        # No node left open can beat the least bound among them.
        bounds = [parent_bound, inc_obj] + [entry[0] for entry in heap]
        if plunge is not None:
            bounds.append(plunge[0])
        stats.gap = inc_obj - min(bounds)
    elif inc_vec is None:
        status = stop = STATUS_INFEASIBLE
    stats.stop_reason = stop
    if inc_vec is None:
        return done(status, float("nan"), None)
    return done(status, inc_obj, inc_vec)


def solve_scenario(
    scenario: Scenario,
    *,
    time_limit_s: float | None = None,
    node_limit: int | None = None,
    absolute_gap: float = 1e-6,
) -> MilpSolution:
    """Build the model, seed the baseline incumbent, and solve exactly."""
    problem = build_milp(scenario)
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
