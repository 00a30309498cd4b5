"""Branch and bound on serving and activation binaries.

Best-bound search with plunging and deterministic tie-breaking,
warm-started dual simplex re-solves, a rounding heuristic that turns any
node relaxation into a feasible placement, and an optional initial
incumbent (the cloud-only baseline, in practice) so pruning starts
immediately.  The root relaxation is the first node: it is solved once,
and a node budget counts LP solves, the root's included.  A node popped
off the heap resumes from the workspace's snapshot of its parent
(``LpWorkspace.snapshot``), so a jump across the tree costs about the
pivots of a plunge.

One rule picks the branching variable: the largest product of its two
one-pivot penalties (Driebeek, 1966; Achterberg, 2007), which
``LpWorkspace.penalties`` gives and which are zero where the workspace
gives none.  Each child is keyed by its parent's bound plus its
penalty, so a child that cannot beat the incumbent is never solved and
the plunge goes on with the child of the lower bound.  With zero
penalties every candidate ties, the cost-weighted fractionality decides,
and both children keep their parent's bound.
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

# Incumbent objectives this close (watts) tie; the binary pattern decides.
_TIE_W = 1e-9
# A penalty below this counts as this in the branching score (Achterberg,
# 2007), so a zero penalty on one side does not hide the other.
_SCORE_EPS = 1e-6
# A child's bound is its parent's plus its penalty less this share of
# max(1, |parent bound|), which covers the roundoff of both.
_BOUND_MARGIN = 1e-9


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
    warm dual re-solve; ``stats.explored_nodes`` counts these LP solves,
    and so does ``node_limit``, so a budget of 1 returns the rounded
    root.  A child dropped by its bound before its solve is not counted.

    The search is best-bound with plunging: after a node branches, the
    child with the lower bound (the up child on a tie) is solved next,
    one bound away from the warm basis, and the other waits on a
    best-bound heap (ties newest-first) with the workspace's snapshot of
    its parent, which it restores when popped; a snapshot of None
    restores nothing, and the pop re-solves from the basis in place.
    The heap is popped when the plunge ends in a pruned, infeasible or
    integral node, or when both children are dropped; a popped node that
    its bound prunes restores nothing.

    The branching variable maximizes max(p-, eps) * max(p+, eps) over the
    fractional binaries, p- and p+ their down and up penalties
    (``LpWorkspace.penalties``, zero where the workspace gives none).
    Ties go to the larger fractionality weighted by objective
    coefficient, so expensive activations settle before cheap serving
    indicators, and then to the lower index.  Each child's key, on the
    heap or as the plunge's bound, is its parent's bound plus its
    penalty less a roundoff margin, and a child whose key cannot beat
    the incumbent, or whose penalty proves it infeasible, is dropped
    before any snapshot or solve.  Equal-objective incumbents keep the
    lexicographically smallest binary pattern.  A budget stop's
    ``stats.gap`` is the incumbent minus the least key of the open
    nodes, 0 when none is below the incumbent.

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
        stats.lp_iterations = ws.iterations
        placement = (
            Placement.empty() if vec is None else extract_placement(problem, vec)
        )
        return MilpSolution(status, obj, placement, vec, stats)

    ws = LpWorkspace(problem)
    root_status = ws.solve_primal()
    stats.explored_nodes = 1
    if root_status != STATUS_OPTIMAL:
        stats.stop_reason = STATUS_INFEASIBLE
        return done(STATUS_INFEASIBLE, float("nan"), None)

    binaries = problem.binary_indices()
    cvec = problem.objective_vector()

    # Binary j >= DN sits at node (j - DN) % N of the block that starts at
    # j - node: one block per demand's serving indicators, then one of
    # activations.
    D, N = problem.n_demands, problem.n_nodes
    DN = D * N
    blocks = range(DN, 2 * DN + 1, N)
    class_of: dict[int, list[int]] = {}
    for cls in interchange_classes(problem):
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
        if obj > inc_obj + _TIE_W or check_assignment(problem, vec):
            return
        if obj < inc_obj - _TIE_W:
            inc_vec, inc_obj, inc_key = vec, obj, _key_of(vec, binaries)
        else:
            key = _key_of(vec, binaries)
            if key < inc_key:
                inc_vec, inc_obj, inc_key = vec, obj, key

    if options.initial_assignment is not None:
        consider(np.asarray(options.initial_assignment, dtype=float))

    # Open nodes: (bound, -counter, branch, the parent's workspace state
    # or None); a child's bound is its parent's plus its penalty.
    heap: list[tuple[float, int, dict, tuple | None]] = []
    counter = 0
    # The branch of the node taken last (first the root), and the next
    # node of the plunge: a child of the node that branched last, solved
    # before anything on the heap.
    branch: dict[int, tuple[float, float]] = {}
    plunge: tuple[float, dict, None] | None = None
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
            consider(clean_assignment(problem, vals[: cvec.size]))
            bin_vals = vals[binaries]
            frac = np.abs(bin_vals - np.round(bin_vals)) > FEAS_TOL
            # The heuristic may have closed this node.
            if frac.any() and node_obj < inc_obj - gap:
                # The largest product of the one-pivot penalties wins.
                # Fractionality weighted by the variable's objective
                # coefficient breaks ties, so expensive activations (cloud
                # idle dwarfs any transfer term) are resolved before
                # penny-scale serving indicators, then the lowest index.
                # Where the workspace gives zero penalties, all of its
                # candidates tie, and its children keep the node's bound.
                cand = binaries[frac]
                p_down, p_up = ws.penalties(cand)
                product = np.maximum(p_down, _SCORE_EPS) * np.maximum(
                    p_up, _SCORE_EPS
                )
                score = 0.5 - np.abs(vals[cand] - 0.5)
                score *= np.maximum(cvec[cand], 1.0)
                score[product < product.max()] = -np.inf
                k = int(np.argmax(score))
                margin = _BOUND_MARGIN * max(1.0, abs(node_obj))
                down_bound = node_obj + max(float(p_down[k]) - margin, 0.0)
                up_bound = node_obj + max(float(p_up[k]) - margin, 0.0)
                best_j = int(cand[k])
                up = dict(branch)
                up[best_j] = (1.0, 1.0)
                node = (best_j - DN) % N
                down = dict(branch)
                for q in class_of.get(node, [node]):
                    if all(
                        branch.get(b + q) == branch.get(b + node)
                        for b in blocks
                    ):
                        down[best_j - node + q] = (0.0, 0.0)
                # The child with the lower bound, the up child on a tie, is
                # the plunge, from the basis in place; the other waits on
                # the heap with a snapshot of this node.  A child that
                # cannot beat the incumbent is dropped.
                (first_bound, _, first), (second_bound, _, second) = sorted(
                    [(up_bound, 0, up), (down_bound, 1, down)]
                )
                if first_bound < inc_obj - gap:
                    plunge = (first_bound, first, None)
                    if second_bound < inc_obj - gap:
                        state = ws.snapshot()
                        heapq.heappush(
                            heap, (second_bound, -counter, second, state)
                        )
                        counter += 1

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
            (bound, branch, state), plunge = plunge, None
        else:
            bound, _, branch, state = heapq.heappop(heap)
        solved = False
        if bound >= inc_obj - gap:
            continue
        # Resume from the parent's optimal basis, one branch entry (and
        # its orbit) away, as a plunge does; without a snapshot, from the
        # basis in place.
        ws.restore(state)
        if not ws.set_branch(branch):
            continue
        cutoff = None if inc_vec is None else inc_obj - gap
        solved = ws.solve_dual(cutoff) == STATUS_OPTIMAL
        stats.explored_nodes += 1

    status = STATUS_OPTIMAL
    if stop != STATUS_OPTIMAL:
        status = STATUS_TIMEOUT
        # No node left open can beat the least bound among them.  The
        # node taken last is closed or has branched into them.
        bounds = [inc_obj] + [entry[0] for entry in heap]
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
            time_limit_s=time_limit_s,
            node_limit=node_limit,
            initial_assignment=initial,
        ),
    )
