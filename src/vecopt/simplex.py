"""Embedded linear-programming engine.

A revised simplex method for bounded variables, kept deliberately dense:
the basis inverse is maintained explicitly (product-form updates with
periodic refactorization) while the constraint matrix lives in sorted
triplet form.  A dual mode re-optimizes cheaply after bound changes,
which is what the branch-and-bound driver leans on.

The inverse is stored transposed (``Bt``, row-major), so that a pivot
touches only the rows of ``Bt`` where the pivot row of B^-1 is nonzero
and each entering column is gathered from a few contiguous rows.  The
full products with B^-1 (the duals, the basic values after a
refactorization and the shift after a bound change) run on a row-major
untransposed copy instead: BLAS sums ``Bt @ x`` in another order than
``Binv.T @ x``, and the last bits it changes would move pivot paths.

Solves min c'x subject to row constraints and variable bounds.  Binary
variables from the MILP arrive here already relaxed to their bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .milp import MilpProblem

AT_LB, AT_UB, BASIC, FIXED = 0, 1, 2, 3

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_CUTOFF = "cutoff"

_PRIMAL_TOL = 1e-7
_DUAL_TOL = 1e-7
_PIVOT_TOL = 1e-9
_STALL_LIMIT = 50
_REFACTOR_EVERY = 100
_ITER_LIMIT = 200000


class SolverError(RuntimeError):
    """The engine failed to make progress; indicates a numerical problem."""


@dataclass
class LpSolution:
    status: str
    objective: float
    values: np.ndarray  # structural variables only
    iterations: int


def _fold_singletons(
    rows: list[tuple[list[tuple[int, float]], str, float]],
    lb: np.ndarray,
    ub: np.ndarray,
) -> tuple[list[tuple[list[tuple[int, float]], str, float]], bool]:
    """Move single-variable rows into bounds; drop rows nothing can violate.

    Returns the surviving rows and whether the bounds already prove
    infeasibility.  Dropping is conservative: a row goes only when its
    extreme activity over the current bounds cannot cross the right-hand
    side, which stays true under any later bound tightening.
    """
    kept = []
    for coeffs, sense, rhs in rows:
        coeffs = [(j, c) for j, c in coeffs if c != 0.0]
        if not coeffs:
            ok = (
                (sense == "<=" and rhs >= -1e-9)
                or (sense == ">=" and rhs <= 1e-9)
                or (sense == "=" and abs(rhs) <= 1e-9)
            )
            if not ok:
                return [], True
            continue
        if len(coeffs) == 1:
            j, c = coeffs[0]
            val = rhs / c
            tighten_ub = (sense == "<=" and c > 0) or (sense == ">=" and c < 0)
            tighten_lb = (sense == "<=" and c < 0) or (sense == ">=" and c > 0)
            if sense == "=":
                tighten_ub = tighten_lb = True
            if tighten_ub:
                ub[j] = min(ub[j], val)
            if tighten_lb:
                lb[j] = max(lb[j], val)
            continue
        kept.append((coeffs, sense, rhs))
    if np.any(lb > ub + 1e-9):
        return [], True

    surviving = []
    for coeffs, sense, rhs in kept:
        hi = sum(c * (ub[j] if c > 0 else lb[j]) for j, c in coeffs)
        lo = sum(c * (lb[j] if c > 0 else ub[j]) for j, c in coeffs)
        scale = max(1.0, abs(rhs))
        if sense == "<=":
            if hi <= rhs + 1e-9 * scale:
                continue
            if lo > rhs + 1e-9 * scale:
                return [], True
        elif sense == ">=":
            if lo >= rhs - 1e-9 * scale:
                continue
            if hi < rhs - 1e-9 * scale:
                return [], True
        else:
            if abs(hi - rhs) <= 1e-9 * scale and abs(lo - rhs) <= 1e-9 * scale:
                continue
            if lo > rhs + 1e-9 * scale or hi < rhs - 1e-9 * scale:
                return [], True
        surviving.append((coeffs, sense, rhs))
    return surviving, False


class LpWorkspace:
    """One relaxation instance that can be re-solved under new bounds.

    ``solve_primal`` computes the root optimum from a fresh slack basis;
    ``set_branch`` plus ``solve_dual`` re-optimize after bound changes,
    restarting from the previous optimal basis.
    """

    def __init__(
        self,
        problem: MilpProblem,
        var_bounds: dict[int, tuple[float, float]] | None = None,
    ):
        self.problem = problem
        n = len(problem.variables)
        self.n_struct = n
        lb = np.array([v.lower for v in problem.variables], dtype=float)
        ub = np.array([v.upper for v in problem.variables], dtype=float)
        if var_bounds:
            for j, (lo, hi) in var_bounds.items():
                lb[j] = max(lb[j], lo)
                ub[j] = min(ub[j], hi)

        raw_rows = [(list(r.coeffs), r.sense, r.rhs) for r in problem.rows]
        rows, infeasible = _fold_singletons(raw_rows, lb, ub)
        self.proven_infeasible = infeasible

        m = len(rows)
        self.m = m
        ncols = n + 2 * m  # structurals, slacks, artificials
        self.ncols = ncols

        coo_r: list[int] = []
        coo_c: list[int] = []
        coo_v: list[float] = []
        b = np.zeros(m)
        slack_ub = np.zeros(m)
        for i, (coeffs, sense, rhs) in enumerate(rows):
            if sense == ">=":  # normalize to <=
                coeffs = [(j, -c) for j, c in coeffs]
                rhs = -rhs
                sense = "<="
            scale = max(abs(c) for _, c in coeffs)
            for j, c in coeffs:
                coo_r.append(i)
                coo_c.append(j)
                coo_v.append(c / scale)
            b[i] = rhs / scale
            slack_ub[i] = np.inf if sense == "<=" else 0.0
        for i in range(m):  # slack columns
            coo_r.append(i)
            coo_c.append(n + i)
            coo_v.append(1.0)
        for i in range(m):  # artificial columns
            coo_r.append(i)
            coo_c.append(n + m + i)
            coo_v.append(1.0)

        order = np.lexsort((np.asarray(coo_r), np.asarray(coo_c)))
        self.A_rows = np.asarray(coo_r, dtype=np.intp)[order]
        self.A_cols = np.asarray(coo_c, dtype=np.intp)[order]
        self.A_vals = np.asarray(coo_v, dtype=float)[order]
        self.col_ptr = np.searchsorted(self.A_cols, np.arange(ncols + 1))
        self.b = b

        self.lb = np.concatenate([lb, np.zeros(m), np.zeros(m)])
        self.ub = np.concatenate([ub, slack_ub, np.zeros(m)])
        self.root_lb = self.lb[:n].copy()
        self.root_ub = self.ub[:n].copy()
        if np.any(np.isinf(self.lb[:n]) & np.isinf(self.ub[:n])):
            raise SolverError("free variables are not supported")

        self.c = np.concatenate(
            [
                np.array([v.objective for v in problem.variables]),
                np.zeros(2 * m),
            ]
        )
        self.iterations = 0
        self._branch: dict[int, tuple[float, float]] = {}
        self._conflict = False  # the last set_branch emptied a bound
        self._basis_ready = False
        self._binv: np.ndarray | None = None  # untransposed copy of Bt

    # -- sparse helpers --------------------------------------------------

    def _column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        s, e = self.col_ptr[j], self.col_ptr[j + 1]
        return self.A_rows[s:e], self.A_vals[s:e]

    def _mat_t_vec(self, y: np.ndarray) -> np.ndarray:
        """A' y over all extended columns."""
        return np.bincount(
            self.A_cols,
            weights=y[self.A_rows] * self.A_vals,
            minlength=self.ncols,
        )

    def _mat_vec(self, v: np.ndarray) -> np.ndarray:
        """A v for an extended value vector."""
        return np.bincount(
            self.A_rows,
            weights=v[self.A_cols] * self.A_vals,
            minlength=self.m,
        )

    def _nonbasic_values(self) -> np.ndarray:
        v = np.where(self.stat == AT_UB, self.ub, self.lb)
        v[self.stat == BASIC] = 0.0
        return v

    def _directions(self) -> np.ndarray:
        """+1 at a lower bound, -1 at an upper bound, 0 basic or fixed.

        A nonbasic column may move in its direction only, so the pricing
        and ratio tests compare ``dirv * d`` or ``dirv * arow`` against one
        threshold in place of a mask per status (negation is exact).
        """
        return np.where(
            self.stat == AT_LB, 1.0, np.where(self.stat == AT_UB, -1.0, 0.0)
        )

    # -- basis management --------------------------------------------------

    def _start_basis(self) -> np.ndarray:
        """Slack-or-artificial starting basis; returns phase-one costs."""
        n, m = self.n_struct, self.m
        self.stat = np.full(self.ncols, AT_LB, dtype=np.int8)
        only_ub = np.isinf(self.lb) & ~np.isinf(self.ub)
        self.stat[only_ub] = AT_UB
        self.stat[self.lb == self.ub] = FIXED
        self.stat[n + m :] = FIXED  # artificials parked until needed

        v = self._nonbasic_values()
        resid = self.b - self._mat_vec(v)

        self.basis = np.empty(m, dtype=np.intp)
        art_cost = np.zeros(self.ncols)
        for i in range(m):
            s = resid[i]
            if self.lb[n + i] - _PRIMAL_TOL <= s <= self.ub[n + i] + _PRIMAL_TOL:
                self.basis[i] = n + i
            else:
                j = n + m + i
                self.basis[i] = j
                if s >= 0:
                    self.lb[j], self.ub[j] = 0.0, np.inf
                    art_cost[j] = 1.0
                else:
                    self.lb[j], self.ub[j] = -np.inf, 0.0
                    art_cost[j] = -1.0
        self.stat[self.basis] = BASIC
        self.Bt = np.eye(m)
        self._binv = None
        self.beta = resid.copy()
        self._basis_ready = True
        return art_cost

    def _refactor(self):
        m = self.m
        if m == 0:
            return
        B = np.zeros((m, m))
        for k in range(m):
            ridx, vals = self._column(int(self.basis[k]))
            B[ridx, k] = vals
        try:
            binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular basis: {exc}") from None
        v = self._nonbasic_values()
        self.beta = binv @ (self.b - self._mat_vec(v))
        self.Bt = np.ascontiguousarray(binv.T)
        self._binv = binv

    def _untransposed(self) -> np.ndarray:
        """B^-1 in row-major order, rebuilt only after a pivot."""
        if self._binv is None:
            self._binv = np.ascontiguousarray(self.Bt.T)
        return self._binv

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        if self.m == 0:
            return c.copy()
        pi = self._untransposed().T @ c[self.basis]
        return c - self._mat_t_vec(pi)

    def _solution_residual(self) -> float:
        """Max row residual of the current basic solution, scaled by b."""
        if self.m == 0:
            return 0.0
        v = self._nonbasic_values()
        v[self.basis] = self.beta
        resid = float(np.abs(self.b - self._mat_vec(v)).max())
        return resid / (1.0 + float(np.abs(self.b).max()))

    def _update_binv(self, alpha: np.ndarray, r: int):
        # Product-form rank-1 update B^-1 -= alpha (x) row, done on the
        # transpose: row r of B^-1 is column r of Bt, and only the rows of
        # Bt where it is nonzero change (every other entry would have zero
        # subtracted).  alpha is dead after this call, so it is clobbered
        # in place of a copy.
        row = self.Bt[:, r] / alpha[r]
        alpha[r] = 0.0
        cols = np.flatnonzero(row)
        self.Bt[cols] -= row[cols, None] * alpha
        self.Bt[:, r] = row
        self._binv = None

    # -- primal simplex ------------------------------------------------------

    def _primal(self, c: np.ndarray) -> str:
        m = self.m
        d = self._reduced_costs(c)
        dirv = self._directions()
        bland = False
        stall = 0
        since_refactor = 0
        confirmed = False
        deadline = self.iterations + _ITER_LIMIT
        while True:
            can_enter = dirv * d < -_DUAL_TOL
            if not can_enter.any():
                if confirmed or m == 0:
                    return STATUS_OPTIMAL
                self._refactor()
                d = self._reduced_costs(c)
                confirmed = True
                continue
            confirmed = False
            if bland:
                q = int(np.argmax(can_enter))
            else:
                q = int(np.argmax(np.where(can_enter, np.abs(d), -1.0)))
            sigma = float(dirv[q])

            ridx, vals = self._column(q)
            alpha = self.Bt[ridx].T @ vals if m else np.zeros(0)
            abar = sigma * alpha

            lb_b = self.lb[self.basis] if m else np.zeros(0)
            ub_b = self.ub[self.basis] if m else np.zeros(0)
            t = np.full(m, np.inf)
            up = abar > _PIVOT_TOL
            dn = abar < -_PIVOT_TOL
            with np.errstate(invalid="ignore"):
                t[up] = (self.beta[up] - lb_b[up]) / abar[up]
                t[dn] = (self.beta[dn] - ub_b[dn]) / abar[dn]
            t[np.isnan(t)] = np.inf
            np.maximum(t, 0.0, out=t)
            t_row = float(t.min()) if m else np.inf
            t_limit = float(self.ub[q] - self.lb[q])
            t_min = min(t_row, t_limit)
            if not np.isfinite(t_min):
                return STATUS_UNBOUNDED

            self.iterations += 1
            since_refactor += 1
            stall = stall + 1 if t_min <= 1e-10 else 0
            if stall > _STALL_LIMIT:
                bland = True
            if self.iterations > deadline:
                raise SolverError("iteration limit exceeded")

            if t_limit <= t_row:
                # entering variable rides to its opposite bound
                if m:
                    self.beta -= t_limit * abar
                self.stat[q] = AT_UB if self.stat[q] == AT_LB else AT_LB
                dirv[q] = -sigma
            else:
                ties = np.nonzero(t <= t_min + 1e-9)[0]
                if bland:
                    r = int(ties[np.argmin(self.basis[ties])])
                else:
                    r = int(ties[np.argmax(np.abs(abar[ties]))])
                if abs(alpha[r]) < _PIVOT_TOL:
                    self._refactor()
                    d = self._reduced_costs(c)
                    since_refactor = 0
                    continue
                arow = self._mat_t_vec(self.Bt[:, r])
                leaving = int(self.basis[r])
                enter_val = (
                    self.lb[q] if sigma > 0 else self.ub[q]
                ) + sigma * t_min
                self.beta -= t_min * abar
                dirv[leaving] = self._leave(leaving, to_ub=not abar[r] > 0)
                self.basis[r] = q
                self.stat[q] = BASIC
                dirv[q] = 0.0
                self.beta[r] = enter_val
                theta = d[q] / alpha[r]
                d -= theta * arow
                d[q] = 0.0
                self._update_binv(alpha, r)
            if since_refactor >= _REFACTOR_EVERY:
                self._refactor()
                d = self._reduced_costs(c)
                since_refactor = 0

    def _leave(self, j: int, to_ub: bool) -> float:
        """Make basic column j nonbasic at a bound; returns its direction."""
        if self.lb[j] == self.ub[j]:
            self.stat[j] = FIXED
            return 0.0
        self.stat[j] = AT_UB if to_ub else AT_LB
        return -1.0 if to_ub else 1.0

    # -- dual simplex --------------------------------------------------------

    def _dual(self, c: np.ndarray, cutoff: float | None = None) -> str:
        m = self.m
        if m == 0:
            return STATUS_OPTIMAL
        d = self._reduced_costs(c)
        bland = False
        stall = 0
        since_refactor = 0
        confirmed = False
        retried = False
        deadline = self.iterations + _ITER_LIMIT
        # Per-pivot state, built once and kept up to date at each pivot
        # (bounds stay put while the dual pivots): the directions, the
        # nonbasic values (stale at basic positions, which the objective
        # overwrites with beta), and the bounds and feasibility tolerance
        # of each basic position.  The tolerance scales with finite bounds.
        dirv = self._directions()
        xnb = self._nonbasic_values()
        col_tol = _PRIMAL_TOL * np.maximum(
            1.0,
            np.maximum(
                np.where(np.isfinite(self.lb), np.abs(self.lb), 0.0),
                np.where(np.isfinite(self.ub), np.abs(self.ub), 0.0),
            ),
        )
        lb_b = self.lb[self.basis]
        ub_b = self.ub[self.basis]
        tol = col_tol[self.basis]

        def objective() -> float:
            # The vector and the dot product of ``objective()``: a running
            # sum would move the last bits that the cutoff test compares.
            return float(self.c @ self._with_basic(xnb.copy()))

        while True:
            if cutoff is not None and objective() > cutoff:
                # The running objective is a dual bound; past the cutoff
                # the caller will discard this node, so stop pivoting as
                # soon as a drift check (or a refactorization) confirms.
                if self._solution_residual() <= 1e-9:
                    return STATUS_CUTOFF
                self._refactor()
                d = self._reduced_costs(c)
                since_refactor = 0
                if objective() > cutoff:
                    return STATUS_CUTOFF
            viol_lo = lb_b - self.beta
            viol_hi = self.beta - ub_b
            viol = np.maximum(viol_lo, viol_hi)
            scaled = viol / tol
            if float(scaled.max()) <= 1.0:
                if confirmed:
                    return STATUS_OPTIMAL
                # Accept a drift-free basis without the cost of a full
                # refactorization; fall back to one otherwise.
                if self._solution_residual() <= 1e-9:
                    return STATUS_OPTIMAL
                self._refactor()
                d = self._reduced_costs(c)
                confirmed = True
                continue
            confirmed = False
            if bland:
                cand = np.nonzero(scaled > 1.0)[0]
                r = int(cand[np.argmin(self.basis[cand])])
            else:
                r = int(np.argmax(scaled))
            above = viol_hi[r] >= viol_lo[r]
            target = ub_b[r] if above else lb_b[r]
            delta = float(self.beta[r] - target)

            arow = self._mat_t_vec(self.Bt[:, r])
            toward = dirv * arow
            if delta > 0:
                cand = np.flatnonzero(toward > _PIVOT_TOL)
            else:
                cand = np.flatnonzero(toward < -_PIVOT_TOL)
            if not cand.size:
                # Re-derive everything from a fresh factorization before
                # trusting an infeasibility verdict.
                self._refactor()
                d = self._reduced_costs(c)
                still = np.maximum(lb_b - self.beta, self.beta - ub_b) / tol
                if float(still.max()) <= 1.0:
                    return STATUS_OPTIMAL
                if not retried:
                    retried = True
                    continue
                return STATUS_INFEASIBLE

            ratios = np.abs(d[cand]) / np.abs(arow[cand])
            best = float(ratios.min())
            ties = cand[ratios <= best * (1 + 1e-9) + 1e-12]
            if bland:
                q = int(ties[0])
            else:
                q = int(ties[np.argmax(np.abs(arow[ties]))])

            self.iterations += 1
            since_refactor += 1
            retried = False
            if self.iterations > deadline:
                raise SolverError("iteration limit exceeded")

            ridx, vals = self._column(q)
            alpha = self.Bt[ridx].T @ vals
            dv = delta / arow[q]
            enter_val = xnb[q] + dv
            leaving = int(self.basis[r])
            self.beta -= dv * alpha
            dirv[leaving] = self._leave(leaving, to_ub=above)
            xnb[leaving] = (self.ub if dirv[leaving] < 0 else self.lb)[leaving]
            self.basis[r] = q
            self.stat[q] = BASIC
            dirv[q] = 0.0
            lb_b[r] = self.lb[q]
            ub_b[r] = self.ub[q]
            tol[r] = col_tol[q]
            self.beta[r] = enter_val
            theta = d[q] / arow[q]
            d -= theta * arow
            d[q] = 0.0
            stall = stall + 1 if abs(delta) <= 1e-10 else 0
            if stall > _STALL_LIMIT:
                bland = True
            self._update_binv(alpha, r)
            if since_refactor >= _REFACTOR_EVERY:
                self._refactor()
                d = self._reduced_costs(c)
                since_refactor = 0

    # -- public entry points ---------------------------------------------

    def solve_primal(self) -> str:
        """Two-phase solve from a fresh slack basis."""
        if self.proven_infeasible:
            return STATUS_INFEASIBLE
        art_cost = self._start_basis()
        n, m = self.n_struct, self.m
        art = slice(n + m, n + 2 * m)
        if np.any(art_cost != 0.0):
            status = self._primal(art_cost)
            if status == STATUS_UNBOUNDED:
                raise SolverError("phase one cannot be unbounded")
            phase1 = float(art_cost[self.basis] @ self.beta)
            b_scale = float(np.abs(self.b).max()) if m else 0.0
            if abs(phase1) > 1e-7 * max(1.0, b_scale):
                return STATUS_INFEASIBLE
            self.lb[art] = 0.0
            self.ub[art] = 0.0
            artstat = self.stat[art]
            artstat[artstat != BASIC] = FIXED
            self.stat[art] = artstat
        return self._primal(self.c)

    def set_branch(self, branch: dict[int, tuple[float, float]]) -> bool:
        """Replace the branching bounds; False when they conflict.

        Bounds intersect the problem's root bounds.  Nonbasic variables
        snap to their new bound values and the basic solution shifts
        accordingly; ``solve_dual`` then restores feasibility.
        """
        if not self._basis_ready:
            raise SolverError("solve_primal must run before set_branch")
        touched = set(self._branch) | set(branch)
        updates: dict[int, tuple[float, float]] = {}
        for j in touched:
            lo, hi = branch.get(j, (-np.inf, np.inf))
            lo = max(lo, float(self.root_lb[j]))
            hi = min(hi, float(self.root_ub[j]))
            if lo > hi + 1e-12:
                self._branch = dict(branch)
                self._conflict = True
                return False
            updates[j] = (lo, hi)
        self._branch = dict(branch)
        self._conflict = False

        d = None
        delta_cols: list[tuple[int, float]] = []
        for j, (lo, hi) in updates.items():
            old_val = None
            if self.stat[j] != BASIC:
                old_val = float(
                    self.ub[j] if self.stat[j] == AT_UB else self.lb[j]
                )
            self.lb[j] = lo
            self.ub[j] = hi
            if self.stat[j] == BASIC:
                continue
            if lo == hi:
                self.stat[j] = FIXED
            elif self.stat[j] == FIXED:
                if d is None:
                    d = self._reduced_costs(self.c)
                want_ub = d[j] < 0 and np.isfinite(hi)
                self.stat[j] = AT_UB if want_ub else AT_LB
            elif self.stat[j] == AT_UB and not np.isfinite(hi):
                self.stat[j] = AT_LB
            new_val = float(
                self.ub[j] if self.stat[j] == AT_UB else self.lb[j]
            )
            if new_val != old_val:
                delta_cols.append((j, new_val - old_val))
        if delta_cols and self.m:
            shift = np.zeros(self.m)
            for j, dv in delta_cols:
                ridx, vals = self._column(j)
                np.add.at(shift, ridx, vals * dv)
            self.beta -= self._untransposed() @ shift
        return True

    def solve_dual(self, cutoff: float | None = None) -> str:
        """Restore feasibility after bound changes via dual pivots.

        ``cutoff`` aborts the solve with STATUS_CUTOFF once the objective
        (a valid lower bound throughout, by weak duality) exceeds it.
        """
        if self._conflict:
            return STATUS_INFEASIBLE
        return self._dual(self.c, cutoff)

    def _with_basic(self, v: np.ndarray) -> np.ndarray:
        """Fill the basic positions of a nonbasic value vector in place."""
        if self.m:
            v[self.basis] = self.beta
        return v

    def values_extended(self) -> np.ndarray:
        return self._with_basic(self._nonbasic_values())

    def values(self) -> np.ndarray:
        return self.values_extended()[: self.n_struct]

    def objective(self) -> float:
        return float(self.c @ self.values_extended())


def solve_lp(
    problem: MilpProblem,
    bounds: dict[int, tuple[float, float]] | None = None,
) -> LpSolution:
    """Solve the LP relaxation of a model under optional extra bounds."""
    ws = LpWorkspace(problem, bounds)
    status = ws.solve_primal()
    if status != STATUS_OPTIMAL:
        return LpSolution(
            status=status,
            objective=float("nan"),
            values=np.full(len(problem.variables), np.nan),
            iterations=ws.iterations,
        )
    return LpSolution(
        status=STATUS_OPTIMAL,
        objective=ws.objective(),
        values=ws.values(),
        iterations=ws.iterations,
    )
