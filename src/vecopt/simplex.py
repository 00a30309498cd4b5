"""Embedded linear-programming engine.

A dual simplex method for bounded variables, kept deliberately dense:
the constraint matrix lives in sorted triplet form and the basis inverse
in product form (Dantzig & Orchard-Hays, 1954).  The same algorithm
solves the root and re-optimizes after bound changes, which is what
branch and bound leans on.

The root starts from the all-slack basis with every nonbasic column at
the bound its cost prefers.  Its reduced costs are the costs themselves,
so that basis is dual feasible whenever each preferred bound is finite;
every column of the placement model is boxed, so the dual needs no
phase one and no artificial columns (Koberstein, 2005).

The inverse is B^-1 = B0^-1 + sum_k u_k rho_k', a base from the last
factorization plus a tail of at most ``_FOLD_EVERY`` rank-1 terms, one
per pivot.  The base is stored transposed (``Bt``, row-major), so that
an entering column is gathered from a few contiguous rows; the tail is
held row by row in ``Ut`` (the u_k) and ``Wt`` (the rho_k, each the
pivot row of B^-1 that the ratio test computed anyway).  A pivot appends
one term in O(m); one matrix product folds a full tail into the base,
and a refactorization replaces both.  Pivot tolerances are relative to
the vectors they test, so they hold whatever roundoff the tail leaves.

A refactorization inverts only the basis kernel, after the first step of
Suhl & Suhl (1990): a basic slack is a unit column, so B is a unit block
on the rows the basic slacks cover and a square kernel where the basic
structural columns meet the remaining rows.  LAPACK inverts the kernel
(about half of m on the placement models); one product with the kernel's
inverse gives the slack rows of B^-1, and the rest is identity or zero.

The workspace keeps the dual's per-node state between calls: the
direction each nonbasic column may move in, the nonbasic values, each
column's feasibility tolerance, the bounds and tolerance of each basic
position, and the basis row of each basic column.  ``_start_basis``
builds it, each pivot updates the entries it changes, and
``set_branch`` updates the columns whose bounds it moves, so a warm
re-solve pays for its pivots and not for rebuilding that state.  What
each call still recomputes is the reduced costs, from a BTRAN of the
basic costs, and the residual check that accepts a basis without a
refactorization; carrying the reduced costs across calls would move
the pivot paths by their roundoff.

Solves min c'x subject to row constraints and variable bounds.  Binary
variables from the MILP arrive here already relaxed to their bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .milp import SENSE_EQ, SENSE_GE, MilpProblem

AT_LB, AT_UB, BASIC, FIXED = 0, 1, 2, 3

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_CUTOFF = "cutoff"

_PRIMAL_TOL = 1e-7
_PIVOT_TOL = 1e-9
_FOLD_TOL = 1e-9  # slack on right-hand sides and bounds when folding rows
_RESIDUAL_TOL = 1e-9  # scaled row residual that accepts a basis as drift-free
_TIE_REL, _TIE_ABS = 1e-9, 1e-12  # ratios this close to the least one tie
_STALL_STEP = 1e-10  # a primal step this small counts toward a stall
_CONFLICT_TOL = 1e-12  # a branch with lo > hi + this empties a bound
_STALL_LIMIT = 50
_REFACTOR_EVERY = 100
_FOLD_EVERY = 32  # rank-1 terms the inverse's tail holds before a fold
_ITER_LIMIT = 200000


class SolverError(RuntimeError):
    """The engine cannot solve this input.

    Raised on a numerical failure (a singular basis, the iteration
    limit) and on a model the dual cannot start from, one with a cost
    that prefers an infinite bound (a free variable always has one).
    """


@dataclass
class LpSolution:
    status: str
    objective: float
    values: np.ndarray  # structural variables only
    iterations: int


def _fold_rows(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    rhs: np.ndarray,
    eq: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> np.ndarray | None:
    """Move single-variable rows into bounds; drop rows nothing can violate.

    The rows are <= rows, or = rows where ``eq``, given as nonzero
    triplets in row order.  Tightens ``lb`` and ``ub`` in place and
    returns the mask of the rows that stay, or None when the rows and
    bounds already prove infeasibility.  Dropping is conservative: a row
    goes only when its extreme activity over the current bounds cannot
    cross the right-hand side, which stays true under any later bound
    tightening.
    """
    count = np.bincount(rows, minlength=rhs.size)
    holds = np.where(eq, np.abs(rhs) <= _FOLD_TOL, rhs >= -_FOLD_TOL)
    if np.any((count == 0) & ~holds):
        return None

    single = count[rows] == 1
    j, c = cols[single], vals[single]
    at = rhs[rows[single]] / c
    caps = eq[rows[single]] | (c > 0)
    floors = eq[rows[single]] | (c < 0)
    # A bound moves only when strictly tightened, so an equal value (-0.0
    # against 0.0, say) leaves it as it was.
    cap = np.full(ub.size, np.inf)
    floor = np.full(lb.size, -np.inf)
    np.minimum.at(cap, j[caps], at[caps])
    np.maximum.at(floor, j[floors], at[floors])
    np.copyto(ub, cap, where=cap < ub)
    np.copyto(lb, floor, where=floor > lb)
    if np.any(lb > ub + _FOLD_TOL):
        return None

    # Extreme row activities, summed entry by entry in row order.
    x_hi = np.where(vals > 0, ub[cols], lb[cols])
    x_lo = np.where(vals > 0, lb[cols], ub[cols])
    hi = np.bincount(rows, weights=vals * x_hi, minlength=rhs.size)
    lo = np.bincount(rows, weights=vals * x_lo, minlength=rhs.size)
    tol = _FOLD_TOL * np.maximum(1.0, np.abs(rhs))
    redundant = np.where(
        eq,
        (np.abs(hi - rhs) <= tol) & (np.abs(lo - rhs) <= tol),
        hi <= rhs + tol,
    )
    violated = (lo > rhs + tol) | (eq & (hi < rhs - tol))
    kept = (count >= 2) & ~redundant
    if np.any(kept & violated):
        return None
    return kept


def _feasibility_tol(lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Primal feasibility tolerance of columns with these bounds.

    ``_PRIMAL_TOL`` times the larger of 1 and each finite bound's
    magnitude; ``set_branch`` evaluates the same formula on scalars.
    """
    return _PRIMAL_TOL * np.maximum(
        1.0,
        np.maximum(
            np.where(np.isfinite(lb), np.abs(lb), 0.0),
            np.where(np.isfinite(ub), np.abs(ub), 0.0),
        ),
    )


class LpWorkspace:
    """One relaxation instance that can be re-solved under new bounds.

    ``solve_primal`` computes the root optimum with the dual simplex from
    a fresh slack basis; ``set_branch`` plus ``solve_dual`` re-optimize
    after bound changes, restarting from the previous optimal basis.
    """

    def __init__(
        self,
        problem: MilpProblem,
        var_bounds: dict[int, tuple[float, float]] | None = None,
    ):
        self.problem = problem
        form = problem.sparse
        n = form.c.size
        self.n_struct = n
        lb, ub = form.lb.copy(), form.ub.copy()
        if var_bounds:
            for j, (lo, hi) in var_bounds.items():
                lb[j] = max(lb[j], lo)
                ub[j] = min(ub[j], hi)

        # Each row as <= or =: a >= row is negated.  Zero coefficients
        # are dropped.
        sign = np.where(form.sense == SENSE_GE, -1.0, 1.0)
        eq = form.sense == SENSE_EQ
        rhs = form.rhs * sign
        nonzero = form.val != 0.0
        rows, cols = form.row[nonzero], form.col[nonzero]
        vals = form.val[nonzero] * sign[rows]

        kept = _fold_rows(rows, cols, vals, rhs, eq, lb, ub)
        self.proven_infeasible = kept is None
        if kept is None:
            kept = np.zeros(rhs.size, dtype=bool)
        m = int(kept.sum())
        self.m = m
        ncols = n + m  # structurals, slacks
        self.ncols = ncols

        # The kept rows renumbered, each scaled by its largest coefficient.
        entry = kept[rows]
        rows = (np.cumsum(kept) - 1)[rows[entry]]
        cols, vals = cols[entry], vals[entry]
        scale = np.zeros(m)
        np.maximum.at(scale, rows, np.abs(vals))
        self.b = rhs[kept] / scale
        slack_ub = np.where(eq[kept], 0.0, np.inf)

        # Column-major triplets: the structural entries by column (rows
        # ascending within each), then one unit entry per slack column.
        order = np.argsort(cols, kind="stable")
        self.A_rows = np.concatenate([rows[order], np.arange(m)])
        self.A_cols = np.concatenate([cols[order], np.arange(n, ncols)])
        self.A_vals = np.concatenate([(vals / scale[rows])[order], np.ones(m)])
        self.col_ptr = np.searchsorted(self.A_cols, np.arange(ncols + 1))

        self.lb = np.concatenate([lb, np.zeros(m)])
        self.ub = np.concatenate([ub, slack_ub])
        self.root_lb = self.lb[:n].copy()
        self.root_ub = self.ub[:n].copy()
        self.c = np.concatenate([form.c, np.zeros(m)])
        self.iterations = 0
        self._branch: dict[int, tuple[float, float]] = {}
        self._conflict = False  # the last set_branch emptied a bound
        self._basis_ready = False
        # The tail of the inverse: t terms u_k rho_k' in rows of Ut and Wt.
        self.Ut = np.empty((_FOLD_EVERY, m))
        self.Wt = np.empty((_FOLD_EVERY, m))
        self.t = 0

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

    def _start_basis(self):
        """All-slack basis, each nonbasic column at the bound its cost prefers.

        The upper bound for a negative cost, the lower one otherwise.  The
        basis is dual feasible unless some preferred bound is infinite,
        which the placement model never builds and the dual cannot start
        from.
        """
        n, m = self.n_struct, self.m
        at_ub = self.c < 0
        if np.isinf(np.where(at_ub, self.ub, self.lb)).any():
            raise SolverError("a column's cost prefers an infinite bound")
        self.stat = np.where(at_ub, AT_UB, AT_LB).astype(np.int8)
        self.stat[self.lb == self.ub] = FIXED
        self.basis = np.arange(n, n + m, dtype=np.intp)
        self.stat[self.basis] = BASIC
        self.Bt = np.eye(m)
        self.t = 0
        # The dual's state (module docstring): the basic positions of
        # ``xnb`` are stale, filled with beta wherever it is read whole.
        self.row_of = np.full(self.ncols, -1, dtype=np.intp)
        self.row_of[self.basis] = np.arange(m)
        self.dirv = self._directions()
        self.xnb = self._nonbasic_values()
        self.col_tol = _feasibility_tol(self.lb, self.ub)
        self.lb_b = self.lb[self.basis]
        self.ub_b = self.ub[self.basis]
        self.tol_b = self.col_tol[self.basis]
        self.beta = self.b - self._mat_vec(self.xnb)
        self._basis_ready = True

    def _refactor(self):
        """Invert the basis afresh through its structural kernel.

        Basic slack positions S hold unit columns, e_i at row i =
        basis[p] - n; the structural positions K meet the rows R that no
        basic slack covers, so |R| = |K|.  With M = (B_RK)^-1,

            B^-1[K, R] = M,  B^-1[S, R] = -B_{rows(S),K} M,
            B^-1[S, rows(S)] = I,  and zero elsewhere,

        so one LAPACK call on the k x k kernel replaces one on all of B.
        The new base ``Bt`` is B^-T, written block by block; the tail is
        emptied and the basic values recomputed.
        """
        m, n = self.m, self.n_struct
        if m == 0:
            return
        slack = self.basis >= n
        S = slack.nonzero()[0]
        K = (~slack).nonzero()[0]
        srow = self.basis[S] - n
        covered = np.zeros(m, dtype=bool)
        covered[srow] = True
        R = (~covered).nonzero()[0]
        k = K.size
        # Rows renumbered R first, then rows(S) in the order of S: row kk
        # of C is basis column K[kk], so C = [B_RK' | B_SK'].
        newrow = np.empty(m, dtype=np.intp)
        newrow[R] = np.arange(k)
        newrow[srow] = np.arange(k, m)
        cols = self.basis[K]
        starts = self.col_ptr[cols]
        lens = self.col_ptr[cols + 1] - starts
        offsets = np.cumsum(lens) - lens
        idx = np.arange(lens.sum()) + np.repeat(starts - offsets, lens)
        C = np.zeros((k, m))
        C[np.repeat(np.arange(k), lens), newrow[self.A_rows[idx]]] = (
            self.A_vals[idx]
        )
        try:
            Mt = np.linalg.inv(C[:, :k])  # M' = (B_RK')^-1
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular basis: {exc}") from None
        Bt = np.zeros((m, m))
        top = np.empty((k, m))
        top[:, K] = Mt
        top[:, S] = -(Mt @ C[:, k:])
        Bt[R] = top
        Bt[srow, S] = 1.0
        self.Bt = Bt
        self.t = 0
        v = self._nonbasic_values()
        self.beta = self._ftran(self.b - self._mat_vec(v))

    # The four products with B^-1 = B0^-1 + Ut[:t]' Wt[:t]; every read of
    # the inverse goes through one of them.

    def _pivot_row(self, r: int) -> np.ndarray:
        """Row r of B^-1."""
        t = self.t
        return self.Bt[:, r] + self.Wt[:t].T @ self.Ut[:t, r]

    def _ftran_column(self, j: int) -> np.ndarray:
        """B^-1 a_j for extended column j."""
        ridx, vals = self._column(j)
        t = self.t
        return self.Bt[ridx].T @ vals + self.Ut[:t].T @ (
            self.Wt[:t, ridx] @ vals
        )

    def _ftran(self, x: np.ndarray) -> np.ndarray:
        """B^-1 x for a dense x."""
        t = self.t
        return self.Bt.T @ x + self.Ut[:t].T @ (self.Wt[:t] @ x)

    def _btran(self, y: np.ndarray) -> np.ndarray:
        """B^-T y for a dense y."""
        t = self.t
        return self.Bt @ y + self.Wt[:t].T @ (self.Ut[:t] @ y)

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        if self.m == 0:
            return c.copy()
        return c - self._mat_t_vec(self._btran(c[self.basis]))

    def _solution_residual(self) -> float:
        """Max row residual of the current basic solution, scaled by b."""
        if self.m == 0:
            return 0.0
        v = self.values_extended()
        resid = float(np.abs(self.b - self._mat_vec(v)).max())
        return resid / (1.0 + float(np.abs(self.b).max()))

    def _update_binv(self, alpha: np.ndarray, rho: np.ndarray, r: int):
        """Append the pivot on row r to the tail: B^-1 += u rho'.

        ``alpha`` is the entering column B^-1 a_q and ``rho`` row r of
        B^-1, both before the pivot; u is the eta column minus e_r.  A
        full tail is folded into the base with one matrix product.
        """
        t = self.t
        u = self.Ut[t]
        np.divide(alpha, -alpha[r], out=u)
        u[r] = 1.0 / alpha[r] - 1.0
        self.Wt[t] = rho
        self.t = t + 1
        if self.t == _FOLD_EVERY:
            self.Bt += self.Wt.T @ self.Ut
            self.t = 0

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
        # The workspace's state, which each pivot keeps up to date (bounds
        # stay put while the dual pivots).
        dirv, xnb, col_tol = self.dirv, self.xnb, self.col_tol
        lb_b, ub_b, tol = self.lb_b, self.ub_b, self.tol_b
        row_of = self.row_of

        while True:
            # The full objective, not a running sum, which would move the
            # last bits that the cutoff test compares.
            if cutoff is not None and self.objective() > cutoff:
                # The running objective is a dual bound; past the cutoff
                # the caller will discard this node, so stop pivoting as
                # soon as a drift check (or a refactorization) confirms.
                if self._solution_residual() <= _RESIDUAL_TOL:
                    return STATUS_CUTOFF
                self._refactor()
                d = self._reduced_costs(c)
                since_refactor = 0
                if self.objective() > cutoff:
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
                if self._solution_residual() <= _RESIDUAL_TOL:
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
                r = int(scaled.argmax())
            above = viol_hi[r] >= viol_lo[r]
            target = ub_b[r] if above else lb_b[r]
            delta = float(self.beta[r] - target)

            rho = self._pivot_row(r)
            arow = self._mat_t_vec(rho)
            toward = dirv * arow
            piv_tol = _PIVOT_TOL * max(1.0, float(np.abs(rho).max()))
            if delta > 0:
                cand = (toward > piv_tol).nonzero()[0]
            else:
                cand = (toward < -piv_tol).nonzero()[0]
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
            ties = cand[ratios <= best * (1 + _TIE_REL) + _TIE_ABS]
            if bland:
                q = int(ties[0])
            else:
                q = int(ties[np.abs(arow[ties]).argmax()])

            self.iterations += 1
            since_refactor += 1
            retried = False
            if self.iterations > deadline:
                raise SolverError("iteration limit exceeded")

            alpha = self._ftran_column(q)
            dv = delta / arow[q]
            enter_val = xnb[q] + dv
            leaving = int(self.basis[r])
            self.beta -= dv * alpha
            dirv[leaving] = self._leave(leaving, to_ub=above)
            xnb[leaving] = (self.ub if dirv[leaving] < 0 else self.lb)[leaving]
            self.basis[r] = q
            row_of[leaving] = -1
            row_of[q] = r
            self.stat[q] = BASIC
            dirv[q] = 0.0
            lb_b[r] = self.lb[q]
            ub_b[r] = self.ub[q]
            tol[r] = col_tol[q]
            self.beta[r] = enter_val
            theta = d[q] / arow[q]
            d -= theta * arow
            d[q] = 0.0
            stall = stall + 1 if abs(delta) <= _STALL_STEP else 0
            if stall > _STALL_LIMIT:
                bland = True
            self._update_binv(alpha, rho, r)
            if since_refactor >= _REFACTOR_EVERY:
                self._refactor()
                d = self._reduced_costs(c)
                since_refactor = 0

    # -- public entry points ---------------------------------------------

    def solve_primal(self) -> str:
        """Root solve: the dual simplex from a fresh slack basis."""
        if self.proven_infeasible:
            return STATUS_INFEASIBLE
        self._start_basis()
        return self._dual(self.c)

    def set_branch(self, branch: dict[int, tuple[float, float]]) -> bool:
        """Replace the branching bounds; False when they conflict.

        Bounds intersect the problem's root bounds.  Only the columns
        whose branch entry differs from the one in place are touched:
        nonbasic ones snap to their new bound values, which shifts the
        basic solution, and the dual's state follows; ``solve_dual``
        then restores feasibility.
        """
        if not self._basis_ready:
            raise SolverError("solve_primal must run before set_branch")
        old = self._branch
        updates: dict[int, tuple[float, float]] = {}
        # The union's order is the order of the shift's sums below.
        for j in set(old) | set(branch):
            entry = branch.get(j)
            if entry == old.get(j):
                continue  # bounds in place, which passed the test below
            lo, hi = (-np.inf, np.inf) if entry is None else entry
            lo = max(lo, float(self.root_lb[j]))
            hi = min(hi, float(self.root_ub[j]))
            if lo > hi + _CONFLICT_TOL:
                # Nothing is applied: the bounds in place stay those of
                # the branch before, which the next call must reset.
                self._conflict = True
                return False
            updates[j] = (lo, hi)
        self._branch = dict(branch)
        self._conflict = False

        d = None
        delta_cols: list[tuple[int, float]] = []
        for j, (lo, hi) in updates.items():
            self.lb[j] = lo
            self.ub[j] = hi
            # _feasibility_tol on one column
            self.col_tol[j] = _PRIMAL_TOL * max(
                1.0,
                abs(lo) if lo > -np.inf else 0.0,
                abs(hi) if hi < np.inf else 0.0,
            )
            stat = self.stat[j]
            if stat == BASIC:
                r = self.row_of[j]
                self.lb_b[r] = lo
                self.ub_b[r] = hi
                self.tol_b[r] = self.col_tol[j]
                continue
            old_val = float(self.xnb[j])
            if lo == hi:
                stat = FIXED
            elif stat == FIXED:
                if d is None:
                    d = self._reduced_costs(self.c)
                want_ub = d[j] < 0 and np.isfinite(hi)
                stat = AT_UB if want_ub else AT_LB
            elif stat == AT_UB and not np.isfinite(hi):
                stat = AT_LB
            self.stat[j] = stat
            self.dirv[j] = (
                1.0 if stat == AT_LB else -1.0 if stat == AT_UB else 0.0
            )
            new_val = float(hi if stat == AT_UB else lo)
            self.xnb[j] = new_val
            if new_val != old_val:
                delta_cols.append((j, new_val - old_val))
        if delta_cols and self.m:
            shift = np.zeros(self.m)
            for j, dv in delta_cols:
                ridx, vals = self._column(j)
                np.add.at(shift, ridx, vals * dv)
            self.beta -= self._ftran(shift)
        return True

    def solve_dual(self, cutoff: float | None = None) -> str:
        """Restore feasibility after bound changes via dual pivots.

        ``cutoff`` aborts the solve with STATUS_CUTOFF once the objective
        (a valid lower bound throughout, by weak duality) exceeds it.
        """
        if self._conflict:
            return STATUS_INFEASIBLE
        return self._dual(self.c, cutoff)

    def values_extended(self) -> np.ndarray:
        """Values of all columns, slacks included.

        The workspace's own vector, with beta written into its basic
        positions: valid until the next ``set_branch`` or solve.
        """
        self.xnb[self.basis] = self.beta
        return self.xnb

    def values(self) -> np.ndarray:
        return self.values_extended()[: self.n_struct].copy()

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
