"""Embedded linear-programming engine.

A dual simplex method for bounded variables, kept deliberately dense:
the constraint matrix lives in sorted triplet form and the basis inverse
in product form (Dantzig & Orchard-Hays, 1954), or, on small models, in
a dense tableau.  The same algorithm solves the root and re-optimizes
after bound changes, which is what branch and bound leans on.

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
and a refactorization rebuilds the base in place and empties the tail.
Pivot tolerances are relative to the vectors they test, so they hold
whatever roundoff the tail leaves.

A refactorization inverts only the basis kernel, after the first step of
Suhl & Suhl (1990): a basic slack is a unit column, so B is a unit block
on the rows the basic slacks cover and a square kernel where the basic
structural columns meet the remaining rows.  LAPACK inverts the kernel
(about half of m on the placement models); one product with the kernel's
inverse gives the slack rows of B^-1, and the rest is identity or zero.

The dual ends in a verdict: optimal, infeasible (a leaving row with no
entering column) or cutoff (the objective, a dual bound, past the
caller's cutoff).  A verdict stands when nothing has pivoted since the
last refactorization, or when the basis is trusted: the basic solution
passes the residual check and, for an infeasibility verdict, the row
without an entering column equals rho [A | I] recomputed from A, which
only a tableau (below) can check.  Otherwise the dual refactorizes and
derives the verdict again.  A refactorization, whatever its cause,
restarts the count of pivots that ``_REFACTOR_EVERY`` caps.

The workspace keeps the dual's per-node state between calls.  A
column's state is its direction and its basis row: ``dirv`` is +1 for a
nonbasic column at its lower bound, -1 at its upper bound and 0 for a
basic or fixed one, and ``row_of`` is a basic column's row of the basis,
-1 for a nonbasic one.  Beside them sit the nonbasic values, each
column's feasibility tolerance, and the bounds and tolerance of each
basic position.  ``_start_basis`` builds that state, each pivot updates
the entries it changes, and ``set_branch`` updates the columns whose
bounds it moves, so a warm re-solve pays for its pivots and not for
rebuilding that state.  What each call still recomputes is the residual
check that trusts a verdict and, in the product form, the reduced
costs, from a BTRAN of the basic costs.

Models of at most ``_TABLEAU_ROWS`` rows hold the inverse in a second
form: the dense tableau T = B^-1 [A | I], m x (n + m), whose last m
columns are B^-1, with the reduced costs d resident beside it.  A row of
B^-1 A is then a row of T and an entering column a column of T, a pivot
is one rank-1 update of T and d, and a refactorization solves
B T = [A | I].  The product form pays a fixed count of small numpy
calls a pivot, the tableau O(m (n + m)) arithmetic in fewer calls.  On
a 2-core host (OpenBLAS 0.3.31), the dual's time over its pivots was
33-37 us in the tableau against 46-53 us in the product form on random
models of 0-63 rows, 34-57 against 36-63 us on the 79-row reference
models, and 1.5-2.6 times the product form's from 133 rows up.  The
limit sits below that crossover, and keeps every reference model (79
rows and up) on the product form.  ``set_branch`` never changes the
basis, so the tableau carries d and its count of pivots since the last
refactorization from one call to the next.  The product form
recomputes d and restarts the count at every call, as carrying either
would move its pivot paths by their roundoff.

A tableau's node state is small (T is m (n + m) doubles, a few KB on
the random models), so ``snapshot`` copies it and ``restore`` puts it
back: T and d, the basis and its values, each column's direction,
nonbasic value, bounds and tolerance, the pivots since the last
refactorization and the branch in place.  Branch and bound snapshots a
node when it branches, and a child popped off its heap resumes from its
parent's optimal basis instead of from wherever the search left the
basis.  The product form's snapshot is None, which restores nothing:
its B^-1 alone is m^2 doubles (1.9 MB at 485 rows), and the 75 or so
nodes a reference search keeps open would hold about 140 MB of them.

A tableau also prices a branching before it is made.  ``penalties``
runs the dual's ratio test on the rows of fractional basic columns, once
for each direction their bound can move, and returns the bound gain of
that first dual pivot (Driebeek, 1966).  The gain is a valid lower bound
on the child's objective increase, as each point of the dual ray is dual
feasible for the child's bounds.  A row with no entering column proves
its child infeasible when the basis is trusted, as an infeasibility
verdict is.  The product form would pay a BTRAN and a row of A'rho per
candidate, and gives zero penalties, which bound nothing.

Solves min c'x subject to row constraints and variable bounds.  Binary
variables from the MILP arrive here already relaxed to their bounds.
"""

from __future__ import annotations

import numpy as np

from .milp import SENSE_EQ, SENSE_GE, MilpProblem

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_CUTOFF = "cutoff"

_PRIMAL_TOL = 1e-7
_PIVOT_TOL = 1e-9
_FOLD_TOL = 1e-9  # slack on right-hand sides and bounds when folding rows
_RESIDUAL_TOL = 1e-9  # scaled row residual that accepts a basis as drift-free
_TIE_REL, _TIE_ABS = 1e-9, 1e-12  # ratios this close to the least one tie
_CONFLICT_TOL = 1e-12  # a branch with lo > hi + this empties a bound
_CUTOFF_NEAR = 1e-7  # an estimate this close below the cutoff, relative
_REFACTOR_EVERY = 100
_FOLD_EVERY = 32  # rank-1 terms the inverse's tail holds before a fold
_TABLEAU_ROWS = 64  # models with at most this many rows keep a dense tableau
_ITER_LIMIT = 200000


class SolverError(RuntimeError):
    """The engine cannot solve this input.

    Raised on a numerical failure (a singular basis, the iteration
    limit) and on a model the dual cannot start from, one with a cost
    that prefers an infinite bound (a free variable always has one).
    """


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

    A column's state is its direction ``dirv`` and its basis row
    ``row_of`` (module docstring); ``xnb`` holds the values of the
    nonbasic columns.  A nonbasic column may move in its direction only,
    so the pricing and ratio tests compare ``dirv * d`` or ``dirv * arow``
    against one threshold (negation is exact).
    """

    def __init__(self, problem: MilpProblem):
        self.problem = problem
        form = problem.sparse
        n = form.c.size
        self.n_struct = n
        lb, ub = form.lb.copy(), form.ub.copy()

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
        self.b_scale = 1.0 + float(np.abs(self.b).max(initial=0.0))
        self.iterations = 0
        self._branch: dict[int, tuple[float, float]] = {}
        self._conflict = False  # the last set_branch emptied a bound
        self._basis_ready = False
        self.tableau = m <= _TABLEAU_ROWS
        if self.tableau:
            # [A | I] dense, which the tableau starts from and refactors with.
            self.A_dense = np.zeros((m, ncols))
            self.A_dense[self.A_rows, self.A_cols] = self.A_vals
        else:
            # The tail of the inverse: t terms u_k rho_k' in rows of Ut, Wt.
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
        self.basis = np.arange(n, n + m, dtype=np.intp)
        if self.tableau:
            self.T = self.A_dense.copy()  # B = I
            self.d = self.c.copy()
        else:
            self.Bt = np.eye(m)
            self.t = 0
        self.since_refactor = 0  # pivots since the last refactorization
        # The dual's state (module docstring): the basic positions of
        # ``xnb`` are stale, filled with beta (or zeros, to refactor)
        # wherever it is read whole.
        self.dirv = np.where(at_ub, -1.0, 1.0)
        self.dirv[self.lb == self.ub] = 0.0
        self.dirv[self.basis] = 0.0
        self.xnb = np.where(self.dirv < 0, self.ub, self.lb)
        self.xnb[self.basis] = 0.0
        self.col_tol = _feasibility_tol(self.lb, self.ub)
        self._index_basis()
        self.beta = self.b - self._mat_vec(self.xnb)
        self._basis_ready = True

    def _index_basis(self):
        """Each column's basis row, and the bounds and tolerance of each
        basic position, from ``basis`` and the columns' own."""
        self.row_of = np.full(self.ncols, -1, dtype=np.intp)
        self.row_of[self.basis] = np.arange(self.m)
        self.lb_b = self.lb[self.basis]
        self.ub_b = self.ub[self.basis]
        self.tol_b = self.col_tol[self.basis]

    def _refactor(self) -> np.ndarray:
        """Invert the basis afresh and return the reduced costs.

        The tableau is solved for whole, T = B^-1 [A | I], and its
        reduced costs follow from it; the product form gets a new base
        from the basis's kernel and an empty tail.  The basic values are
        recomputed from the resident nonbasic ones, and the count of
        pivots since the last refactorization restarts.
        """
        self.since_refactor = 0
        if self.tableau:
            A = self.A_dense
            try:
                self.T = np.linalg.solve(A[:, self.basis], A)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"singular basis: {exc}") from None
            self.d = self.c - self.c[self.basis] @ self.T
        else:
            self._kernel_inverse()
            self.t = 0
        self.xnb[self.basis] = 0.0  # stale entries, out of the sum
        self.beta = self._ftran(self.b - self._mat_vec(self.xnb))
        return self._reduced_costs()

    def _kernel_inverse(self):
        """Rebuild the base B^-T in ``Bt`` through the basis's kernel.

        Basic slack positions S hold unit columns, e_i at row i =
        basis[p] - n; the structural positions K meet the rows R that no
        basic slack covers, so |R| = |K|.  With M = (B_RK)^-1,

            B^-1[K, R] = M,  B^-1[S, R] = -B_{rows(S),K} M,
            B^-1[S, rows(S)] = I,  and zero elsewhere,

        so one LAPACK call on the k x k kernel replaces one on all of B.
        The blocks overwrite ``Bt`` in place, as nothing views it across a
        refactorization: the product form has no snapshots, and its reads
        return new arrays.
        """
        m, n = self.m, self.n_struct
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
        MC = Mt @ C[:, k:]
        del C  # released before the base is written over
        self.Bt.fill(0.0)
        self.Bt[R[:, None], K] = Mt
        self.Bt[R[:, None], S] = np.negative(MC, out=MC)
        self.Bt[srow, S] = 1.0

    # The reads of the inverse, one representation or the other: the
    # tableau T = B^-1 [A | I], whose last m columns are B^-1, or the
    # product form B^-1 = B0^-1 + Ut[:t]' Wt[:t].

    def _pivot_row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Row r of B^-1 and of B^-1 [A | I].

        The tableau returns views of its row r, valid until the next
        pivot.
        """
        if self.tableau:
            arow = self.T[r]
            return arow[self.n_struct :], arow
        t = self.t
        rho = self.Bt[:, r] + self.Wt[:t].T @ self.Ut[:t, r]
        return rho, self._mat_t_vec(rho)

    def _ftran_column(self, j: int) -> np.ndarray:
        """B^-1 a_j for extended column j."""
        if self.tableau:
            return self.T[:, j].copy()
        ridx, vals = self._column(j)
        t = self.t
        return self.Bt[ridx].T @ vals + self.Ut[:t].T @ (
            self.Wt[:t, ridx] @ vals
        )

    def _ftran(self, x: np.ndarray) -> np.ndarray:
        """B^-1 x for a dense x."""
        if self.tableau:
            return self.T[:, self.n_struct :] @ x
        t = self.t
        return self.Bt.T @ x + self.Ut[:t].T @ (self.Wt[:t] @ x)

    def _btran(self, y: np.ndarray) -> np.ndarray:
        """B^-T y for a dense y, in the product form."""
        t = self.t
        return self.Bt @ y + self.Wt[:t].T @ (self.Ut[:t] @ y)

    def _reduced_costs(self) -> np.ndarray:
        """The reduced costs c - c_B' B^-1 [A | I] of the current basis.

        The tableau's stay resident, kept by its pivots and
        refactorizations; the product form's are recomputed from a BTRAN
        of the basic costs.
        """
        if not self.tableau:
            self.d = self.c - self._mat_t_vec(self._btran(self.c[self.basis]))
        return self.d

    def _solution_residual(self) -> float:
        """Max row residual of the current basic solution, scaled by b."""
        resid = np.abs(self.b - self._mat_vec(self.values_extended()))
        return float(resid[resid.argmax()]) / self.b_scale

    def _update_binv(self, alpha: np.ndarray, rho: np.ndarray, r: int):
        """Pivot the inverse on row r, column alpha entering.

        ``alpha`` is the entering column B^-1 a_q and ``rho`` row r of
        B^-1, both before the pivot.  The tableau takes one rank-1
        update of all its rows.  The product form appends u rho' to its
        tail, u the eta column minus e_r, and folds a full tail into the
        base with one matrix product.
        """
        if self.tableau:
            T = self.T
            piv = T[r] / alpha[r]
            # A product of an m x 1 and a 1 x n matrix, which numpy hands
            # to BLAS, costs about half of a broadcast outer product at
            # these sizes.
            T -= np.dot(alpha[:, None], piv[None, :])
            T[r] = piv
            return
        t = self.t
        u = self.Ut[t]
        np.divide(alpha, -alpha[r], out=u)
        u[r] = 1.0 / alpha[r] - 1.0
        self.Wt[t] = rho
        self.t = t + 1
        if self.t == _FOLD_EVERY:
            self.Bt += self.Wt.T @ self.Ut
            self.t = 0

    # -- dual simplex --------------------------------------------------------

    def _row_is_exact(self, r: int) -> bool:
        """Whether tableau row r equals rho [A | I], rho its B^-1 part."""
        arow = self.T[r]
        rho = arow[self.n_struct :]
        size = float(np.abs(rho).max())
        drift = np.abs(rho @ self.A_dense - arow).max()
        return bool(drift <= _RESIDUAL_TOL * max(1.0, size))

    def _trusted(self, r: int | None = None) -> bool:
        """Whether the basis is trusted (module docstring), with r the
        row of an infeasibility verdict."""
        if r is not None and not (self.tableau and self._row_is_exact(r)):
            return False
        return self._solution_residual() <= _RESIDUAL_TOL

    def _dual(self, cutoff: float | None = None) -> str:
        m = self.m
        if m == 0:
            return STATUS_OPTIMAL
        d = self._reduced_costs()
        if not self.tableau:
            self.since_refactor = 0  # counted per call (module docstring)
        fresh = False  # nothing has pivoted since a refactorization
        deadline = self.iterations + _ITER_LIMIT
        # The workspace's state, which each pivot keeps up to date (bounds
        # stay put while the dual pivots).
        dirv, xnb, col_tol = self.dirv, self.xnb, self.col_tol
        lb_b, ub_b, tol = self.lb_b, self.ub_b, self.tol_b
        row_of = self.row_of
        # A running estimate of the objective, which each pivot raises by
        # |d_q dv| and which is unknown (inf) after a refactorization.  It
        # only gates the exact test: the cutoff compares the full
        # objective, whose last bits a running sum would move, once the
        # estimate comes near.  A cutoff the estimate misses costs pivots.
        est = np.inf
        if cutoff is not None:
            near = cutoff - _CUTOFF_NEAR * max(1.0, abs(cutoff))

        while True:
            if cutoff is not None and est > near:
                est = self.objective()
                # The objective is a dual bound; past the cutoff the
                # caller will discard this node.
                if est > cutoff:
                    if fresh or self._trusted():
                        return STATUS_CUTOFF
                    d, est, fresh = self._refactor(), np.inf, True
                    continue
            viol_lo = lb_b - self.beta
            viol_hi = self.beta - ub_b
            viol = np.maximum(viol_lo, viol_hi)
            scaled = viol / tol
            r = int(scaled.argmax())
            if scaled[r] <= 1.0:
                if fresh or self._trusted():
                    return STATUS_OPTIMAL
                d, est, fresh = self._refactor(), np.inf, True
                continue
            above = viol_hi[r] >= viol_lo[r]
            target = ub_b[r] if above else lb_b[r]
            delta = float(self.beta[r] - target)

            rho, arow = self._pivot_row(r)
            toward = dirv * arow
            size = np.abs(rho)
            piv_tol = _PIVOT_TOL * max(1.0, float(size[size.argmax()]))
            if delta > 0:
                cand = (toward > piv_tol).nonzero()[0]
            else:
                cand = (toward < -piv_tol).nonzero()[0]
            if not cand.size:
                if fresh or self._trusted(r):
                    return STATUS_INFEASIBLE
                d, est, fresh = self._refactor(), np.inf, True
                continue

            ratios = np.abs(d[cand] / arow[cand])  # |d| / |arow|, bit for bit
            best = float(ratios[ratios.argmin()])
            ties = cand[ratios <= best * (1 + _TIE_REL) + _TIE_ABS]
            if ties.size == 1:
                q = int(ties[0])
            else:
                q = int(ties[np.abs(arow[ties]).argmax()])

            self.iterations += 1
            self.since_refactor += 1
            fresh = False
            if self.iterations > deadline:
                raise SolverError("iteration limit exceeded")

            alpha = self._ftran_column(q)
            dv = delta / arow[q]
            enter_val = xnb[q] + dv
            leaving = int(self.basis[r])
            self.beta -= dv * alpha
            # The leaving column rests at the bound it crossed.
            lo, hi = self.lb[leaving], self.ub[leaving]
            dirv[leaving] = 0.0 if lo == hi else -1.0 if above else 1.0
            xnb[leaving] = hi if dirv[leaving] < 0 else lo
            self.basis[r] = q
            row_of[leaving] = -1
            row_of[q] = r
            dirv[q] = 0.0
            lb_b[r] = self.lb[q]
            ub_b[r] = self.ub[q]
            tol[r] = col_tol[q]
            self.beta[r] = enter_val
            theta = d[q] / arow[q]
            est += abs(theta * delta)
            d -= theta * arow
            d[q] = 0.0
            self._update_binv(alpha, rho, r)
            if self.since_refactor >= _REFACTOR_EVERY:
                d, est, fresh = self._refactor(), np.inf, True

    # -- public entry points ---------------------------------------------

    def solve_primal(self) -> str:
        """Root solve: the dual simplex from a fresh slack basis."""
        if self.proven_infeasible:
            return STATUS_INFEASIBLE
        self._start_basis()
        return self._dual()

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
            r = self.row_of[j]
            if r >= 0:
                self.lb_b[r] = lo
                self.ub_b[r] = hi
                self.tol_b[r] = self.col_tol[j]
                continue
            old_val = float(self.xnb[j])
            dirv = self.dirv[j]
            if lo == hi:
                dirv = 0.0
            elif dirv == 0.0:  # a fixed column freed
                if d is None:
                    d = self._reduced_costs()
                dirv = -1.0 if d[j] < 0 and np.isfinite(hi) else 1.0
            elif dirv < 0 and not np.isfinite(hi):
                dirv = 1.0
            self.dirv[j] = dirv
            new_val = float(hi if dirv < 0 else lo)
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

    # A tableau's node state (module docstring), with ``since_refactor``
    # and the branch in place; the basis rows and the bounds and
    # tolerances of the basic positions follow from it.
    _NODE_ARRAYS = (
        "T", "d", "beta", "basis", "dirv", "xnb", "lb", "ub", "col_tol"
    )

    def snapshot(self) -> tuple | None:
        """A copy of a solved tableau's node state, for ``restore``; None
        in the product form (module docstring)."""
        if not self.tableau:
            return None
        arrays = [getattr(self, name).copy() for name in self._NODE_ARRAYS]
        # The branch is replaced by set_branch, never changed in place.
        return arrays, self.since_refactor, self._branch

    def restore(self, state: tuple | None):
        """Return to a snapshot's state, whose arrays the workspace takes
        over: a snapshot restores once.  None, the product form's
        snapshot, leaves the workspace as it is."""
        if state is None:
            return
        arrays, self.since_refactor, self._branch = state
        for name, array in zip(self._NODE_ARRAYS, arrays):
            setattr(self, name, array)
        self._conflict = False
        self._index_basis()

    def penalties(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Driebeek's down and up penalties of binary columns at
        fractional values, in a solved workspace (module docstring); the
        product form gives zeros.

        Column j's down penalty is the bound gain of the first dual pivot
        after its upper bound drops to 0, its up penalty that after its
        lower bound rises to 1: ``_dual``'s ratio test on j's row of T,
        with its ``dirv``, pivot tolerance and |d / arow| rule, gives the
        least ratio, and the gain is |delta| times it.  The objective plus
        a penalty bounds that child's optimum from below.  A child whose
        row has no entering column gets inf only when ``_trusted`` passes
        on that row, as ``_dual`` requires for an unrefactorized
        infeasibility verdict; otherwise it gets 0, as do both children
        of a nonbasic column.
        """
        if not self.tableau:
            return np.zeros(cols.size), np.zeros(cols.size)
        rows = self.row_of[cols]
        arow = self.T[rows]
        size = np.abs(arow[:, self.n_struct :]).max(axis=1)
        piv_tol = (_PIVOT_TOL * np.maximum(1.0, size))[:, None]
        toward = self.dirv * arow
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.abs(self.d / arow)
        down = np.where(toward > piv_tol, ratios, np.inf).min(axis=1)
        up = np.where(toward < -piv_tol, ratios, np.inf).min(axis=1)
        beta = self.beta[rows]
        down *= beta
        up *= 1.0 - beta
        proven = np.isinf(down) | np.isinf(up)
        if proven.any():
            for k in np.flatnonzero(proven):
                proven[k] = self._trusted(rows[k])
            down[np.isinf(down) & ~proven] = 0.0
            up[np.isinf(up) & ~proven] = 0.0
        nonbasic = rows < 0
        down[nonbasic] = up[nonbasic] = 0.0
        return down, up

    def solve_dual(self, cutoff: float | None = None) -> str:
        """Restore feasibility after bound changes via dual pivots.

        ``cutoff`` aborts the solve with STATUS_CUTOFF once the objective
        (a valid lower bound throughout, by weak duality) exceeds it.
        """
        if self._conflict:
            return STATUS_INFEASIBLE
        return self._dual(cutoff)

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

