"""Output checks: every timed result is verified outside the timed region.

Grid rows are checked for a valid status, an objective that matches the
replayed placement's priced total, and no loss against the cloud-only
baseline.  Mini verdicts and objectives are compared with HiGHS
(``scipy.optimize.milp``, from the package's test extra) on the same
model, and each feasible placement is priced and compared with the
objective.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from vecopt import MilpProblem, build_milp

REL_TOL = 1e-6

# scipy.optimize.milp status codes
_HIGHS_OPTIMAL = 0
_HIGHS_INFEASIBLE = 2


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_grid_row(row) -> str | None:
    """Problem with one sweep row, or None."""
    where = f"{row.demand_class}@{row.request_count}"
    if row.status not in ("optimal", "timeout"):
        return f"{where}: status {row.status}"
    if not close(row.objective_w, row.total_power_w):
        return (
            f"{where}: objective {row.objective_w!r} != priced total "
            f"{row.total_power_w!r}"
        )
    if not row.total_power_w <= row.baseline_power_w * (1.0 + REL_TOL):
        return (
            f"{where}: total {row.total_power_w!r} above baseline "
            f"{row.baseline_power_w!r}"
        )
    return None


@contextmanager
def quiet_stdout():
    """Send file descriptor 1 to /dev/null: HiGHS prints debug lines there.

    C-level buffers are flushed on both edges, so none of its output can
    land after the result line this program prints last.
    """
    libc = ctypes.CDLL(None)
    libc.fflush.argtypes = [ctypes.c_void_p]
    libc.fflush.restype = ctypes.c_int
    sys.stdout.flush()
    libc.fflush(None)
    saved = os.dup(1)
    try:
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), 1)
        yield
    finally:
        libc.fflush(None)
        os.dup2(saved, 1)
        os.close(saved)


class Highs:
    """HiGHS verdicts, cached on disk under a digest of the exact model.

    HiGHS takes about 20 ms even on a 40-variable model, which would
    double the run time of ``mini``; its corpus is fixed, so after the
    first run only a changed model or a fresh instance is solved again.
    """

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def solve(self, problem: MilpProblem) -> tuple[int, float]:
        """HiGHS status code and objective for the model's MILP."""
        n = len(problem.variables)
        a = np.zeros((len(problem.rows), n))
        lo = np.full(len(problem.rows), -np.inf)
        hi = np.full(len(problem.rows), np.inf)
        for i, row in enumerate(problem.rows):
            for j, c in row.coeffs:
                a[i, j] += c
            if row.sense in ("<=", "="):
                hi[i] = row.rhs
            if row.sense in (">=", "="):
                lo[i] = row.rhs
        c = problem.objective_vector()
        integral = np.array([v.kind == "binary" for v in problem.variables])
        lb = np.array([v.lower for v in problem.variables], dtype=float)
        ub = np.array([v.upper for v in problem.variables], dtype=float)
        key = hashlib.sha256()
        for part in (c, integral, lb, ub, a, lo, hi):
            key.update(part.tobytes())
        key = key.hexdigest()
        if key not in self.known:
            # imported here, so set-up time and peak RSS leave it out
            from scipy.optimize import Bounds, LinearConstraint, milp

            res = milp(
                c,
                integrality=integral.astype(int),
                bounds=Bounds(lb, ub),
                constraints=LinearConstraint(a, lo, hi) if problem.rows else None,
                options={"mip_rel_gap": 0.0},
            )
            fun = None if res.fun is None else float(res.fun)
            self.known[key] = [int(res.status), fun]
        status, objective = self.known[key]
        return status, math.nan if objective is None else objective

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known))
        tmp.replace(self.path)


def check_mini(
    highs: Highs, request: str, scenario, solution, priced_w: float
) -> str | None:
    """Compare one mini verdict with HiGHS; None when they agree."""
    status, objective = highs.solve(build_milp(scenario))
    if solution.status == "optimal":
        if status != _HIGHS_OPTIMAL:
            return f"{request}: optimal here, HiGHS status {status}"
        if not close(solution.objective, objective):
            return (
                f"{request}: objective {solution.objective!r} != HiGHS "
                f"{objective!r}"
            )
        if not close(solution.objective, priced_w):
            return (
                f"{request}: objective {solution.objective!r} != priced "
                f"total {priced_w!r}"
            )
        return None
    if solution.status == "infeasible":
        if status != _HIGHS_INFEASIBLE:
            return f"{request}: infeasible here, HiGHS status {status}"
        return None
    return f"{request}: unexpected status {solution.status}"
