"""Cross-validation of the exact solver against the exhaustive oracle."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .bnb import solve_scenario
from .oracle import exhaustive_oracle
from .randgen import random_scenario

OBJ_ABS_TOL = 1e-6  # watts two optimal objectives may differ by


@dataclass(frozen=True)
class CheckResult:
    index: int
    seed: int
    solver_status: str
    oracle_status: str
    solver_objective: float
    oracle_objective: float
    discrepancy: float
    agree: bool


@dataclass(frozen=True)
class CheckReport:
    results: tuple[CheckResult, ...]
    max_discrepancy: float

    @property
    def all_agree(self) -> bool:
        return all(r.agree for r in self.results)

    @property
    def matches(self) -> int:
        return sum(1 for r in self.results if r.agree)


def cross_check(
    instances: int,
    seed: int = 42,
    *,
    max_nodes: int = 6,
    max_demands: int = 3,
) -> CheckReport:
    """Solve seeded random instances both ways and compare verdicts.

    Statuses must agree; when both are optimal the objectives must match
    within ``OBJ_ABS_TOL`` watts.
    """
    rng = random.Random(seed)
    results = []
    worst = 0.0
    for i in range(instances):
        inst_seed = rng.randrange(2**31)
        scenario = random_scenario(
            inst_seed, max_nodes=max_nodes, max_demands=max_demands
        )
        got = solve_scenario(scenario)
        want = exhaustive_oracle(scenario)
        if got.status != want.status:
            agree = False
            disc = float("inf")
        elif want.status == "optimal":
            disc = abs(got.objective - want.objective)
            agree = disc <= OBJ_ABS_TOL
        else:
            agree = True
            disc = 0.0
        if math.isfinite(disc):
            worst = max(worst, disc)
        results.append(
            CheckResult(
                index=i,
                seed=inst_seed,
                solver_status=got.status,
                oracle_status=want.status,
                solver_objective=got.objective,
                oracle_objective=want.objective,
                discrepancy=disc,
                agree=agree,
            )
        )
    return CheckReport(results=tuple(results), max_discrepancy=worst)
