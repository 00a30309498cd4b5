"""The benchmark's workloads: their inputs, timed run and traced run.

Both workloads are closed loops: one caller in one process sends the
next solve only after the previous one returns.

``grid``   the 30-point reference sweep (3 classes x 1..10 requests,
           default options, the default 150-node budget) through
           ``run_sweep(workers=1)``.  Models reach 803 rows, so dense
           simplex and branch-and-bound work dominate.  The inputs are
           the reference scenarios; the seed selects nothing.
``mini``   1000 seeded random mini scenarios (<= 6 nodes, <= 3 demands,
           varied provisioning, DSRC and energy options, some
           infeasible) solved one after another with ``solve_scenario``.
           At about 32 rows the per-solve and per-node Python costs
           dominate instead.  Per-instance cost is heavy-tailed (p50
           about 5 ms, a few instances near 2 s), so a corpus drawn
           afresh per seed moves throughput by 15-35% from seed to
           seed.  The timed corpus is therefore one fixed draw (corpus
           seed 42) that the seed only shuffles; the seed also draws
           100 fresh instances that are solved and checked against
           HiGHS outside the timed region, so each seed widens the
           correctness coverage.

The timed run calls the public entry points (``run_sweep``,
``solve_scenario``).  The traced run repeats their steps one call at a
time with a span around each, plus one extra root solve per model that
is made only to read the root's time, pivots and bound.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from vecopt import (
    BnbOptions,
    LpWorkspace,
    ModelOptions,
    PlacementError,
    SweepReport,
    SweepRow,
    branch_and_bound,
    build_milp,
    build_reference_scenario,
    cloud_only_baseline,
    cloud_only_placement,
    compute_saving,
    emit_report,
    evaluate_placement,
    random_scenario,
    run_sweep,
    solve_scenario,
)
from vecopt.milp import assignment_from_placement
from vecopt.scenario import CLASS_ORDER
from vecopt.sweep import DEFAULT_NODE_LIMIT
from vecopt.types import TIER_CLOUD, TIER_EDGE, TIER_VEHICLE

from checks import Highs, check_grid_row, check_mini, quiet_stdout

OPTIONS = ModelOptions()
GAP_W = 1e-6  # solve_scenario's and run_sweep's default absolute gap
GRID_POINTS = tuple((cls, n) for cls in CLASS_ORDER for n in range(1, 11))
MINI_CORPUS_SEED = 42
MINI_CORPUS_SIZE = 1000
MINI_FRESH_SIZE = 100
HIGHS_CACHE = Path(__file__).resolve().parent / "out" / "highs-cache.json"


@dataclass
class Measured:
    """What one run of a workload produced."""

    rows: list = field(default_factory=list)  # emitted rows, in order
    attempted: int = 0
    problems: list[str] = field(default_factory=list)  # failed operations
    solve_s: dict = field(default_factory=dict)  # point -> its solve times
    pass_s: list[float] = field(default_factory=list)  # per whole pass
    digest: str = ""


def instance_seeds(rng: random.Random, count: int) -> list[int]:
    # the instance-seed scheme of ``vecopt validate``
    return [rng.randrange(2**31) for _ in range(count)]


def digest(rows) -> str:
    text = emit_report(SweepReport(rows=tuple(rows), options=OPTIONS))
    return hashlib.sha256(text.encode()).hexdigest()


def failure(request: str) -> str:
    traceback.print_exc()
    return f"{request}: raised"


def baseline_power(scenario) -> float:
    try:
        return cloud_only_baseline(scenario).total_w
    except PlacementError:  # no cloud tier to host the baseline
        return math.nan


def make_row(label, index, baseline_w, solution, report, solve_s) -> SweepRow:
    """A sweep row, built the way ``run_sweep`` builds its rows."""
    nan = math.nan
    return SweepRow(
        demand_class=label,
        request_count=index,
        total_power_w=report.total_w if report else nan,
        vehicle_power_w=report.tier_total(TIER_VEHICLE) if report else nan,
        edge_power_w=report.tier_total(TIER_EDGE) if report else nan,
        cloud_power_w=report.tier_total(TIER_CLOUD) if report else nan,
        cloud_mips=report.tier_load(TIER_CLOUD) if report else nan,
        baseline_power_w=baseline_w,
        saving_pct=compute_saving(report.total_w, baseline_w) if report else nan,
        bb_nodes=solution.stats.explored_nodes,
        lp_iterations=solution.stats.lp_iterations,
        solve_ms=solve_s * 1000.0,
        status=solution.status,
        objective_w=solution.objective,
    )


def priced(scenario, solution):
    if solution.assignment is None:
        return None
    return evaluate_placement(scenario, solution.placement)


def finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


def traced_solve(tracer, request, build, node_limit):
    """One point, step by step as ``run_sweep`` and ``solve_scenario`` go."""
    with tracer.span("sweep.point", request):
        with tracer.span("scenario.build"):
            scenario = build()
        with tracer.span("power.baseline"):
            baseline_w = baseline_power(scenario)
        t0 = time.perf_counter()
        with tracer.span("milp.build") as a:
            problem = build_milp(scenario)
            a["rows"], a["cols"] = len(problem.rows), len(problem.variables)
        with tracer.span("bnb.initial"):
            try:
                initial = assignment_from_placement(
                    problem, cloud_only_placement(scenario)
                )
            except PlacementError:
                initial = None
        t_extra = time.perf_counter()
        with tracer.span("simplex.setup"):
            ws = LpWorkspace(problem)
        with tracer.span("simplex.root") as a:
            status = ws.solve_primal()
            a["pivots"] = ws.iterations
            a["bound"] = ws.objective() if status == "optimal" else None
        extra = time.perf_counter() - t_extra
        with tracer.span("bnb.solve") as a:
            solution = branch_and_bound(
                problem,
                BnbOptions(
                    absolute_gap=GAP_W,
                    node_limit=node_limit,
                    initial_assignment=initial,
                ),
            )
            a["nodes"] = solution.stats.explored_nodes
            a["pivots"] = solution.stats.lp_iterations
            a["status"] = solution.status
            a["objective"] = finite(solution.objective)
            a["gap"] = finite(solution.stats.gap)
        solve_s = time.perf_counter() - t0 - extra
        with tracer.span("power.price"):
            report = priced(scenario, solution)
    return scenario, baseline_w, solution, report, solve_s


class Grid:
    name = "grid"

    def __init__(self, seed: int):
        self.points = GRID_POINTS

    def measure(self, seconds: float) -> Measured:
        out = Measured()
        start = time.perf_counter()
        while True:  # whole sweeps until ``seconds`` have passed
            t0 = time.perf_counter()
            out.attempted += len(self.points)
            try:
                sweep = run_sweep(workers=1)
            except Exception:
                out.pass_s.append(time.perf_counter() - t0)
                out.problems += [failure("sweep")] * len(self.points)
                break
            out.pass_s.append(time.perf_counter() - t0)
            for r in sweep.rows:
                point = (r.demand_class, r.request_count)
                out.solve_s.setdefault(point, []).append(r.solve_ms / 1000.0)
            out.rows = out.rows or list(sweep.rows)
            if time.perf_counter() - start >= seconds:
                break
        return out

    def trace(self, tracer) -> Measured:
        out = Measured(attempted=len(self.points))
        with tracer.span("sweep.run"):
            for cls, count in self.points:
                request = f"{cls}@{count}"
                build = partial(build_reference_scenario, cls, count, OPTIONS)
                try:
                    _, base, sol, rep, solve_s = traced_solve(
                        tracer, request, build, DEFAULT_NODE_LIMIT
                    )
                except Exception:
                    out.problems.append(failure(request))
                    continue
                out.rows.append(make_row(cls, count, base, sol, rep, solve_s))
            with tracer.span("sweep.emit"):
                emit_report(SweepReport(rows=tuple(out.rows), options=OPTIONS))
        return out

    def check(self, out: Measured) -> None:
        out.problems += [p for p in map(check_grid_row, out.rows) if p]
        out.digest = digest(out.rows)


class Mini:
    name = "mini"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        corpus = list(
            enumerate(
                instance_seeds(random.Random(MINI_CORPUS_SEED), MINI_CORPUS_SIZE)
            )
        )
        rng.shuffle(corpus)  # the solve order
        self.order = corpus
        self.scenarios = {i: random_scenario(s) for i, s in corpus}
        self.fresh = [
            (f"fresh#{s}", random_scenario(s))
            for s in instance_seeds(rng, MINI_FRESH_SIZE)
        ]
        self.solved: dict[int, object] = {}  # corpus index -> solution

    def measure(self, seconds: float) -> Measured:
        out = Measured()
        start = time.perf_counter()
        while True:  # whole passes until ``seconds`` have passed
            t_pass = time.perf_counter()
            for i, _ in self.order:
                t0 = time.perf_counter()
                try:
                    solution = solve_scenario(self.scenarios[i])
                except Exception:
                    solution = None
                    if not out.pass_s:
                        out.problems.append(failure(f"mini#{i}"))
                out.solve_s.setdefault(i, []).append(time.perf_counter() - t0)
                self.solved.setdefault(i, solution)
            out.pass_s.append(time.perf_counter() - t_pass)
            if time.perf_counter() - start >= seconds:
                break
        out.attempted = len(self.order) * len(out.pass_s)
        return out

    def trace(self, tracer) -> Measured:
        out = Measured(attempted=len(self.order))
        rows = []
        with tracer.span("sweep.run"):
            for i, inst_seed in self.order:
                request = f"mini#{i}"
                # regenerated inside the span, so scenario.build is timed
                build = partial(random_scenario, inst_seed)
                try:
                    _, base, sol, rep, solve_s = traced_solve(
                        tracer, request, build, None
                    )
                except Exception:
                    self.solved[i] = None
                    out.problems.append(failure(request))
                    continue
                self.solved[i] = sol
                rows.append(make_row("mini", i, base, sol, rep, solve_s))
            with tracer.span("sweep.emit"):
                emit_report(SweepReport(rows=tuple(rows), options=OPTIONS))
        return out

    def check(self, out: Measured) -> None:
        """Check the corpus results and digest them in corpus order, then
        solve and check the seed's fresh instances."""
        highs = Highs(HIGHS_CACHE)
        with quiet_stdout():
            for i, solution in sorted(self.solved.items()):
                if solution is None:  # raised; already counted
                    continue
                scenario = self.scenarios[i]
                try:
                    report = priced(scenario, solution)
                except PlacementError:  # the placement breaks a constraint
                    out.problems.append(failure(f"mini#{i}"))
                    continue
                out.rows.append(
                    make_row(
                        "mini", i, baseline_power(scenario), solution, report, 0.0
                    )
                )
                self._check(out, highs, f"mini#{i}", scenario, solution, report)
            out.digest = digest(out.rows)
            for request, scenario in self.fresh:
                out.attempted += 1
                try:
                    solution = solve_scenario(scenario)
                    report = priced(scenario, solution)
                except Exception:
                    out.problems.append(failure(request))
                    continue
                self._check(out, highs, request, scenario, solution, report)
        highs.save()

    @staticmethod
    def _check(out, highs, request, scenario, solution, report) -> None:
        problem = check_mini(
            highs, request, scenario, solution,
            report.total_w if report else math.nan,
        )
        if problem:
            out.problems.append(problem)


WORKLOADS = {w.name: w for w in (Grid, Mini)}
