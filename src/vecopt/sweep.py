"""Request-count sweeps and report emission.

A sweep solves the reference scenario for each (demand class, request
count) pair, compares against the cloud-only baseline, and renders rows
in a stable column order.  Points are independent, so they can fan out
over worker processes; results are deterministic regardless of worker
count, and emitted documents are byte-identical across runs (measured
solve times are kept on the row object but written as zero).
"""

from __future__ import annotations

import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .bnb import solve_scenario
from .power import cloud_only_baseline, evaluate_placement
from .scenario import CLASS_ORDER, build_reference_scenario
from .types import (
    ModelOptions,
    TIER_CLOUD,
    TIER_EDGE,
    TIER_VEHICLE,
    VERSION,
)

@dataclass(frozen=True)
class SweepRow:
    demand_class: str
    request_count: int
    total_power_w: float
    vehicle_power_w: float
    edge_power_w: float
    cloud_power_w: float
    cloud_mips: float
    baseline_power_w: float
    saving_pct: float
    bb_nodes: int
    lp_iterations: int
    solve_ms: float
    status: str
    objective_w: float


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    options: ModelOptions
    version: str = VERSION


def compute_saving(optimal_w: float, baseline_w: float) -> float:
    """Percentage of baseline power avoided by the optimal placement."""
    if baseline_w <= 0:
        if optimal_w <= 0:
            return 0.0
        raise ValueError("baseline power must be positive")
    return (1.0 - optimal_w / baseline_w) * 100.0


def _sweep_point(
    args: tuple[str, int, ModelOptions, float | None, int | None],
) -> SweepRow:
    demand_class, count, options, time_limit, node_limit = args
    scenario = build_reference_scenario(demand_class, count, options)
    baseline = cloud_only_baseline(scenario)
    t0 = time.perf_counter()
    solution = solve_scenario(
        scenario, time_limit_s=time_limit, node_limit=node_limit
    )
    ms = (time.perf_counter() - t0) * 1000.0
    report = None
    if solution.assignment is not None:
        report = evaluate_placement(scenario, solution.placement)
    nan = float("nan")
    return SweepRow(
        demand_class=demand_class,
        request_count=count,
        total_power_w=report.total_w if report else nan,
        vehicle_power_w=report.tier_total(TIER_VEHICLE) if report else nan,
        edge_power_w=report.tier_total(TIER_EDGE) if report else nan,
        cloud_power_w=report.tier_total(TIER_CLOUD) if report else nan,
        cloud_mips=report.tier_load(TIER_CLOUD) if report else nan,
        baseline_power_w=baseline.total_w,
        saving_pct=(
            compute_saving(report.total_w, baseline.total_w) if report else nan
        ),
        bb_nodes=solution.stats.explored_nodes,
        lp_iterations=solution.stats.lp_iterations,
        solve_ms=ms,
        status=solution.status,
        objective_w=solution.objective,
    )


DEFAULT_NODE_LIMIT = 150


def run_sweep(
    classes: tuple[str, ...] = CLASS_ORDER,
    counts: tuple[int, ...] = tuple(range(1, 11)),
    options: ModelOptions | None = None,
    *,
    workers: int = 1,
    time_limit_s: float | None = None,
    node_limit: int | None = DEFAULT_NODE_LIMIT,
) -> SweepReport:
    """Solve every (class, count) pair and tabulate the comparison.

    ``workers`` only fans the independent points out over processes; it
    never changes any numbers.  The default per-point budget is a node
    count rather than a wall-clock limit so a sweep's rows (including any
    timeout flags) are identical on any machine; points that prove
    optimality within the budget report status ``optimal``.
    """
    options = options or ModelOptions()
    for cls in classes:
        if cls not in CLASS_ORDER:
            build_reference_scenario(cls, 0)  # raises, before any solve
    ordered = sorted(classes, key=CLASS_ORDER.index)
    tasks = [
        (cls, count, options, time_limit_s, node_limit)
        for cls in ordered
        for count in sorted(counts)
    ]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(_sweep_point, tasks, chunksize=1))
    else:
        rows = tuple(map(_sweep_point, tasks))
    return SweepReport(rows=rows, options=options)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


# One formatter per CSV column: six significant digits for the float
# fields, whatever value they hold, and ``str`` for the others.
_CSV_CELLS = tuple(_fmt if f.type == "float" else str for f in fields(SweepRow))


def _normalized_rows(report: SweepReport) -> list[SweepRow]:
    # Measured times vary run to run; emitted documents must not.
    return [replace(row, solve_ms=0.0) for row in report.rows]


def emit_report(report: SweepReport, fmt: str = "csv") -> str:
    """Render a sweep as csv or json text, deterministically."""
    rows = _normalized_rows(report)
    if fmt == "csv":
        out = io.StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for r in rows:
            cells = (
                cell(getattr(r, name))
                for cell, name in zip(_CSV_CELLS, CSV_COLUMNS)
            )
            out.write(",".join(cells) + "\n")
        return out.getvalue()
    if fmt == "json":
        import json

        doc = {
            "version": report.version,
            "options": asdict(report.options),
            "rows": [asdict(r) for r in rows],
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def write_plot_files(report: SweepReport, base: str | Path) -> list[Path]:
    """Per-class data files for gnuplot: power curves and saving curves."""
    base = Path(base)
    written = []
    classes = []
    for row in report.rows:
        if row.demand_class not in classes:
            classes.append(row.demand_class)
    for cls in classes:
        rows = [r for r in report.rows if r.demand_class == cls]
        power = base.with_name(f"{base.stem}_{cls}_power.dat")
        with power.open("w") as fh:
            fh.write("# requests total_power_w baseline_power_w\n")
            for r in rows:
                fh.write(
                    f"{r.request_count} {_fmt(r.total_power_w)} "
                    f"{_fmt(r.baseline_power_w)}\n"
                )
        saving = base.with_name(f"{base.stem}_{cls}_saving.dat")
        with saving.open("w") as fh:
            fh.write("# requests saving_pct\n")
            for r in rows:
                fh.write(f"{r.request_count} {_fmt(r.saving_pct)}\n")
        written.extend([power, saving])
    return written
