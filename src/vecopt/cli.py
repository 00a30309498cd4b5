"""Command line front end: build, solve, sweep, and cross-check."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bnb import MilpSolution, solve_scenario
from .check import cross_check
from .oracle import MAX_CELLS
from .power import cloud_only_baseline, evaluate_placement, sig
from .scenario import (
    CLASS_ORDER,
    VEHICLE_COUNT,
    build_reference_scenario,
    load_scenario,
    serialize_scenario,
)
from .sweep import (
    DEFAULT_NODE_LIMIT,
    compute_saving,
    emit_report,
    run_sweep,
    write_plot_files,
)
from .types import ModelOptions, PlacementError, Scenario, ScenarioError

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cloud-energy-per-bit",
        type=float,
        default=None,
        metavar="J",
        help="joules per bit charged for the path into the cloud",
    )
    parser.add_argument(
        "--cloud-provisioning",
        choices=("per_server", "single_pool"),
        default=None,
        help="cloud capacity model (default single_pool)",
    )
    parser.add_argument(
        "--dsrc",
        choices=("shared", "per_link"),
        default=None,
        help="vehicle radio contention model (default per_link)",
    )


def _model_options(args: argparse.Namespace) -> ModelOptions:
    kwargs = {}
    if args.cloud_energy_per_bit is not None:
        kwargs["cloud_path_energy_per_bit"] = args.cloud_energy_per_bit
    if args.cloud_provisioning is not None:
        kwargs["cloud_provisioning"] = args.cloud_provisioning
    if args.dsrc is not None:
        kwargs["dsrc_medium"] = args.dsrc
    return ModelOptions(**kwargs)


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text)


def _parse_counts(text: str) -> tuple[int, ...]:
    """Request counts from ``N``, ``A:B`` (inclusive), or ``a,b,c``."""
    counts: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ":" in part:
            lo_s, hi_s = part.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo > hi:
                raise ValueError(f"empty range {part!r}")
            counts.extend(range(lo, hi + 1))
        elif part:
            counts.append(int(part))
    if not counts:
        raise ValueError(f"no request counts in {text!r}")
    for count in counts:
        if not 0 <= count <= VEHICLE_COUNT:
            raise ValueError(f"request count {count} is outside 0..{VEHICLE_COUNT}")
    return tuple(dict.fromkeys(counts))


def _positive(kind: type):
    """An argparse type: a number of ``kind`` that is greater than zero."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in its messages
    return parse


def _parse_classes(text: str) -> tuple[str, ...]:
    classes = tuple(dict.fromkeys(c.strip() for c in text.split(",") if c.strip()))
    for cls in classes:
        if cls not in CLASS_ORDER:
            raise ValueError(
                f"unknown class {cls!r}; expected one of {', '.join(CLASS_ORDER)}"
            )
    if not classes:
        raise ValueError(f"no classes in {text!r}")
    return classes


def solution_to_dict(solution: MilpSolution, scenario: Scenario) -> dict:
    """JSON-friendly export of one solve, power breakdown included.

    Timings are left out on purpose so identical inputs produce
    identical documents.
    """
    doc: dict = {
        "status": solution.status,
        "objective_w": None,
        "baseline_w": None,
        "saving_pct": None,
        "cloud_mips": None,
        "gap": sig(solution.stats.gap),
        "explored_nodes": solution.stats.explored_nodes,
        "lp_iterations": solution.stats.lp_iterations,
        "power": None,
        "placement": None,
    }
    if solution.status == "infeasible" or solution.assignment is None:
        return doc
    report = evaluate_placement(scenario, solution.placement)
    doc["objective_w"] = sig(solution.objective)
    doc["cloud_mips"] = sig(report.tier_load("cloud"))
    doc["power"] = report.to_dict()
    doc["placement"] = {
        "assignments": [
            {"demand": d, "node": n, "mips": sig(mips)}
            for (d, n), mips in sorted(solution.placement.x.items())
        ],
        "serving": {
            d: sorted(nodes)
            for d, nodes in sorted(solution.placement.serving.items())
        },
        "active": sorted(solution.placement.active),
    }
    try:
        baseline = cloud_only_baseline(scenario)
    except PlacementError:
        return doc
    doc["baseline_w"] = sig(baseline.total_w)
    doc["saving_pct"] = sig(compute_saving(report.total_w, baseline.total_w))
    return doc


def cmd_scenario(args: argparse.Namespace) -> int:
    try:
        scenario = build_reference_scenario(
            args.demand_class, args.requests, _model_options(args)
        )
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_out(serialize_scenario(scenario), args.out)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (ScenarioError, OSError, json.JSONDecodeError) as exc:
        print(f"error: invalid scenario file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    solution = solve_scenario(
        scenario,
        time_limit_s=args.time_limit,
        node_limit=args.node_limit,
    )
    doc = solution_to_dict(solution, scenario)
    _write_out(json.dumps(doc, indent=2, sort_keys=True), args.out)
    if solution.status == "optimal":
        return EXIT_OK
    if solution.status == "timeout":
        return EXIT_TIMEOUT
    return EXIT_INFEASIBLE


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        classes = _parse_classes(args.classes)
        counts = _parse_counts(args.requests)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = run_sweep(
            classes,
            counts,
            _model_options(args),
            workers=args.workers,
            time_limit_s=args.time_limit,
            node_limit=args.node_limit,
        )
    except ScenarioError as exc:  # a model option the scenarios refuse
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_out(emit_report(report, args.format), args.out)
    if args.out and args.out != "-":
        write_plot_files(report, Path(args.out).with_suffix(""))
    bad = [r for r in report.rows if r.status != "optimal"]
    if any(r.status == "timeout" for r in bad):
        return EXIT_TIMEOUT
    if bad:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if args.max_nodes * args.max_demands > MAX_CELLS:
        print(
            f"error: --max-nodes x --max-demands may not exceed "
            f"{MAX_CELLS} (exhaustive check)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.instances < 0:
        print("error: --instances must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    report = cross_check(
        args.instances,
        args.seed,
        max_nodes=args.max_nodes,
        max_demands=args.max_demands,
    )
    for r in report.results:
        if not r.agree:
            print(
                f"instance {r.index} (seed {r.seed}): solver "
                f"{r.solver_status} {r.solver_objective:.9g} vs oracle "
                f"{r.oracle_status} {r.oracle_objective:.9g}"
            )
    print(
        f"checked {args.instances} instances (seed {args.seed}): "
        f"{report.matches} agree, max discrepancy {report.max_discrepancy:.3g}"
    )
    return EXIT_OK if report.all_agree else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecopt",
        description="Energy-optimal workload placement across vehicles, "
        "edge nodes, and the cloud.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", help="emit a reference scenario as JSON")
    p.add_argument(
        "--class",
        dest="demand_class",
        choices=CLASS_ORDER,
        required=True,
        help="demand class of every request",
    )
    p.add_argument(
        "--requests", type=int, required=True, help="number of requests"
    )
    p.add_argument("--out", default=None, metavar="PATH")
    _add_model_options(p)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("solve", help="solve one scenario file exactly")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument(
        "--time-limit", type=_positive(float), default=None, metavar="SECONDS"
    )
    p.add_argument(
        "--node-limit",
        type=_positive(int),
        default=DEFAULT_NODE_LIMIT,
        metavar="N",
        help="stop after exploring N branch-and-bound nodes",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "sweep", help="solve a grid of scenarios and tabulate savings"
    )
    p.add_argument("--classes", default=",".join(CLASS_ORDER))
    p.add_argument(
        "--requests", default="1:10", help="counts as N, A:B, or a,b,c"
    )
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument(
        "--workers",
        type=_positive(int),
        default=1,
        metavar="N",
        help="parallel solver processes; never affects the numbers",
    )
    p.add_argument(
        "--time-limit", type=_positive(float), default=None, metavar="SECONDS"
    )
    p.add_argument(
        "--node-limit",
        type=_positive(int),
        default=DEFAULT_NODE_LIMIT,
        metavar="N",
        help="deterministic per-point budget in branch-and-bound nodes",
    )
    _add_model_options(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "validate",
        help="cross-check the solver against exhaustive enumeration",
    )
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--max-nodes", type=_positive(int), default=6)
    p.add_argument("--max-demands", type=_positive(int), default=3)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # reader went away (e.g. piped into head); silence the shutdown flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + 13


if __name__ == "__main__":
    sys.exit(main())
