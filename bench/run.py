"""vecopt benchmark: one workload, timed or traced, checked, one JSON result.

Run from the root of a source checkout:

    python3 bench/run.py --workload grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload mini --seed 1 --seconds 30 --trace 1

The program is imported from the checkout's ``src/``; a checkout without
it is an error.  The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it is a record of the run (environment,
emitted-bytes digest, failures, per-span self times), also written to
``bench/out/`` together with the span file of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set the workload up, print the monotonic clock, exit
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to first timed call (import plus input generation).

    Each probe is a fresh interpreter that sets the workload up and
    prints ``time.monotonic()``, a clock shared by all processes.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0")
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def end_to_end(out, setup: list[float], rss_mb: float) -> dict[str, float]:
    # each point's median over the passes, so one slow pass moves it less;
    # a sweep that raised leaves no per-point times
    ms = sorted(
        statistics.median(ts) * 1000.0 for ts in out.solve_s.values()
    ) or [0.0, 0.0]
    objectives = [r.objective_w for r in out.rows if math.isfinite(r.objective_w)]
    return {
        "sweep_s": statistics.median(out.pass_s),
        "solves_per_s": len(out.solve_s) / statistics.median(out.pass_s),
        "solve_ms.p50": statistics.median(ms),
        "solve_ms.p90": statistics.quantiles(ms, n=10)[8],
        "objective_sum_w": sum(objectives),
        "proven_points": sum(r.status in ("optimal", "infeasible") for r in out.rows),
        "ok_share": 1.0 - len(out.problems) / out.attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, span_cost_s: float) -> dict[str, float]:
    ms = defaultdict(float)  # a name no span reached (every solve raised)
    ms.update((k, v * 1000.0) for k, v in tracer.self_times().items())
    root = {s["request"]: s["attrs"] for s in tracer.named("simplex.root")}
    bnb = {s["request"]: s["attrs"] for s in tracer.named("bnb.solve")}
    bnb = {req: a for req, a in bnb.items() if "nodes" in a}  # returned
    models = [s["attrs"] for s in tracer.named("milp.build")]

    root_pivots = sum(root[req]["pivots"] for req in bnb)
    pivots = sum(a["pivots"] for a in bnb.values())
    nodes = sum(a["nodes"] for a in bnb.values())
    node_pivots = pivots - root_pivots
    node_resolves = nodes - len(bnb)  # explored_nodes counts the root
    node_ms = ms["bnb.solve"] - ms["simplex.setup"] - ms["simplex.root"]
    root_gap = sum(
        a["objective"] - root[req]["bound"]
        for req, a in bnb.items()
        if a["objective"] is not None and root[req]["bound"] is not None
    )

    # a point's solve is what solve_scenario covers: model, initial, B&B
    solve_parts = {"milp.build", "bnb.initial", "bnb.solve"}
    per_point: dict[int, float] = {}
    extra = 0.0  # the extra root solves, which a sweep does not make
    for s in tracer.spans:
        if s["name"] in solve_parts:
            per_point[s["parent"]] = per_point.get(s["parent"], 0.0) + (
                s["end"] - s["start"]
            )
        elif s["name"] in ("simplex.setup", "simplex.root"):
            extra += s["end"] - s["start"]
    run = tracer.named("sweep.run")[0]
    wall = run["end"] - run["start"] - extra
    busy = sum(per_point.values())

    return {
        "scenario.build_ms": ms["scenario.build"],
        "power.baseline_ms": ms["power.baseline"],
        "power.price_ms": ms["power.price"],
        "milp.build_ms": ms["milp.build"],
        "milp.rows": sum(a.get("rows", 0) for a in models),
        "milp.cols": sum(a.get("cols", 0) for a in models),
        "simplex.setup_ms": ms["simplex.setup"],
        "simplex.root_ms": ms["simplex.root"],
        "simplex.root_pivots": root_pivots,
        "simplex.root_gap_w": root_gap,
        "bnb.solve_ms": ms["bnb.solve"],
        "bnb.nodes": nodes,
        "bnb.pivots": pivots,
        "bnb.pivots_per_node": node_pivots / max(node_resolves, 1),
        "bnb.node_ms": node_ms,
        "bnb.ms_per_pivot": node_ms / max(node_pivots, 1),
        "bnb.gap_w": sum(a["gap"] for a in bnb.values() if a["gap"] is not None),
        "bnb.proven_share": sum(
            a["status"] in ("optimal", "infeasible") for a in bnb.values()
        ) / max(len(bnb), 1),
        "sweep.busy_s": busy,
        "sweep.efficiency": busy / wall,  # one worker
        "sweep.tail_s": max(per_point.values(), default=0.0),
        "sweep.emit_ms": ms["sweep.emit"],
        "trace.overhead_ms": span_cost_s * len(tracer.spans) * 1000.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "vecopt" / "__init__.py").is_file():
        print(f"no vecopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    if args.trace:
        from tracer import Tracer, span_cost_s

        tracer = Tracer()
        out = workload.trace(tracer)
        workload.check(out)
        metrics = per_layer(tracer, span_cost_s())
        spans = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write(spans)
        record["spans"] = str(spans.relative_to(ROOT))
        record["span_count"] = len(tracer.spans)
        record["self_ms"] = {
            k: v * 1000.0 for k, v in sorted(tracer.self_times().items())
        }
        wanted = spec["per_layer"]
    else:
        out = workload.measure(args.seconds)
        rss = peak_rss_mb()  # before the checks' scipy import and the probes
        workload.check(out)
        setup = setup_seconds(args.workload, args.seed)
        metrics = end_to_end(out, setup, rss)
        record["setup_s"] = setup
        record["passes"] = len(out.pass_s)
        record["samples"] = sum(map(len, out.solve_s.values()))
        wanted = spec["end_to_end"]

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} != BENCHMARK.json {names}")
    record["digest"] = out.digest
    record["problems"] = out.problems
    record["env"] = environment()
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": len(out.problems),
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
