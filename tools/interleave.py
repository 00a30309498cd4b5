"""Time two checkouts of vecopt against each other, instance by instance.

    python3 tools/interleave.py A B --workload mini|grid [--passes N]

A and B are source checkouts.  Each one's ``src/vecopt`` is copied into
a temporary directory as its own package (``vecopt_a``, ``vecopt_b``;
the package imports itself only relatively), and each side builds its
inputs with its own package.  The sides then solve the same instances
alternately, one instance at a time, flipping which side goes first at
every instance, so a host whose speed wanders from minute to minute
slows both alike.  Prints each side's seconds, node total, pivot total
and the sum of its finite objectives, the number of instances whose
status or objective differs between the sides (objectives by more than
``OBJ_REL`` relative), and the number that differ at all (status, the
exact bits of the objective, nodes or pivots).  A change that moves
pivot paths moves the last bits of the objectives, and a change meant to
keep the output shows that it did, so the comparison comes with every
timing.

The comparison runs twice, each time in a fresh interpreter: once with
A loaded and built first, once with B.  The side loaded second has read
up to 8% slow on two copies of one checkout, so the tool prints the
ratio B/A of the seconds in each order and their geometric mean, which
is the number to report; a side's seconds are its sum over both runs.

``mini`` is the timed corpus of ``bench/workloads.py``: 1000 random
scenarios from the seeds that ``random.Random(42)`` draws, solved with
``solve_scenario``.  ``grid`` is the 30 reference points at the sweep's
node budget.  This sizes a change; the benchmark (``bench/run.py``)
stays the measure of record.
"""

from __future__ import annotations

import argparse
import importlib
import math
import multiprocessing
import random
import shutil
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

MINI_CORPUS_SEED = 42  # bench/workloads.py's MINI_CORPUS_SEED
MINI_CORPUS_SIZE = 1000
OBJ_REL = 1e-6  # objectives further apart than this, relative, differ


def load(checkout: str, name: str, tmp: Path):
    """Import a checkout's src/vecopt under another package name."""
    shutil.copytree(Path(checkout) / "src" / "vecopt", tmp / name)
    return importlib.import_module(name)


def jobs(pkg, workload: str) -> list:
    """The workload's solves, each a call that returns a MilpSolution."""
    if workload == "mini":
        rng = random.Random(MINI_CORPUS_SEED)
        seeds = [rng.randrange(2**31) for _ in range(MINI_CORPUS_SIZE)]
        return [
            partial(pkg.solve_scenario, pkg.random_scenario(s)) for s in seeds
        ]
    options = pkg.ModelOptions()
    limit = pkg.sweep.DEFAULT_NODE_LIMIT
    return [
        partial(
            pkg.solve_scenario,
            pkg.build_reference_scenario(cls, count, options),
            node_limit=limit,
        )
        for cls in pkg.scenario.CLASS_ORDER
        for count in range(1, 11)
    ]


def differs(a, b) -> bool:
    """Whether two solutions of one instance disagree."""
    if a.status != b.status:
        return True
    za, zb = a.objective, b.objective
    if not (math.isfinite(za) and math.isfinite(zb)):
        return math.isfinite(za) != math.isfinite(zb)
    return abs(za - zb) > OBJ_REL * max(1.0, abs(za), abs(zb))


def fingerprint(solution) -> tuple:
    """What two bit-identical solves of one instance share."""
    return (
        solution.status,
        float(solution.objective).hex(),
        solution.stats.explored_nodes,
        solution.stats.lp_iterations,
    )


def compare(a: str, b: str, workload: str, passes: int) -> dict:
    """Time checkouts a and b, a loaded and built first (side 0)."""
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            sides = [
                load(a, "vecopt_a", Path(tmp)),
                load(b, "vecopt_b", Path(tmp)),
            ]
        finally:
            sys.path.remove(tmp)
        work = [jobs(pkg, workload) for pkg in sides]
        seconds = [0.0, 0.0]
        nodes = [0, 0]
        pivots = [0, 0]
        objective_sum = [0.0, 0.0]
        differing = 0
        not_identical = 0
        first = 0
        for pass_no in range(passes):
            for i in range(len(work[0])):
                solutions = [None, None]
                for side in (first, 1 - first):
                    t0 = time.perf_counter()
                    solution = work[side][i]()
                    seconds[side] += time.perf_counter() - t0
                    nodes[side] += solution.stats.explored_nodes
                    pivots[side] += solution.stats.lp_iterations
                    solutions[side] = solution
                first = 1 - first
                if pass_no == 0:  # later passes repeat the same solves
                    for side in (0, 1):
                        if math.isfinite(solutions[side].objective):
                            objective_sum[side] += solutions[side].objective
                    differing += differs(*solutions)
                    not_identical += (
                        fingerprint(solutions[0]) != fingerprint(solutions[1])
                    )
    return dict(
        seconds=seconds,
        nodes=nodes,
        pivots=pivots,
        objective_sum=objective_sum,
        differing=differing,
        not_identical=not_identical,
        instances=len(work[0]),
    )


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", help="the first checkout (the base of the ratio)")
    p.add_argument("b", help="the second checkout")
    p.add_argument("--workload", choices=("mini", "grid"), required=True)
    p.add_argument("--passes", type=int, default=1)
    args = p.parse_args(argv)
    if args.passes < 1:
        p.error("--passes must be at least 1")

    # Each side order in a fresh interpreter, one after the other.
    ctx = multiprocessing.get_context("spawn")
    runs = []
    for order in ((args.a, args.b), (args.b, args.a)):
        with ctx.Pool(1) as pool:
            runs.append(
                pool.apply(compare, (*order, args.workload, args.passes))
            )
    # Seconds of (A, B) in each order: A is side 0 when it loads first.
    # Counts and objectives repeat across orders, so the first run's print.
    first, swapped = runs
    timed = [
        (first["seconds"][0], first["seconds"][1]),
        (swapped["seconds"][1], swapped["seconds"][0]),
    ]
    for label, path, side in (("A", args.a, 0), ("B", args.b, 1)):
        print(
            f"{label} {path}: {sum(t[side] for t in timed):.3f} s, "
            f"{first['nodes'][side]} nodes, {first['pivots'][side]} pivots, "
            f"objective sum {first['objective_sum'][side]!r} W"
        )
    print(
        f"instances that differ: {first['differing']} "
        f"of {first['instances']}"
    )
    print(f"instances not bit for bit identical: {first['not_identical']}")
    ratios = [b / a for a, b in timed]
    for label, (a, b), ratio in zip("AB", timed, ratios):
        print(
            f"B/A with {label} loaded first: {ratio:.3f} "
            f"(A {a:.3f} s, B {b:.3f} s)"
        )
    mean = math.sqrt(ratios[0] * ratios[1])
    print(f"B/A, geometric mean of both orders: {mean:.3f}")

if __name__ == "__main__":
    main()
