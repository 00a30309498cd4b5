"""Time two checkouts of vecopt against each other in one process.

    python3 tools/interleave.py A B --workload mini|grid [--passes N]

A and B are source checkouts.  Each one's ``src/vecopt`` is copied into
a temporary directory as its own package (``vecopt_a``, ``vecopt_b``;
the package imports itself only relatively), and each side builds its
inputs with its own package.  The sides then solve the same instances
alternately, one instance at a time, flipping which side goes first at
every instance, so a host whose speed wanders from minute to minute
slows both alike.  Prints each side's seconds, node total and pivot
total, and the ratio B/A of the seconds.

``mini`` is the timed corpus of ``bench/workloads.py``: 1000 random
scenarios from the seeds that ``random.Random(42)`` draws, solved with
``solve_scenario``.  ``grid`` is the 30 reference points at the sweep's
node budget.  This sizes a change; the benchmark (``bench/run.py``)
stays the measure of record.
"""

from __future__ import annotations

import argparse
import importlib
import random
import shutil
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

MINI_CORPUS_SEED = 42  # bench/workloads.py's MINI_CORPUS_SEED
MINI_CORPUS_SIZE = 1000


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


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", help="the first checkout (the base of the ratio)")
    p.add_argument("b", help="the second checkout")
    p.add_argument("--workload", choices=("mini", "grid"), required=True)
    p.add_argument("--passes", type=int, default=1)
    args = p.parse_args(argv)
    if args.passes < 1:
        p.error("--passes must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            sides = [
                load(args.a, "vecopt_a", Path(tmp)),
                load(args.b, "vecopt_b", Path(tmp)),
            ]
        finally:
            sys.path.remove(tmp)
        work = [jobs(pkg, args.workload) for pkg in sides]
        seconds = [0.0, 0.0]
        nodes = [0, 0]
        pivots = [0, 0]
        first = 0
        for _ in range(args.passes):
            for i in range(len(work[0])):
                for side in (first, 1 - first):
                    t0 = time.perf_counter()
                    solution = work[side][i]()
                    seconds[side] += time.perf_counter() - t0
                    nodes[side] += solution.stats.explored_nodes
                    pivots[side] += solution.stats.lp_iterations
                first = 1 - first

    for label, path, side in (("A", args.a, 0), ("B", args.b, 1)):
        print(
            f"{label} {path}: {seconds[side]:.3f} s, "
            f"{nodes[side]} nodes, {pivots[side]} pivots"
        )
    print(f"B/A: {seconds[1] / seconds[0]:.3f}")


if __name__ == "__main__":
    main()
