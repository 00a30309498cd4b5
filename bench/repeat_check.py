"""Check that the deterministic metrics repeat exactly across two runs.

    python3 bench/repeat_check.py --workload mini --seed 1

Runs ``bench/run.py`` twice untraced and twice traced with the same
seed, compares the metrics below (and the emitted-bytes digest) for
exact equality, prints one line per metric and exits 1 on a mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
EXACT = {
    0: ("objective_sum_w", "proven_points"),
    1: ("bnb.nodes", "bnb.pivots", "milp.rows"),
}


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    record_line, result_line = done.stdout.splitlines()[-2:]
    return json.loads(record_line)["record"], json.loads(result_line)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="mini")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    same = True
    for trace, names in EXACT.items():
        (rec_a, res_a), (rec_b, res_b) = (
            run(args.workload, args.seed, trace) for _ in range(2)
        )
        pairs = [(n, res_a["metrics"][n]["value"], res_b["metrics"][n]["value"])
                 for n in names]
        pairs.append((f"digest (trace {trace})", rec_a["digest"], rec_b["digest"]))
        for name, a, b in pairs:
            verdict = "same" if a == b else "DIFFERENT"
            same &= a == b
            print(f"{args.workload} {name}: {a} / {b}: {verdict}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
