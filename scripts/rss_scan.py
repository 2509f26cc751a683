#!/usr/bin/env python3
"""Scan the benchmark's peak RSS over checkout path lengths.

`mixture-estimate`'s `peak_rss_mb` can take one of two heap layouts,
and which one a tree gets depends on the code and on the length of the
checkout's path, with a period of 16 characters.  A single run can
therefore not tell a change in memory use from a change of layout.
This script copies a tree's `src/` and `perfbench/` into fresh
directories whose path lengths cover one period, runs

    python3 perfbench/run.py --workload W --seed S --seconds 2 --trace 0

twice in a fresh copy per path length and seed, one process at a time
(the first run compiles, the second reuses the bytecode), prints one
line per run and removes its copies.  Standard library only.

Usage: python3 scripts/rss_scan.py [--tree DIR] [--workload W ...]
           [--seeds 0 1 ...] [--lengths 8] [--seconds 2] [--base DIR]
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

PERIOD = 16  # characters of path length over which the layouts repeat


def copy_tree(tree: str, dest: str) -> None:
    """``tree``'s src/ and perfbench/ under ``dest``, without bytecode."""
    for name in ("src", "perfbench"):
        shutil.copytree(os.path.join(tree, name), os.path.join(dest, name),
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))


def run(copy: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``copy``: its last output line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="the tree to copy (default: this script's checkout)")
    ap.add_argument("--workload", nargs="+", default=["mixture-estimate"])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--lengths", type=int, default=8,
                    help="path lengths, spread evenly over one period")
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--base", default=tempfile.gettempdir(),
                    help="where the copies are made")
    args = ap.parse_args(argv)
    if not 1 <= args.lengths <= PERIOD:
        ap.error(f"--lengths must be in 1..{PERIOD}")

    holder = tempfile.mkdtemp(prefix="rss_scan_", dir=args.base)
    try:
        shortest = len(os.path.join(holder, "c"))
        step = PERIOD // args.lengths
        for workload in args.workload:
            for seed in args.seeds:
                for i in range(args.lengths):
                    length = shortest + i * step
                    copy = os.path.join(holder, "c" + "x" * (i * step))
                    copy_tree(args.tree, copy)
                    try:
                        for n in (1, 2):
                            out = run(copy, workload, seed, args.seconds)
                            m = {k: v["value"]
                                 for k, v in out["metrics"].items()}
                            print(f"workload={workload} length={length} "
                                  f"seed={seed} run={n} "
                                  f"peak_rss_mb={m.get('peak_rss_mb', 0):.1f}"
                                  f" norm_cpu_s={m.get('norm_cpu_s', 0):.4f}"
                                  f" correct={str(out['correct']).lower()}",
                                  flush=True)
                    finally:
                        shutil.rmtree(copy, ignore_errors=True)
    finally:
        shutil.rmtree(holder, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
