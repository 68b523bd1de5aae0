#!/usr/bin/env python3
"""Run the benchmark on one or more checkouts and write a snapshot file.

    python3 scripts/bench_snapshot.py --out BENCH_16.json --seeds 1-10 \\
        --seconds 30 --checkout parent=../parent --checkout change=.

For every workload and seed, each checkout's ``perfbench/run.py`` runs
``--pairs`` times as an untraced subprocess.  The checkouts alternate,
and the one that goes first swaps from pair to pair, so the host's
drift falls on every side alike.  The last line a run prints is its
JSON result.  A run that exits non-zero or reports ``correct: false``
stops the script before it writes anything.

The snapshot holds, per checkout and workload, each end-to-end metric's
median, quartiles and run count, and its values in run order: seed by
seed, pair by pair, so value i of two checkouts comes from one
alternating pair.  It also records the Python version,
``os.cpu_count()``, each checkout's commit and the run length.

A claim rests on alternating pairs, never on one run per side: the host
drifts by a third and more between runs, and a single pair has hidden
or invented a 7% effect.  Give a held-out seed at least three
alternating pairs (``--pairs 3``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("dense-rounds", "sparse-seeds", "proof-mix")


def parse_seeds(text: str) -> list[int]:
    """'1-4,1000' -> [1, 2, 3, 4, 1000]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def parse_checkout(text: str) -> tuple[str, Path]:
    name, sep, path = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {text!r}")
    return name, Path(path).resolve()


def commit_of(checkout: Path) -> str:
    found = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
    dirty = subprocess.run(["git", "-C", str(checkout), "status", "--porcelain",
                            "--untracked-files=no"], capture_output=True, text=True)
    commit = found.stdout.strip() or "unknown"
    return commit + ("-dirty" if dirty.stdout.strip() else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its final JSON line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    label = f"{checkout} {workload} seed {seed}"
    if done.returncode != 0:
        sys.exit(f"bench_snapshot: {label} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"bench_snapshot: {label} reported correct: false; nothing written")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values), "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--checkout", type=parse_checkout, action="append", required=True,
                        help="NAME=PATH of a source checkout; repeat to compare")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=parse_seeds, default=[1])
    parser.add_argument("--pairs", type=int, default=1, help="alternating runs per seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    checkouts = dict(args.checkout)
    metrics: dict[str, dict[str, dict[str, list[float]]]] = {name: {} for name in checkouts}
    turn = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            for _ in range(args.pairs):
                names = list(checkouts)
                order = names[turn % len(names):] + names[:turn % len(names)]
                turn += 1
                for name in order:
                    result = run_once(checkouts[name], workload, seed, args.seconds)
                    print(f"{name} {workload} seed {seed}: " + ", ".join(
                        f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                        flush=True)
                    table = metrics[name].setdefault(workload, {})
                    for key, entry in result["metrics"].items():
                        table.setdefault(key, []).append(entry["value"])

    snapshot = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "run_seconds": args.seconds,
        "seeds": args.seeds,
        "pairs_per_seed": args.pairs,
        "checkouts": {
            name: {"commit": commit_of(path),
                   "workloads": {workload: {key: summary(values) for key, values in table.items()}
                                 for workload, table in metrics[name].items()}}
            for name, path in checkouts.items()},
    }
    args.out.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
