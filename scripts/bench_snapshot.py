#!/usr/bin/env python3
"""Run the benchmark on one or more checkouts and write a snapshot file.

    python3 scripts/bench_snapshot.py --out BENCH_17.json --seeds 1-10 \\
        --held-out 1000 --seconds 30 --checkout parent=../parent --checkout change=.

For every workload and seed, each checkout's ``perfbench/run.py`` runs
``--pairs`` times as an untraced subprocess, and ``HELD_OUT_PAIRS``
times (or ``--pairs``, if more) for each ``--held-out`` seed.  The
checkouts alternate, and the one that goes first swaps from pair to
pair, so the host's drift falls on every side alike.  The last line a
run prints is its JSON result.  A run that exits non-zero, prints no
JSON line or reports ``correct: false`` stops the script before it
writes anything, and so do a checkout name given twice and an empty
seed range such as ``5-1``.

The snapshot holds, per checkout and workload, each end-to-end metric's
median, quartiles and run count, and its values in run order: seed by
seed, pair by pair, so value i of two checkouts comes from one
alternating pair.  ``attempted``, the steps each run took, is
summarised the same way.  The held-out seeds get their own summaries
under ``held_out``.  Each checkout's operation ledger
(``scripts/op_ledger.py`` run on its source) is recorded as well, with
the Python version, ``os.cpu_count()``, each checkout's commit and the
run length.

A claim rests on alternating pairs, never on one run per side: the host
drifts by a third and more between runs, and a single pair has hidden
or invented a 7% effect.  So with exactly two checkouts, the second
compared against the first, the snapshot also holds, per workload and
end-to-end metric, the pairs the second side won (the direction is the
metric's ``better`` in ``BENCHMARK.json``), the difference of the
medians (second minus first) and the first side's interquartile range.
``clears_claim_rule`` is true when the second side won at least nine
pairs in ten and its median is better by more than that range; at a
held-out seed's three pairs that means all three.
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
HELD_OUT_PAIRS = 3
REPO = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """'1-4,1000' -> [1, 2, 3, 4, 1000]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        span = range(int(first), int(last or first) + 1)
        if not span:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        seeds += span
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
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"bench_snapshot: {label} printed no JSON result line; nothing written")
    if not result["correct"]:
        sys.exit(f"bench_snapshot: {label} reported correct: false; nothing written")
    return result


def ledger_of(checkout: Path) -> dict:
    """The operation ledger of a checkout's source."""
    done = subprocess.run([sys.executable, str(REPO / "scripts" / "op_ledger.py")],
                          env={**os.environ, "PYTHONPATH": str(checkout / "src")},
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_snapshot: the ledger of {checkout} exited {done.returncode}:\n"
                 f"{done.stderr}")
    return json.loads(done.stdout)


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values), "values": values}


def compare(first: list[float], second: list[float], better: str) -> dict:
    """How the second side fared against the first over alternating pairs."""
    sign = 1 if better == "higher" else -1
    a, b = summary(first), summary(second)
    difference = b["median"] - a["median"]
    iqr = a["q3"] - a["q1"]
    won = sum(sign * (y - x) > 0 for x, y in zip(first, second))
    return {"better": better, "pairs": len(first), "second_won": won,
            "median_difference": difference, "first_iqr": iqr,
            "clears_claim_rule": 10 * won >= 9 * len(first) and sign * difference > iqr}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--checkout", type=parse_checkout, action="append", required=True,
                        help="NAME=PATH of a source checkout; repeat to compare")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=parse_seeds, default=[1])
    parser.add_argument("--held-out", type=parse_seeds, default=[],
                        help=f"seeds run max(--pairs, {HELD_OUT_PAIRS}) pairs each, "
                             "summarised apart")
    parser.add_argument("--pairs", type=int, default=1, help="alternating runs per seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    names = [name for name, _ in args.checkout]
    for name in names:
        if names.count(name) > 1:
            parser.error(f"checkout name {name!r} given more than once")
    checkouts = dict(args.checkout)
    plan = [("workloads", seed, args.pairs) for seed in args.seeds]
    plan += [("held_out", seed, max(args.pairs, HELD_OUT_PAIRS)) for seed in args.held_out]
    # runs[name][part][workload][key]: values in run order
    runs: dict = {name: {part: {} for part, _, _ in plan} for name in names}
    turn = 0
    for workload in args.workloads.split(","):
        for part, seed, pairs in plan:
            for _ in range(pairs):
                order = names[turn % len(names):] + names[:turn % len(names)]
                turn += 1
                for name in order:
                    result = run_once(checkouts[name], workload, seed, args.seconds)
                    print(f"{name} {workload} seed {seed}: " + ", ".join(
                        f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                        flush=True)
                    table = runs[name][part].setdefault(workload, {})
                    table.setdefault("attempted", []).append(result["attempted"])
                    for key, entry in result["metrics"].items():
                        table.setdefault(key, []).append(entry["value"])

    snapshot = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "run_seconds": args.seconds,
        "seeds": args.seeds,
        "pairs_per_seed": args.pairs,
        "held_out_seeds": args.held_out,
        "checkouts": {
            name: {"commit": commit_of(path),
                   **{part: {workload: {key: summary(values) for key, values in table.items()}
                             for workload, table in runs[name][part].items()}
                      for part in runs[name]},
                   "ledger": ledger_of(path)}
            for name, path in checkouts.items()},
    }
    if len(names) == 2:
        first, second = names
        better = {m["name"]: m["better"] for m in
                  json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
        snapshot["comparison"] = {
            "first": first, "second": second,
            "ledger_equal": (snapshot["checkouts"][first]["ledger"]
                             == snapshot["checkouts"][second]["ledger"]),
            **{part: {workload: {key: compare(table[key], runs[second][part][workload][key],
                                              better[key])
                                 for key in better if key in table}
                      for workload, table in runs[first][part].items()}
               for part in runs[first]}}
    args.out.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
