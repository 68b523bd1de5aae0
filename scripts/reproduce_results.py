#!/usr/bin/env python3
"""Reproduce the headline experiment tables in one shot.

Drives the cloneguard CLI end to end and leaves everything under
results/ (or --out):

  detection/   sparse and dense detection runs across seeds
  bench/       batch-verification timings (ECDSA* batches vs one-by-one ECDSA)
  sweep/       device-count sweep with the traffic-scaling summary

Wall-clock timings vary with the host; detection results, message
counts, and report JSON are deterministic per seed.
"""

import argparse
import json
import os
import sys

from cloneguard.cli import main as cli


def run(argv: list[str]) -> None:
    print("+ cloneguard " + " ".join(argv))
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seeds", type=int, default=5,
                        help="seeds per environment (default: 5)")
    parser.add_argument("--seed0", type=int, default=1, help="first seed")
    args = parser.parse_args()

    detection_dir = os.path.join(args.out, "detection")
    run(["run", "--env", "sparse", "--devices", "100", "--rounds", "2",
         "--seed", str(args.seed0), "--reps", str(args.seeds),
         "--out", os.path.join(detection_dir, "sparse")])
    run(["run", "--env", "dense", "--devices", "500", "--clones", "50",
         "--rounds", "2", "--seed", str(args.seed0), "--reps", str(args.seeds),
         "--out", os.path.join(detection_dir, "dense")])

    run(["bench", "--out", os.path.join(args.out, "bench")])

    sweep_dir = os.path.join(args.out, "sweep")
    run(["sweep", "--devices", "100,200,300,400,500", "--env", "sparse",
         "--rounds", "1", "--seed", str(args.seed0), "--out", sweep_dir])

    with open(os.path.join(sweep_dir, "sweep_summary.json")) as fh:
        summary = json.load(fh)
    print()
    print(f"traffic scaling verdict: {summary['complexity']['verdict']} "
          f"(messages/device ratio "
          f"{summary['complexity'].get('per_device_ratio', 0):.3f})")
    print(f"outputs under {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
