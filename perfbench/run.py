"""Run one cloneguard benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dense-rounds --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  Human
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from the span wrappers, and
the spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"

WORKLOAD_NAMES = ("dense-rounds", "sparse-seeds", "proof-mix")


def import_package() -> None:
    """Import ``cloneguard`` from this checkout's ``src/`` or exit non-zero."""
    if not (SRC / "cloneguard" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'cloneguard'}")
    sys.path.insert(0, str(SRC))
    import cloneguard
    if Path(cloneguard.__file__).resolve().parent != SRC / "cloneguard":
        sys.exit(f"perfbench: imported cloneguard from {cloneguard.__file__}, not {SRC}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def recorded_digest(workload: str, seed: int) -> str | None:
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return recorded.get(workload, {}).get(str(seed))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_package()
    from cloneguard import ec
    from harness import Run, TraceGuardError, guard, layer_metrics, tail_rank
    from spans import SETUP, Tracer, layer_totals, write_spans
    from workloads import WORKLOADS, Digest

    workload = WORKLOADS[args.workload]
    ec.scalar_mul(1, ec.G)  # build the lazy generator table before any timing
    tracer = Tracer() if args.trace else None
    run = Run(args.seconds, workload.min_steps, tracer)
    digest = Digest(workload.digest_rounds)
    workload.drive(run, args.seed, digest)
    run.finish()

    attempted, failed = run.steps, run.failed
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{attempted} steps, {len(run.of(SETUP))} set-ups")
    print(f"  failed_ratio {failed / attempted:.6g} ({failed} of {attempted} steps failed)")
    correct = failed == 0
    found = digest.hexdigest()
    if found is not None:
        expected = recorded_digest(workload.name, args.seed)
        verdict = ("not recorded" if expected is None
                   else "matches the recorded one" if expected == found else
                   f"DIFFERS from the recorded {expected}")
        correct = correct and expected in (None, found)
        print(f"  decision digest over {digest.rounds} rounds: {found} ({verdict})")

    if tracer is None:
        metrics = run.end_to_end(workload.tail_pct)
        beyond = attempted - tail_rank(attempted, workload.tail_pct)
        print(f"  step_s.tail is p{workload.tail_pct}: {beyond} of {attempted} steps lie above it")
        host = run.host_seconds()
        print("  unscaled host timings: " + ", ".join(f"{k} {v:.6g}" for k, v in host.items()))
    else:
        totals = layer_totals(tracer.spans, run.scale())
        try:
            guard(totals, tracer.absent, workload.expected)
        except TraceGuardError as err:
            sys.exit(f"perfbench: traced run of {workload.name} failed: {err}")
        metrics = layer_metrics(run, totals)
        for name in tracer.absent:
            print(f"  {name}: absent (the package no longer defines it); reported as 0")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.tsv"
        write_spans(tracer.spans, spans_path)
        print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(HERE.parent)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
