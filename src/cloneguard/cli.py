"""Command line front end: run experiments, benchmarks, and sweeps.

Exit codes: 0 on success, 1 when a run completed but violated a runtime
invariant (the violated invariant is named on stderr), 2 for unusable
input — bad flags, malformed config files (diagnosed with file and line
number), constraint-violating configurations, or an output path that
cannot be created or written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import random
import statistics
import sys
import time
import typing

from . import metrics as met
from . import sig as sigmod
from .sim import ConfigError, NetworkConfig, run_experiment

BATCH_SWEEP_SIZES = (5, 10, 15, 20, 25)
# The values a sweep axis takes when neither its flag nor the config file sets it.
SWEEP_DEFAULTS = {"num_devices": "100,200,300,400,500", "environment": "sparse",
                  "batch_size": "25"}


class ConfigFileError(ValueError):
    """Malformed experiment config file; the message carries file:line."""


def _parse_int(text: str) -> int:
    return int(text, 0)


# Config-file keys are NetworkConfig's fields, parsed by their annotated
# type; an ``int | None`` field takes an int, since None is only a default.
_PARSER_BY_HINT = {int: _parse_int, int | None: _parse_int, float: float, str: str}
_FIELD_PARSERS = {name: _PARSER_BY_HINT[hint]
                  for name, hint in typing.get_type_hints(NetworkConfig).items()}


def parse_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` config file with line diagnostics."""
    values: dict = {}
    first_lines: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigFileError(f"{path}: cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigFileError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_PARSERS:
            raise ConfigFileError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_lines:
            raise ConfigFileError(f"{path}:{lineno}: duplicate key {key!r} "
                                  f"(first set on line {first_lines[key]})")
        first_lines[key] = lineno
        try:
            values[key] = _FIELD_PARSERS[key](value)
        except ValueError:
            raise ConfigFileError(
                f"{path}:{lineno}: invalid value for {key!r}: {value!r}") from None
    return values


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--seed", type=int, help="master seed (reps use seed + rep)")
    sub.add_argument("--provers", type=int, dest="num_provers")
    sub.add_argument("--verifiers", type=int, dest="num_verifiers")
    sub.add_argument("--clones", type=int, dest="num_clones")
    sub.add_argument("--rounds", type=int)
    sub.add_argument("--out", default="out", help="output directory (default: ./out)")
    sub.add_argument("--reps", type=int, default=1,
                     help="repetitions with derived seeds (default: 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloneguard",
        description="Clone-node detection experiments over batch-verified location proofs")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a detection experiment")
    _add_common_flags(run)
    run.add_argument("--devices", type=int, dest="num_devices")
    run.add_argument("--env", choices=("sparse", "dense"), dest="environment")
    run.add_argument("--batch-size", type=int, dest="batch_size")

    bench = commands.add_parser(
        "bench", help="time batch verification against one-by-one ECDSA")
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--out", default="out")

    sweep = commands.add_parser("sweep", help="grid of runs across scales")
    _add_common_flags(sweep)
    sweep.add_argument("--devices", dest="num_devices_list",
                       help="comma-separated device counts (default: the config file's "
                            f"num_devices, else {SWEEP_DEFAULTS['num_devices']})")
    sweep.add_argument("--env", dest="environment_list",
                       help="comma-separated environments (default: the config file's "
                            f"environment, else {SWEEP_DEFAULTS['environment']})")
    sweep.add_argument("--batch-size", dest="batch_size_list",
                       help="comma-separated proof batch sizes (default: the config file's "
                            f"batch_size, else {SWEEP_DEFAULTS['batch_size']})")

    return parser


def _gather_overrides(args: argparse.Namespace) -> dict:
    """Config values from file, with CLI flags taking precedence."""
    values = parse_config_file(args.config) if args.config else {}
    for key in _FIELD_PARSERS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ConfigError(f"{flag} must be at least 1, got {value}")


def _make_out_dir(path: str) -> None:
    """Create an output directory, or fail as unusable input before any run starts."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot create directory {path!r}: "
                          f"{exc.strerror or exc}") from None


@contextlib.contextmanager
def _writing(*paths: str):
    """Report a failed write of the output files ``paths`` as unusable input."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {' or '.join(paths)}: "
                          f"{exc.strerror or exc}") from None


def check_report_invariants(report: met.SimulationReport) -> list[str]:
    """Structural invariants every finished run must satisfy."""
    problems = []
    if report.false_positives != 0:
        problems.append(f"soundness: {report.false_positives} honest devices were flagged")
    if report.detection_probability != 1.0:
        problems.append(
            f"completeness: detection probability {report.detection_probability:.3f}, "
            "injected clones went undetected")
    for rec in report.detections:
        if not rec.detection_time_ms > 0.0:  # NaN fails this too
            problems.append(f"timing: clone {rec.clone_idx} has detection time "
                            f"{rec.detection_time_ms}, not positive")
    return problems


def _print_report_line(label: str, report: met.SimulationReport) -> None:
    print(f"{label}: seed={report.seed} detection={report.detection_probability:.3f} "
          f"flagged={len(report.detections)} false_positives={report.false_positives} "
          f"messages={report.total_messages} bytes={report.total_bytes}")


def _run_reps(config: NetworkConfig, reps: int, out_dir: str,
              label: str = "rep") -> list[met.SimulationReport]:
    reports = []
    for rep in range(reps):
        cfg = dataclasses.replace(config, seed=config.seed + rep)
        report = run_experiment(cfg)
        path = os.path.join(out_dir, f"report_{label}{rep}.json")
        with _writing(path):
            met.atomic_write_text(path, report.to_canonical_json())
        _print_report_line(f"{label} {rep}", report)
        reports.append(report)
    return reports


def cmd_run(args: argparse.Namespace) -> int:
    _require_positive("--reps", args.reps)
    values = _gather_overrides(args)
    config = NetworkConfig(**values)
    config.validate()
    _make_out_dir(args.out)

    reports = _run_reps(config, args.reps, args.out)

    path = os.path.join(args.out, "detection.csv")
    with _writing(path):
        met.write_detection_csv(path, reports)
    paths = (os.path.join(args.out, "overhead_messages.csv"),
             os.path.join(args.out, "overhead_bytes.csv"))
    with _writing(*paths):
        met.write_overhead_csvs(*paths, reports)
    path = os.path.join(args.out, "storage.csv")
    with _writing(path):
        met.write_storage_csv(path, reports[0])

    problems = [p for report in reports for p in check_report_invariants(report)]
    if problems:
        for problem in problems:
            print(f"invariant violated: {problem}", file=sys.stderr)
        return 1
    return 0


def _bench_batch(out_dir: str, reps: int, seed: int) -> float:
    """Time one-by-one verification, classic and ECDSA*, against star batches.

    Returns the batch's speedup over the classic loop at the largest swept
    batch size (median over reps).  Each size prints both loops, the
    batch, and the batch's speedup over each loop; the one-by-one ECDSA*
    loop (``verify_star``) is acceptance criterion 2's baseline.
    """
    rng = random.Random(seed)
    rows = []
    speedups: dict[int, float] = {}
    for size in BATCH_SWEEP_SIZES:
        times: dict[str, list[float]] = {"ecdsa": [], "ecdsa_star": [], "ecdsa_star_batch": []}
        for rep in range(reps):
            items = []
            for i in range(size):
                keypair = sigmod.generate_keypair(rng)
                message = f"bench-batch-{size}-{rep}-{i}".encode()
                items.append((message, sigmod.sign(message, keypair.private, rng),
                              keypair.public))

            start = time.perf_counter()
            for message, star, public in items:
                if not sigmod.verify_classic(message, star.to_classic(), public):
                    raise AssertionError("benchmark signature failed to verify")
            times["ecdsa"].append(time.perf_counter() - start)

            start = time.perf_counter()
            for message, star, public in items:
                if not sigmod.verify_star(message, star, public):
                    raise AssertionError("benchmark signature failed to verify")
            times["ecdsa_star"].append(time.perf_counter() - start)

            start = time.perf_counter()
            if not sigmod.batch_verify(items, rng):
                raise AssertionError("benchmark batch failed to verify")
            times["ecdsa_star_batch"].append(time.perf_counter() - start)

            rows += [(size, scheme, rep, values[-1]) for scheme, values in times.items()]
        medians = {scheme: statistics.median(values) for scheme, values in times.items()}
        batch = medians["ecdsa_star_batch"]
        speedups[size] = medians["ecdsa"] / batch
        print(f"batch size {size:2d}: ecdsa {medians['ecdsa'] * 1e3:8.3f} ms, "
              f"ecdsa* {medians['ecdsa_star'] * 1e3:8.3f} ms, "
              f"ecdsa* batch {batch * 1e3:8.3f} ms, "
              f"speedup {speedups[size]:.2f}x (over ecdsa* {medians['ecdsa_star'] / batch:.2f}x)")
    path = os.path.join(out_dir, "batch_timing.csv")
    with _writing(path):
        met.write_batch_timing_csv(path, rows)
    return speedups[max(BATCH_SWEEP_SIZES)]


def cmd_bench(args: argparse.Namespace) -> int:
    _require_positive("--reps", args.reps)
    _make_out_dir(args.out)
    _bench_batch(args.out, args.reps, args.seed)
    return 0


def _parse_list(text: str, parse, flag: str) -> list:
    try:
        values = [parse(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigFileError(f"invalid {flag} list: {text!r}") from None
    for i, value in enumerate(values):
        if value in values[:i]:
            # A repeated value would run its cells twice into one directory.
            raise ConfigFileError(f"{flag} lists {value!r} more than once")
    return values


def _sweep_axis(args: argparse.Namespace, base: dict, flag: str, field: str, parse) -> list:
    """An axis's values: its flag's list, else the config file's one value, else the default."""
    text = getattr(args, f"{field}_list")
    if text is None:
        if field in base:
            return [base[field]]
        text = SWEEP_DEFAULTS[field]
    return _parse_list(text, parse, flag)


def cmd_sweep(args: argparse.Namespace) -> int:
    _require_positive("--reps", args.reps)
    base = _gather_overrides(args)
    devices_list = _sweep_axis(args, base, "--devices", "num_devices", _parse_int)
    env_list = _sweep_axis(args, base, "--env", "environment", str)
    batch_list = _sweep_axis(args, base, "--batch-size", "batch_size", _parse_int)
    if not devices_list or not env_list or not batch_list:
        raise ConfigFileError("sweep axes must be non-empty")

    # Build and validate the whole grid up front: an unreachable cell is
    # an error, never a silent skip.
    cells = []
    problems = []
    for n in devices_list:
        for env in env_list:
            for batch_size in batch_list:
                cell_values = dict(base)
                cell_values["num_devices"] = n
                cell_values["environment"] = env
                cell_values["batch_size"] = batch_size
                label = f"n{n}_{env}_b{batch_size}"
                try:
                    config = NetworkConfig(**cell_values)
                    config.validate()
                except (ConfigError, TypeError) as exc:
                    problems.append(f"cell {label}: {exc}")
                    continue
                cells.append((label, config))
    if problems:
        raise ConfigError("; ".join(problems))

    for label, _ in cells:
        _make_out_dir(os.path.join(args.out, label))
    all_reports = []
    summary_cells = []
    invariant_problems = []
    for label, config in cells:
        reports = _run_reps(config, args.reps, os.path.join(args.out, label),
                            label=f"{label}_rep")
        for report in reports:
            invariant_problems.extend(
                f"cell {label}: {p}" for p in check_report_invariants(report))
            summary_cells.append({
                "cell": label,
                "num_devices": report.config["num_devices"],
                "environment": report.config["environment"],
                "batch_size": report.config["batch_size"],
                "seed": report.seed,
                "detection_probability": report.detection_probability,
                "false_positives": report.false_positives,
                "total_messages": report.total_messages,
                "total_bytes": report.total_bytes,
            })
        all_reports.extend(reports)

    path = os.path.join(args.out, "detection.csv")
    with _writing(path):
        met.write_detection_csv(path, all_reports)
    summary = {"cells": summary_cells,
               "complexity": met.complexity_summary(all_reports)}
    path = os.path.join(args.out, "sweep_summary.json")
    with _writing(path):
        met.atomic_write_text(
            path, json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n")

    if invariant_problems:
        for problem in invariant_problems:
            print(f"invariant violated: {problem}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ConfigError, ConfigFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
