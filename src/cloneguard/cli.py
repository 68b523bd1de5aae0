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
import itertools
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


class ConfigFileError(ValueError):
    """Malformed experiment config file; the message carries file:line."""


def _parse_int(text: str) -> int:
    return int(text, 0)


_parse_int.__name__ = "int"  # argparse names it in "invalid int value: 'x'"


# Config-file keys are NetworkConfig's fields, parsed by their annotated
# type; an ``int | None`` field takes an int, since None is only a default.
_PARSER_BY_HINT = {int: _parse_int, int | None: _parse_int, float: float, str: str}
_FIELD_PARSERS = {name: _PARSER_BY_HINT[hint]
                  for name, hint in typing.get_type_hints(NetworkConfig).items()}


class ConfigFlag(typing.NamedTuple):
    """A ``NetworkConfig`` field's flag, and its values as a ``sweep`` axis."""

    field: str
    flag: str
    help: str | None = None
    # A sweep axis's values when neither its flag nor the config file sets
    # it, and the prefix of its value in a cell's label; () for no axis.
    axis: tuple = ()
    label: str = ""


# The one place that names a config flag.  ``run`` takes each flag as one
# value; ``sweep`` takes an axis's flag as a comma-separated list and runs
# the product of its axes in this order, the last one innermost.
CONFIG_FLAGS = (
    ConfigFlag("seed", "--seed", "master seed (reps use seed + rep)"),
    ConfigFlag("num_provers", "--provers"),
    ConfigFlag("num_verifiers", "--verifiers"),
    ConfigFlag("num_clones", "--clones"),
    ConfigFlag("rounds", "--rounds"),
    ConfigFlag("num_devices", "--devices", axis=(100, 200, 300, 400, 500), label="n"),
    ConfigFlag("environment", "--env", axis=("sparse",)),
    ConfigFlag("batch_size", "--batch-size", axis=(25,), label="b"),
)


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


def _add_common_flags(sub: argparse.ArgumentParser, sweep: bool) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    for row in CONFIG_FLAGS:
        if sweep and row.axis:
            sub.add_argument(row.flag, dest=f"{row.field}_list",
                             help=f"comma-separated {row.field} values (default: the config "
                                  f"file's {row.field}, else {','.join(map(str, row.axis))})")
        else:
            sub.add_argument(row.flag, type=_FIELD_PARSERS[row.field], dest=row.field,
                             help=row.help)
    sub.add_argument("--out", default="out", help="output directory (default: ./out)")
    sub.add_argument("--reps", type=int, default=1,
                     help="repetitions with derived seeds (default: 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloneguard",
        description="Clone-node detection experiments over batch-verified location proofs")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a detection experiment")
    _add_common_flags(run, sweep=False)
    run.set_defaults(handler=cmd_run)

    bench = commands.add_parser(
        "bench", help="time batch verification against one-by-one ECDSA")
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--out", default="out")
    bench.set_defaults(handler=cmd_bench)

    sweep = commands.add_parser("sweep", help="grid of runs across scales")
    _add_common_flags(sweep, sweep=True)
    sweep.set_defaults(handler=cmd_sweep)

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


def _report_invariants(problems: list[str]) -> int:
    """Name each violated invariant on stderr; the exit code, 1 if there is one."""
    for problem in problems:
        print(f"invariant violated: {problem}", file=sys.stderr)
    return 1 if problems else 0


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

    return _report_invariants(
        [p for report in reports for p in check_report_invariants(report)])


def _bench_batch(out_dir: str, reps: int, seed: int) -> None:
    """Time one-by-one verification, classic and ECDSA*, against star batches.

    Each size prints the median time of both loops and of the batch, and
    the batch's speedup over each loop; the one-by-one ECDSA* loop
    (``verify_star``) is acceptance criterion 2's baseline.
    """
    rng = random.Random(seed)
    schemes = {
        "ecdsa": lambda items: all(sigmod.verify_classic(message, sig.to_classic(), public)
                                   for message, sig, public in items),
        "ecdsa_star": lambda items: all(sigmod.verify_star(message, sig, public)
                                        for message, sig, public in items),
        "ecdsa_star_batch": lambda items: sigmod.batch_verify(items, rng),
    }
    rows = []
    for size in BATCH_SWEEP_SIZES:
        times: dict[str, list[float]] = {scheme: [] for scheme in schemes}
        for rep in range(reps):
            items = []
            for i in range(size):
                keypair = sigmod.generate_keypair(rng)
                message = f"bench-batch-{size}-{rep}-{i}".encode()
                items.append((message, sigmod.sign(message, keypair.private, rng),
                              keypair.public))
            for scheme, verify in schemes.items():
                start = time.perf_counter()
                if not verify(items):
                    raise AssertionError(f"benchmark {scheme} failed to verify")
                times[scheme].append(time.perf_counter() - start)
                rows.append((size, scheme, rep, times[scheme][-1]))
        classic, star, batch = (statistics.median(values) for values in times.values())
        print(f"batch size {size:2d}: ecdsa {classic * 1e3:8.3f} ms, "
              f"ecdsa* {star * 1e3:8.3f} ms, "
              f"ecdsa* batch {batch * 1e3:8.3f} ms, "
              f"speedup {classic / batch:.2f}x (over ecdsa* {star / batch:.2f}x)")
    path = os.path.join(out_dir, "batch_timing.csv")
    with _writing(path):
        met.write_batch_timing_csv(path, rows)


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


def _sweep_axis(args: argparse.Namespace, base: dict, row: ConfigFlag) -> list:
    """An axis's values: its flag's list, else the config file's one value, else the default."""
    text = getattr(args, f"{row.field}_list")
    if text is not None:
        return _parse_list(text, _FIELD_PARSERS[row.field], row.flag)
    return [base[row.field]] if row.field in base else list(row.axis)


def cmd_sweep(args: argparse.Namespace) -> int:
    _require_positive("--reps", args.reps)
    base = _gather_overrides(args)
    axes = [row for row in CONFIG_FLAGS if row.axis]
    axis_values = [_sweep_axis(args, base, row) for row in axes]
    if not all(axis_values):
        raise ConfigFileError("sweep axes must be non-empty")

    # Build the whole grid up front, as building a config checks it: an
    # unreachable cell is an error, never a silent skip.
    cells = []
    problems = []
    for values in itertools.product(*axis_values):
        cell = {row.field: value for row, value in zip(axes, values)}
        label = "_".join(f"{row.label}{value}" for row, value in zip(axes, values))
        try:
            config = NetworkConfig(**{**base, **cell})
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
                **{row.field: report.config[row.field] for row in axes},
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
    return _report_invariants(invariant_problems)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except (ConfigError, ConfigFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
