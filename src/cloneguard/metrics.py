"""Message accounting, the simulated clock, scaling checks, and exports.

The simulated clock lives here: every logged protocol message advances
it by the sink's per-hop latency, and detection times are differences
of simulated timestamps, so they are fully deterministic under a fixed
seed.  How long the cryptography takes on a real machine is measured
from outside the package, by ``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from . import context as ctx
from . import sig as sigmod

# Wire sizes per message category, in bytes.  Context records and proofs
# carry their real serialized sizes; control messages are a u16 id plus
# at most a status/round field.
WIRE_BYTES = {
    "register": 2 + sigmod.PUBLIC_KEY_BYTES,  # id + compressed public key
    "sense": ctx.CI_WIRE_BYTES,
    "store": ctx.CI_WIRE_BYTES,
    "ack": 3,                                 # id + status
    "proof_request": 4,                       # id + round
    "proof_response": ctx.PROOF_WIRE_BYTES,
    "ci_check": 2,                            # id
    "verify_confirm": 3,                      # id + verdict
    "compromise_report": 3,                   # id + verdict
}

# Per-device persistent storage, in bytes: the current context record
# plus the key material.
DEVICE_CI_BYTES = ctx.CI_WIRE_BYTES
DEVICE_PRIVATE_KEY_BYTES = sigmod.PRIVATE_KEY_BYTES
DEVICE_PUBLIC_KEY_BYTES = sigmod.PUBLIC_KEY_BYTES
DEVICE_STORAGE_BYTES = DEVICE_CI_BYTES + DEVICE_PRIVATE_KEY_BYTES + DEVICE_PUBLIC_KEY_BYTES
# A widely quoted per-device budget that books the context record at 8
# bytes instead of its full 16-byte wire form.  Reports carry both
# figures and a divergence flag rather than silently adopting either.
QUOTED_DEVICE_BUDGET_BYTES = 73
# Per tracked prover, a verifier keeps the id and its latest measured
# distance.
VERIFIER_TRACK_BYTES = 2 + 8

# The storage figures every report carries for comparison.
STORAGE_REFERENCE = {
    "per_device_bytes": DEVICE_STORAGE_BYTES,
    "quoted_budget_bytes": QUOTED_DEVICE_BUDGET_BYTES,
    "matches_quoted_budget": DEVICE_STORAGE_BYTES == QUOTED_DEVICE_BUDGET_BYTES,
}

MessageCounts = dict[str, dict[str, int]]  # sender role -> category -> count


def byte_counts(message_counts: MessageCounts) -> MessageCounts:
    """Sender role -> category -> payload bytes, from the message counts."""
    return {role: {category: count * WIRE_BYTES[category]
                   for category, count in cats.items()}
            for role, cats in message_counts.items()}


def total_bytes(message_counts: MessageCounts) -> int:
    return sum(sum(cats.values()) for cats in byte_counts(message_counts).values())


class MetricsSink:
    """Counts messages and runs the simulated clock.

    Every message takes the same per-hop latency, ``latency_ms``.
    """

    def __init__(self, latency_ms: float) -> None:
        self.latency_ms = latency_ms
        # (sender role, category) -> messages sent; bytes follow from WIRE_BYTES
        self.counts: dict[tuple[str, str], int] = {}
        self.clock_ms = 0.0

    def log(self, from_role: str, category: str) -> float:
        """Count one message; the simulated clock advances by the latency.

        Returns the simulated delivery time.
        """
        if category not in WIRE_BYTES:
            raise ValueError(f"unknown message category: {category}")
        self.clock_ms += self.latency_ms
        key = (from_role, category)
        self.counts[key] = self.counts.get(key, 0) + 1
        return self.clock_ms

    # --- aggregations ---

    def message_counts(self) -> MessageCounts:
        """Sender role -> category -> count."""
        out: MessageCounts = {}
        for (role, category), count in self.counts.items():
            out.setdefault(role, {})[category] = count
        return out

    def total_messages(self) -> int:
        return sum(self.counts.values())

    def total_bytes(self) -> int:
        return total_bytes(self.message_counts())


def expected_tree_messages(degree: int, height: int) -> int:
    """Messages relayed through a detection tree of the given shape.

    A tree with fan-out ``degree`` and ``height`` levels below the root
    carries sum(degree**i for i in 1..height) messages.  Fan-out 1 is
    the degenerate linear chain and is special-cased to height + 1 (a
    chain of height + 1 nodes each forwarding once).
    """
    if degree < 1:
        raise ValueError("tree degree must be at least 1")
    if height < 0:
        raise ValueError("tree height must be non-negative")
    if degree == 1:
        return height + 1
    return (degree ** (height + 1) - degree) // (degree - 1)


@dataclass(frozen=True)
class DetectionRecord:
    clone_idx: int
    victim_idx: int
    device_id: int
    case: str      # verdict value that flagged it
    round_no: int
    detection_time_ms: float


@dataclass
class SimulationReport:
    """Everything a finished experiment run reports.

    ``message_counts`` is the run's only record of traffic: the byte
    table and both totals are derived from it, never stored beside it.
    The canonical JSON must be byte-identical across runs of the same
    (config, seed).
    """

    config: dict
    seed: int
    detection_probability: float
    detections: list[DetectionRecord]
    false_positives: int
    verdict_counts: dict[str, int]
    message_counts: MessageCounts
    storage_bytes: dict[str, int]
    verifier_confidence: dict[str, dict[str, float]]  # cohort id -> scores

    @property
    def byte_counts(self) -> MessageCounts:
        return byte_counts(self.message_counts)

    @property
    def total_messages(self) -> int:
        return sum(sum(cats.values()) for cats in self.message_counts.values())

    @property
    def total_bytes(self) -> int:
        return total_bytes(self.message_counts)

    def to_canonical_dict(self) -> dict:
        data = asdict(self)
        for rec in data["detections"]:
            rec["round"] = rec.pop("round_no")
        data.update(byte_counts=self.byte_counts, total_messages=self.total_messages,
                    total_bytes=self.total_bytes, storage_reference=dict(STORAGE_REFERENCE))
        return data

    def to_canonical_json(self) -> str:
        """Deterministic serialization: sorted keys, fixed separators."""
        return json.dumps(self.to_canonical_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"


def complexity_summary(reports: Sequence[SimulationReport],
                       ratio_bound: float = 1.5) -> dict:
    """Judge how total traffic scales with the device count.

    Needs runs at three or more distinct device counts; with fewer the
    verdict is "inconclusive".  Traffic is called linear when the spread
    of messages-per-device across the runs stays within ``ratio_bound``.
    Per-verifier tracked state is compared against sqrt(N).
    """
    by_n: dict[int, list[SimulationReport]] = {}
    for report in reports:
        by_n.setdefault(int(report.config["num_devices"]), []).append(report)
    if len(by_n) < 3:
        return {"verdict": "inconclusive",
                "reason": f"need >= 3 distinct device counts, got {len(by_n)}"}
    per_device = {}
    tracked_over_sqrt = {}
    for n, group in sorted(by_n.items()):
        msgs = sum(r.total_messages for r in group) / len(group)
        per_device[n] = msgs / n
        tracked = max(r.storage_bytes.get("verifier_tracked_provers", 0) for r in group)
        tracked_over_sqrt[n] = tracked / (n ** 0.5)
    ratio = max(per_device.values()) / min(per_device.values())
    return {
        "verdict": "linear" if ratio <= ratio_bound else "superlinear",
        "messages_per_device": per_device,
        "per_device_ratio": ratio,
        "ratio_bound": ratio_bound,
        "tracked_provers_over_sqrt_n": tracked_over_sqrt,
        "tracked_within_sqrt_n": max(tracked_over_sqrt.values()) <= 1.0,
    }


# === File exports ===


def atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_detection_csv(path: str, reports: Sequence[SimulationReport]) -> None:
    rows = []
    for report in reports:
        for rec in report.detections:
            rows.append([report.config["num_devices"], report.config["environment"],
                         report.seed, rec.device_id, rec.clone_idx, rec.case,
                         rec.round_no, f"{rec.detection_time_ms:.3f}"])
    _write_csv(path, ["num_devices", "environment", "seed", "device_id",
                      "clone_idx", "case", "round", "detection_time_ms"], rows)


def write_overhead_csvs(messages_path: str, bytes_path: str,
                        reports: Sequence[SimulationReport]) -> None:
    totals: MessageCounts = {}
    for report in reports:
        for role, cats in report.message_counts.items():
            row = totals.setdefault(role, {})
            for cat, count in cats.items():
                row[cat] = row.get(cat, 0) + count

    def rows(table: MessageCounts) -> list[list]:
        return sorted([role, cat, value] for role, cats in table.items()
                      for cat, value in cats.items())

    _write_csv(messages_path, ["role", "category", "count"], rows(totals))
    _write_csv(bytes_path, ["role", "category", "bytes"], rows(byte_counts(totals)))


def write_storage_csv(path: str, report: SimulationReport) -> None:
    rows = [[name, nbytes] for name, nbytes in sorted(report.storage_bytes.items())]
    _write_csv(path, ["role", "bytes"], rows)


def write_batch_timing_csv(path: str, rows: Sequence[tuple[int, str, int, float]]) -> None:
    """Rows: (batch_size, scheme, rep, seconds)."""
    _write_csv(path, ["batch_size", "scheme", "rep", "seconds"],
               [[size, scheme, rep, f"{seconds:.6f}"] for size, scheme, rep, seconds in rows])

