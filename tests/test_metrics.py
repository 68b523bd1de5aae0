"""Message accounting, storage budgets, report serialization, CSV output."""

import csv
import json

import pytest

from cloneguard.metrics import (DEVICE_STORAGE_BYTES, QUOTED_DEVICE_BUDGET_BYTES,
                                WIRE_BYTES, DetectionRecord, MetricsSink,
                                SimulationReport, atomic_write_text,
                                complexity_summary, expected_tree_messages,
                                write_detection_csv, write_overhead_csvs)


def test_wire_sizes_are_pinned():
    assert WIRE_BYTES == {
        "register": 35,
        "sense": 16,
        "store": 16,
        "ack": 3,
        "proof_request": 4,
        "proof_response": 99,
        "ci_check": 2,
        "verify_confirm": 3,
        "compromise_report": 3,
    }


def test_device_storage_budget():
    # 16 (context record) + 32 (private key) + 33 (compressed public key)
    assert DEVICE_STORAGE_BYTES == 81
    assert QUOTED_DEVICE_BUDGET_BYTES == 73
    assert DEVICE_STORAGE_BYTES != QUOTED_DEVICE_BUDGET_BYTES


def test_sink_clock_advances_per_message():
    sink = MetricsSink(1.5)
    t1 = sink.log("prover", "proof_response")
    t2 = sink.log("verifier", "ci_check")
    assert t1 == 1.5
    assert t2 == 3.0
    assert sink.clock_ms == 3.0
    assert sink.byte_counts() == {"prover": {"proof_response": 99},
                                  "verifier": {"ci_check": 2}}
    assert sink.total_messages() == 2
    assert sink.total_bytes() == 101


def test_sink_rejects_unknown_category():
    sink = MetricsSink(1.0)
    with pytest.raises(ValueError):
        sink.log("prover", "gossip")
    assert sink.clock_ms == 0.0
    assert sink.total_messages() == 0


def test_sink_count_tables():
    sink = MetricsSink(1.0)
    for _ in range(3):
        sink.log("prover", "proof_response")
    sink.log("verifier", "ci_check")
    assert sink.message_counts() == {"prover": {"proof_response": 3},
                                     "verifier": {"ci_check": 1}}
    assert sink.byte_counts() == {"prover": {"proof_response": 297},
                                  "verifier": {"ci_check": 2}}


# --- verification-tree message count ---


def _tree_oracle(degree, height):
    # messages down one level = branching at that level, summed level by level
    total = 0
    width = 1
    for _ in range(height):
        width *= degree
        total += width
    return total


@pytest.mark.parametrize("degree,height,expected", [
    (2, 3, 14),
    (2, 1, 2),
    (3, 2, 12),
    (5, 3, 155),
    (2, 0, 0),
])
def test_tree_messages_known_values(degree, height, expected):
    assert expected_tree_messages(degree, height) == expected
    assert _tree_oracle(degree, height) == expected


def test_tree_messages_closed_form_matches_loop():
    for degree in range(2, 8):
        for height in range(0, 9):
            assert expected_tree_messages(degree, height) == _tree_oracle(degree,
                                                                          height)


def test_tree_messages_degenerate_chain():
    # degree 1 is a relay chain: one message per hop plus the final report
    assert expected_tree_messages(1, 0) == 1
    assert expected_tree_messages(1, 5) == 6


def test_tree_messages_rejects_bad_shapes():
    with pytest.raises(ValueError):
        expected_tree_messages(0, 3)
    with pytest.raises(ValueError):
        expected_tree_messages(2, -1)


# --- report serialization ---


def _tiny_report(num_devices=100, total_messages=1000, seed=1, tracked=3):
    return SimulationReport(
        config={"num_devices": num_devices, "environment": "sparse", "seed": seed},
        seed=seed,
        detection_probability=1.0,
        detections=[DetectionRecord(clone_idx=31, victim_idx=64, device_id=64,
                                    case="context_mismatch", round_no=1,
                                    detection_time_ms=15.0)],
        false_positives=0,
        verdict_counts={"confirmed": 69, "compromised_context": 1},
        message_counts={"prover": {"proof_response": 70}},
        byte_counts={"prover": {"proof_response": 6930}},
        total_messages=total_messages,
        total_bytes=6930,
        storage_bytes={"device_bytes": 81, "verifier_tracked_provers": tracked},
        verifier_confidence={},
    )


def test_report_canonical_json_is_stable():
    report = _tiny_report()
    text = report.to_canonical_json()
    assert text == report.to_canonical_json()
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["storage_reference"]["per_device_bytes"] == 81
    assert data["storage_reference"]["quoted_budget_bytes"] == 73
    assert data["storage_reference"]["matches_quoted_budget"] is False
    # key order is canonical: serializing the parsed dict sorted again is a no-op
    assert json.dumps(data, sort_keys=True,
                      separators=(",", ":")) + "\n" == text


def test_report_detection_entries_serialize():
    data = json.loads(_tiny_report().to_canonical_json())
    [entry] = data["detections"]
    assert entry["case"] == "context_mismatch"
    assert entry["detection_time_ms"] == 15.0


# --- complexity judgment ---


def test_complexity_needs_three_sizes():
    reports = [_tiny_report(100), _tiny_report(200)]
    assert complexity_summary(reports)["verdict"] == "inconclusive"


def test_complexity_flags_linear_traffic():
    # per-device load held flat at 10 messages/device
    reports = [_tiny_report(n, total_messages=10 * n, tracked=3)
               for n in (100, 200, 300, 400, 500)]
    summary = complexity_summary(reports)
    assert summary["verdict"] == "linear"
    assert summary["per_device_ratio"] == pytest.approx(1.0)
    assert summary["tracked_within_sqrt_n"] is True


def test_complexity_flags_superlinear_traffic():
    # quadratic traffic: per-device load grows 5x from N=100 to N=500
    reports = [_tiny_report(n, total_messages=n * n // 10)
               for n in (100, 300, 500)]
    summary = complexity_summary(reports)
    assert summary["verdict"] == "superlinear"
    assert summary["per_device_ratio"] == pytest.approx(5.0)


def test_complexity_tracked_state_compared_to_sqrt_n():
    # 11 tracked provers at N=100 exceeds sqrt(100) = 10
    reports = [_tiny_report(n, total_messages=10 * n, tracked=11)
               for n in (100, 300, 500)]
    assert complexity_summary(reports)["tracked_within_sqrt_n"] is False


def test_complexity_averages_repeats_per_size():
    reports = [_tiny_report(100, total_messages=900),
               _tiny_report(100, total_messages=1100),
               _tiny_report(300, total_messages=3000),
               _tiny_report(500, total_messages=5000)]
    summary = complexity_summary(reports)
    assert summary["messages_per_device"][100] == pytest.approx(10.0)
    assert summary["verdict"] == "linear"


# --- file outputs ---


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_text(str(target), "hello\n")
    atomic_write_text(str(target), "world\n")
    assert target.read_text() == "world\n"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
    assert leftovers == []


def test_detection_csv_one_row_per_event(tmp_path):
    path = tmp_path / "detection.csv"
    write_detection_csv(str(path), [_tiny_report(seed=1), _tiny_report(seed=2)])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # one detection in each report
    assert [r["seed"] for r in rows] == ["1", "2"]
    assert rows[0]["case"] == "context_mismatch"
    assert rows[0]["detection_time_ms"] == "15.000"
    assert rows[0]["environment"] == "sparse"


def test_overhead_csvs(tmp_path):
    msg_path = tmp_path / "overhead_messages.csv"
    byte_path = tmp_path / "overhead_bytes.csv"
    write_overhead_csvs(str(msg_path), str(byte_path), [_tiny_report()] * 2)
    with open(msg_path, newline="") as fh:
        msg_rows = list(csv.DictReader(fh))
    with open(byte_path, newline="") as fh:
        byte_rows = list(csv.DictReader(fh))
    [msg_row] = [r for r in msg_rows if r["category"] == "proof_response"]
    assert msg_row["role"] == "prover"
    assert int(msg_row["count"]) == 140  # two identical reports aggregated
    [byte_row] = [r for r in byte_rows if r["category"] == "proof_response"]
    assert int(byte_row["bytes"]) == 2 * 6930
