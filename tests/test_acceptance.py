"""Acceptance gate: the eight headline claims, one test per claim.

Each test prints a single PASS/FAIL line (outside pytest's capture) so the
run log reads as a checklist.  Tolerances are stated inline; wall-clock
budgets are asserted with generous margin over measured behavior.
"""

import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from cloneguard.context import ContextInformation, sense_context
from cloneguard.ec import (G, N, P, DomainParams, P256, scalar_mul, point_add,
                           validate_curve_security)
from cloneguard.metrics import (DEVICE_STORAGE_BYTES, QUOTED_DEVICE_BUDGET_BYTES,
                                complexity_summary, expected_tree_messages)
from cloneguard.sig import (StarSignature, batch_verify, generate_keypair,
                            point_to_bytes, private_to_bytes, sign, verify_classic,
                            verify_each, verify_star)
from cloneguard.sim import NetworkConfig, run_experiment
from cloneguard.trust import (ConfidenceRecord, LocationObservation, FeedbackEntry,
                              TrustState, explicit_confidence, implicit_confidence,
                              select_verifiers, total_confidence)

TOL = 1e-12


@contextmanager
def criterion(capsys, number, detail):
    """Print one PASS/FAIL line per acceptance criterion."""
    try:
        yield detail
    except BaseException:
        with capsys.disabled():
            print(f"\nFAIL criterion {number}: {detail.get('text', '')}")
        raise
    else:
        with capsys.disabled():
            print(f"\nPASS criterion {number}: {detail['text']}")


def test_criterion_1_detection_probability(capsys):
    # Sparse (N=100, 20 clones) and dense (N=500, 50 clones), 30 seeds
    # each: every injected clone is flagged (probability exactly 1.0) and
    # no honest device ever is.
    detail = {}
    with criterion(capsys, 1, detail):
        start = time.perf_counter()
        runs = 0
        for env, devices, clones in (("sparse", 100, 20), ("dense", 500, 50)):
            for seed in range(1, 31):
                cfg = NetworkConfig(num_devices=devices, environment=env,
                                    num_clones=clones, seed=seed,
                                    rounds=1).resolve()
                report = run_experiment(cfg)
                assert report.detection_probability == 1.0, (env, seed)
                assert report.false_positives == 0, (env, seed)
                assert len(report.detections) == clones, (env, seed)
                runs += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"
        detail["text"] = (f"detection probability 1.0, 0 false positives over "
                          f"{runs} runs (30 sparse + 30 dense seeds) in "
                          f"{elapsed:.1f}s")


def _signed_pool(rng, size):
    items = []
    for _ in range(size):
        keypair = generate_keypair(rng)
        message = rng.randbytes(32)
        sig = sign(message, keypair.private, rng)
        items.append((message, sig, keypair.public))
    return items


def test_criterion_2_batch_speedup(capsys):
    # For every batch size in {5,10,15,20,25} the aggregated check beats
    # the per-signature loop, and at size 25 the median speedup over 5
    # repetitions is at least 1.2x.
    detail = {}
    with criterion(capsys, 2, detail):
        start = time.perf_counter()
        rng = random.Random(2001)
        pool = _signed_pool(rng, 25)
        # warmup (builds the fixed-base table, primes caches)
        batch_verify(pool, random.Random(0))
        for message, sig, public in pool[:2]:
            verify_star(message, sig, public)
        speedups = {}
        for size in (5, 10, 15, 20, 25):
            items = pool[:size]
            batch_times, individual_times = [], []
            for rep in range(5):
                t0 = time.perf_counter()
                ok = batch_verify(items, random.Random(rep))
                batch_times.append(time.perf_counter() - t0)
                assert ok
                t0 = time.perf_counter()
                ok_all = all(verify_star(m, s, q) for m, s, q in items)
                individual_times.append(time.perf_counter() - t0)
                assert ok_all
            batch_med = statistics.median(batch_times)
            individual_med = statistics.median(individual_times)
            assert batch_med < individual_med, (
                f"size {size}: batch {batch_med*1e3:.2f}ms not faster than "
                f"individual {individual_med*1e3:.2f}ms")
            speedups[size] = individual_med / batch_med
        assert speedups[25] >= 1.2, f"size-25 speedup {speedups[25]:.2f}x < 1.2x"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        detail["text"] = ("batch beats individual at every size in {5..25}; "
                          f"size-25 median speedup {speedups[25]:.2f}x >= 1.2x")


def _corrupt(item):
    message, sig, public = item
    bad_s = sig.s + 1 if sig.s + 1 < N else sig.s - 1
    return (message, StarSignature(R=sig.R, s=bad_s), public)


def test_criterion_3_batch_soundness_and_equivalence(capsys):
    # Across >= 200 randomized batches the aggregate check agrees with the
    # per-signature conjunction exactly on all-valid batches, and across
    # 1000 single-corruption trials with 64-bit randomizers at least
    # 999 are rejected.
    detail = {}
    with criterion(capsys, 3, detail):
        start = time.perf_counter()
        rng = random.Random(3001)
        pool = _signed_pool(rng, 25)
        sizes = (1, 5, 10, 15, 20, 25)

        valid_batches = 0
        corruption_trials = 0
        corruption_rejections = 0
        for trial in range(200):
            size = sizes[trial % len(sizes)]
            items = rng.sample(pool, size)
            if trial % 2 == 0:
                assert batch_verify(items, rng) is True, f"trial {trial}"
                assert all(verify_star(m, s, q) for m, s, q in items)
                valid_batches += 1
            else:
                index = rng.randrange(size)
                items = list(items)
                items[index] = _corrupt(items[index])
                if not batch_verify(items, rng):
                    corruption_rejections += 1
                corruption_trials += 1
                # the fallback pinpoints exactly the corrupted item
                flags = verify_each(items)
                assert flags.count(False) == 1 and not flags[index]

        while corruption_trials < 1000:
            size = sizes[corruption_trials % len(sizes)]
            items = rng.sample(pool, size)
            index = rng.randrange(size)
            items = list(items)
            items[index] = _corrupt(items[index])
            if not batch_verify(items, rng):
                corruption_rejections += 1
            corruption_trials += 1

        assert valid_batches >= 100
        assert corruption_rejections >= 999, (
            f"only {corruption_rejections}/1000 corrupted batches rejected")
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        detail["text"] = (f"{valid_batches} all-valid batches agree exactly; "
                          f"{corruption_rejections}/1000 single-corruption "
                          f"trials rejected")


def test_criterion_4_storage_layout(capsys):
    # Serialized context record is exactly 16 bytes; the per-device record
    # (context + private key + compressed public key) is exactly 81 bytes;
    # reports flag the divergence from the quoted 73-byte budget.
    detail = {}
    with criterion(capsys, 4, detail):
        rng = random.Random(4001)
        ci = sense_context(7, 12, (100.25, 50.5), "sensing")
        raw = ci.to_bytes()
        assert len(raw) == 16
        assert ContextInformation.from_bytes(raw) == ci
        keypair = generate_keypair(rng)
        record = raw + private_to_bytes(keypair.private) + point_to_bytes(keypair.public)
        assert len(record) == 81
        assert DEVICE_STORAGE_BYTES == 81
        assert QUOTED_DEVICE_BUDGET_BYTES == 73

        report = run_experiment(NetworkConfig(seed=4, rounds=1).resolve())
        assert report.storage_bytes["device_each"] == 81
        ref = json.loads(report.to_canonical_json())["storage_reference"]
        assert ref == {"per_device_bytes": 81, "quoted_budget_bytes": 73,
                       "matches_quoted_budget": False}
        detail["text"] = ("context record 16 B, device record 81 B (bit-exact); "
                          "report flags 81 != 73 quoted budget")


def test_criterion_5_communication_linearity(capsys):
    # Total traffic grows linearly in the device count: messages(N)/N over
    # N in {100..500} stays within a 1.5x band; the closed-form tree
    # message count matches a brute-force loop on the full grid.
    detail = {}
    with criterion(capsys, 5, detail):
        start = time.perf_counter()
        reports = []
        for devices in (100, 200, 300, 400, 500):
            cfg = NetworkConfig(num_devices=devices, environment="sparse",
                                num_clones=20, seed=5, rounds=1).resolve()
            reports.append(run_experiment(cfg))
        per_device = {r.config["num_devices"]: r.total_messages / r.config["num_devices"]
                      for r in reports}
        ratio = max(per_device.values()) / min(per_device.values())
        assert ratio <= 1.5, f"messages/N ratio {ratio:.3f} exceeds 1.5"
        summary = complexity_summary(reports)
        assert summary["verdict"] == "linear"
        assert summary["tracked_within_sqrt_n"] is True
        assert all(r.storage_bytes["device_each"] == 81 for r in reports)

        for degree in range(2, 11):
            for height in range(0, 11):
                loop_total = 0
                width = 1
                for _ in range(height):
                    width *= degree
                    loop_total += width
                assert expected_tree_messages(degree, height) == loop_total
        assert expected_tree_messages(2, 3) == 14
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0
        detail["text"] = (f"messages/N ratio {ratio:.3f} <= 1.5 across "
                          f"N in {{100..500}}; tree formula exact on the "
                          f"9x11 grid in {elapsed:.1f}s")


def test_criterion_6_crypto_correctness(capsys):
    # 1000 sign/verify round-trips accept in both forms; every single-bit
    # mutation of a message is rejected; scalar_mul agrees with repeated
    # addition for k <= 1000; the curve self-checks pass on the real curve
    # and fail on two constructed violations.
    detail = {}
    with criterion(capsys, 6, detail):
        start = time.perf_counter()
        rng = random.Random(6001)
        keypair = generate_keypair(rng)
        for trial in range(1000):
            message = rng.randbytes(rng.randrange(1, 64))
            sig = sign(message, keypair.private, rng)
            assert verify_star(message, sig, keypair.public), trial
            assert verify_classic(message, sig.to_classic(), keypair.public), trial

        message = b"8bytemsg"
        sig = sign(message, keypair.private, rng)
        rejections = 0
        for bit in range(len(message) * 8):
            mutated = bytearray(message)
            mutated[bit // 8] ^= 1 << (bit % 8)
            if not verify_star(bytes(mutated), sig, keypair.public):
                rejections += 1
        assert rejections == len(message) * 8

        accumulator = None
        for k in range(1, 1001):
            accumulator = point_add(accumulator, G)
            assert scalar_mul(k, G) == accumulator, k

        assert all(check.passed for check in validate_curve_security(P256))
        anomalous = DomainParams(p=P256.p, a=P256.a, b=P256.b, gx=P256.gx,
                                 gy=P256.gy, n=P, h=1)
        assert not all(c.passed for c in validate_curve_security(anomalous))
        low_embedding = DomainParams(p=P256.p, a=P256.a, b=P256.b, gx=P256.gx,
                                     gy=P256.gy, n=P - 1, h=1)
        assert not all(c.passed for c in validate_curve_security(low_embedding))
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        detail["text"] = (f"1000/1000 round-trips accepted (both forms), 64/64 "
                          f"bit-flips rejected, scalar ladder exact to k=1000, "
                          f"curve checks discriminate in {elapsed:.1f}s")


def test_criterion_7_determinism(capsys, tmp_path):
    # Two consecutive command-line runs of the sparse default config with
    # the same seed produce byte-identical JSON reports.
    detail = {}
    with criterion(capsys, 7, detail):
        outputs = []
        # The CLI child imports cloneguard from wherever this process found it.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        for name in ("first", "second"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "cloneguard.cli", "run",
                 "--seed", "7", "--out", str(out)],
                capture_output=True, text=True, timeout=300, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "report_rep0.json").read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 0
        detail["text"] = (f"two CLI runs of the sparse default (seed 7) produced "
                          f"byte-identical {len(outputs[0])}-byte reports")


def test_criterion_8_trust_model(capsys):
    # The confidence formulas match hand-computed rational oracles to
    # 1e-12 on three fixtures; selection returns exactly 30 verifiers at
    # the default scale; 50 rounds of updates never leave [0, 1].
    detail = {}
    with criterion(capsys, 8, detail):
        # fixture 1: implicit confidence over two locations
        implicit_obs = [
            LocationObservation("home", previous=0.8, recent=0.6,
                                weight_simple=0.7, weight_trusted=0.9),
            LocationObservation("depot", previous=0.4, recent=0.9,
                                weight_simple=0.3, weight_trusted=0.5),
        ]
        expected_ic = Fraction(359, 520)
        assert abs(implicit_confidence(implicit_obs) - expected_ic) < TOL

        # fixture 2: explicit confidence from weighted feedback
        feedback = [
            FeedbackEntry(rater=1, subject=9, score=1.0, level_weight=0.5),
            FeedbackEntry(rater=2, subject=9, score=0.5, level_weight=0.3),
            FeedbackEntry(rater=3, subject=9, score=0.8, level_weight=0.2),
        ]
        expected_ec = Fraction(621, 1000)
        assert abs(explicit_confidence(feedback) - expected_ec) < TOL

        # fixture 3: the combined score chains both through the weighted sum
        expected_total = Fraction(2131, 3250)
        total = total_confidence(float(expected_ic), float(expected_ec),
                                 alpha=0.5, beta=0.5)
        assert abs(total - expected_total) < TOL

        records = [ConfidenceRecord(device_id=device_id, implicit=0.5,
                                    explicit=0.5, total=0.5)
                   for device_id in range(100)]
        chosen = select_verifiers(records, 30)
        assert chosen == list(range(30))
        assert len(chosen) == 30

        state = TrustState(list(range(20)))
        rng = random.Random(8001)
        for _ in range(50):
            for rater in range(20):
                subject = rng.randrange(20)
                if subject != rater:
                    state.record_interaction(rater, subject, "zone",
                                             rng.uniform(0.0, 1.2))
                    state.record_feedback(rater, subject, rng.uniform(0.0, 1.0))
            for record in state.snapshot().values():
                assert 0.0 <= record.implicit <= 1.0
                assert 0.0 <= record.explicit <= 1.0
                assert 0.0 <= record.total <= 1.0
        detail["text"] = ("confidence oracles match to 1e-12 on 3 fixtures; "
                          "selection returns exactly 30 of 100; 50 update "
                          "rounds stay inside [0, 1]")
