#!/usr/bin/env python3
"""Count the group operations of fixed workloads: the operation ledger.

    PYTHONPATH=src python3 scripts/op_ledger.py

Prints one JSON object: for each scenario, the mixed additions,
doublings, ``batch_inverse`` calls, conversions of a finite point to
affine and affine additions that ``cloneguard.ec`` makes.  The
scenarios are sparse seed 1 rounds 1 and 2, dense seed 1 rounds 1 and 2
(round 1 builds the table of every key it verifies), dense seed 1 round 1
at ``batch_size`` ``sig.SCAN_SIZE`` (its checks are small, so it builds
no key table), one clean and one signature-dirty 25-item
``verify_proof_batch`` and one clean 3-item one, the size of a sparse
round's checks, on a store with cached key tables, the same 3-item one on
a store that holds no key table (a check that small verifies on the
registered keys, so the two cost the same), one ``verify_star`` under a
cached key, and key generation for 100 keys.  Network set-up, the
generator table and the proof batches' key tables are built before any
counting starts.

The counts come from outside: the script wraps ``ec._jadd_affine``,
``ec._jdbl``, ``ec.batch_inverse``, ``ec._to_affine``, ``ec._straus``
and ``ec._merge_buckets`` for the time of a scenario, and the package
runs unchanged; a checkout without one of them fails here.  Only
operations on a finite accumulator count, so loading the first point of
a sum is no addition and doubling infinity is no doubling.  The Straus
kernel ``ec._straus`` is the one loop that sums an MSM, the generator's
fixed-base entries included, and does its additions and doublings
inline; so its wrapper counts them by folding ``_jdbl`` and
``_jadd_affine`` over the buckets it is handed, which is the pass the
kernel writes out, and checks that the fold and the kernel agree.
``ec._merge_buckets`` adds pairs of a bucket's entries in affine before
the pass; each merge takes one entry off the buckets, so its wrapper
counts the entries it is handed less the entries it returns as
``affine_additions``, and its levels show as ``batch_inverse`` calls.
``sig`` keeps its own reference to ``batch_inverse`` for its scalar
inversions mod n, which are not group operations and are not counted.

Counts are exact and do not drift with the host, so a change that moves
one shows in ``tests/test_op_ledger.py``, which pins them.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from contextlib import contextmanager

from cloneguard import context, ec, sig, sim

FIELDS = ("mixed_additions", "doublings", "batch_inverse", "to_affine", "affine_additions")
SPARSE = sim.NetworkConfig(seed=1)
DENSE = sim.NetworkConfig(num_devices=500, environment="dense", seed=1)
BATCH = 25
KEYS = 100


@contextmanager
def counting():
    """Wrap the ``ec`` operations; yield the dict of counts they fill."""
    counts = dict.fromkeys(FIELDS, 0)
    originals = {name: getattr(ec, name) for name in
                 ("_jadd_affine", "_jdbl", "batch_inverse", "_to_affine", "_straus",
                  "_merge_buckets")}
    live = True  # off while the kernel runs: its work is counted from its fold

    def jadd_affine(p1, ax, ay):
        if live and p1 is not None:
            counts["mixed_additions"] += 1
        return originals["_jadd_affine"](p1, ax, ay)

    def jdbl(pt):
        if live and pt is not None:
            counts["doublings"] += 1
        return originals["_jdbl"](pt)

    def batch_inverse(values, modulus):
        counts["batch_inverse"] += 1
        return originals["batch_inverse"](values, modulus)

    def to_affine(pt):
        if pt is not None:
            counts["to_affine"] += 1
        return originals["_to_affine"](pt)

    def merge_buckets(adds):
        merged = originals["_merge_buckets"](adds)
        counts["affine_additions"] += sum(map(len, adds)) - sum(map(len, merged))
        return merged

    def straus(adds):
        nonlocal live
        live = False
        try:
            result = originals["_straus"](adds)
        finally:
            live = True
        acc = None
        for bucket in reversed(adds):
            acc = ec._jdbl(acc)
            for x, y in bucket:
                acc = ec._jadd_affine(acc, x, y)
        if acc != result:
            raise AssertionError("ec._straus disagrees with the fold of _jdbl and _jadd_affine")
        return result

    wrappers = {"_jadd_affine": jadd_affine, "_jdbl": jdbl, "batch_inverse": batch_inverse,
                "_to_affine": to_affine, "_straus": straus, "_merge_buckets": merge_buckets}
    for name in originals:
        setattr(ec, name, wrappers[name])
    try:
        yield counts
    finally:
        for name, original in originals.items():
            setattr(ec, name, original)


def _network(config: sim.NetworkConfig) -> sim.SimulationState:
    state = sim.init_network(config)
    sim.inject_clones(state)
    return state


def _advance(state: sim.SimulationState) -> None:
    """One round as ``run_experiment`` drives it: move after round 1, then detect."""
    if state.round_no > 0:
        sim.mobility_step(state)
    sim.run_detection_round(state)


def _proof_batches():
    """Two stores and two 25-item batches: all honest, and one forged among honest.

    Both stores hold the same keys and records; the first has every key's
    table cached, the second none.  The forged item is signed with
    another registered device's key.
    """
    rng = random.Random(17)
    keys = [sig.generate_keypair(rng) for _ in range(BATCH)]
    lbs, registered = context.LbsStore(), context.LbsStore()
    clean = []
    for dev, key in enumerate(keys):
        ci = context.sense_context(dev, 10, (rng.uniform(0, 255), rng.uniform(0, 255)),
                                   sim.ACTIVITIES[dev % len(sim.ACTIVITIES)])
        for store in (lbs, registered):
            store.register_public_key(dev, key.public)
            store.store_context(ci)
        proof = context.generate_proof(ci, key.private, rng, request_pending=True)
        clean.append(context.ProofPresentation(proof, ci))
    lbs.verification_keys(range(BATCH))  # key tables are cached before counting
    dirty = list(clean)
    forged = clean[7]
    dirty[7] = context.ProofPresentation(
        context.LocationProof(prover_id=forged.proof.prover_id,
                              ci_digest=forged.proof.ci_digest,
                              signature=sig.sign(forged.proof.ci_digest, keys[8].private, rng)),
        forged.observed)
    return lbs, registered, clean, dirty


def ledger() -> dict[str, dict[str, int]]:
    """The operation counts of every scenario, in a fixed order."""
    ec.scalar_mul(1, ec.G)  # build the lazy generator table outside any count
    out = {}
    for name, config in (("sparse", SPARSE), ("dense", DENSE)):
        network = _network(config)
        for round_no in (1, 2):
            with counting() as counts:
                _advance(network)
            out[f"{name}_seed1_round{round_no}"] = counts
    network = _network(dataclasses.replace(DENSE, batch_size=sig.SCAN_SIZE))
    with counting() as counts:
        _advance(network)
    out["dense_seed1_round1_small_checks"] = counts

    lbs, registered, clean, dirty = _proof_batches()
    for name, store, batch, expected in (
            ("proof_batch_clean", lbs, clean, 0), ("proof_batch_forged", lbs, dirty, 1),
            ("proof_batch_small", lbs, clean[:3], 0),
            ("proof_batch_small_registered", registered, clean[:3], 0)):
        with counting() as counts:
            verdicts = context.verify_proof_batch(batch, store, random.Random(5))
        flagged = sum(v is context.Verdict.COMPROMISED_SIGNATURE for v in verdicts)
        if flagged != expected:
            raise AssertionError(f"{name}: {flagged} signatures flagged, expected {expected}")
        out[name] = counts

    proof = clean[0].proof
    key = lbs.key_tables[proof.prover_id]
    with counting() as counts:
        if not sig.verify_star(proof.ci_digest, proof.signature, key):
            raise AssertionError("verify_star_cached_key: a valid signature was refused")
    out["verify_star_cached_key"] = counts

    rng = random.Random(3)
    with counting() as counts:
        for _ in range(KEYS):
            sig.generate_keypair(rng)
    out[f"keygen_{KEYS}"] = counts
    return out


def main() -> int:
    print(json.dumps(ledger(), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
