"""The operation ledger: exact group-operation counts of fixed scenarios, pinned.

``scripts/op_ledger.py`` counts mixed additions, doublings,
``batch_inverse`` calls, conversions of a finite point to affine and
the affine additions that merge bucket entries by wrapping ``ec``
functions from outside.  The counts are exact, so a
change that moves one fails here; such a change updates ``LEDGER`` and
says why.
"""

import importlib.util
from pathlib import Path

from cloneguard import ec

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "op_ledger.py"

LEDGER = {
    "sparse_seed1_round1": {"mixed_additions": 5758, "doublings": 4799,
                            "batch_inverse": 130, "to_affine": 90, "affine_additions": 1814},
    "sparse_seed1_round2": {"mixed_additions": 5716, "doublings": 4813,
                            "batch_inverse": 130, "to_affine": 90, "affine_additions": 1807},
    "dense_seed1_round1": {"mixed_additions": 14130, "doublings": 48640,
                           "batch_inverse": 362, "to_affine": 400, "affine_additions": 14328},
    "dense_seed1_round2": {"mixed_additions": 14108, "doublings": 3840,
                           "batch_inverse": 181, "to_affine": 400, "affine_additions": 14383},
    "dense_seed1_round1_small_checks": {"mixed_additions": 22529, "doublings": 14441,
                                        "batch_inverse": 450, "to_affine": 400,
                                        "affine_additions": 12472},
    "proof_batch_clean": {"mixed_additions": 139, "doublings": 128,
                          "batch_inverse": 7, "to_affine": 0, "affine_additions": 1148},
    "proof_batch_forged": {"mixed_additions": 356, "doublings": 385,
                           "batch_inverse": 14, "to_affine": 3, "affine_additions": 2298},
    "proof_batch_small": {"mixed_additions": 116, "doublings": 160,
                          "batch_inverse": 5, "to_affine": 0, "affine_additions": 101},
    "proof_batch_small_registered": {"mixed_additions": 116, "doublings": 160,
                                     "batch_inverse": 5, "to_affine": 0,
                                     "affine_additions": 101},
    "verify_star_cached_key": {"mixed_additions": 73, "doublings": 128,
                               "batch_inverse": 3, "to_affine": 0, "affine_additions": 0},
    "keygen_100": {"mixed_additions": 2500, "doublings": 0,
                   "batch_inverse": 0, "to_affine": 100, "affine_additions": 0},
}


def load_script():
    spec = importlib.util.spec_from_file_location("op_ledger", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_operation_ledger_is_pinned():
    originals = {name: getattr(ec, name)
                 for name in ("_jadd_affine", "_jdbl", "batch_inverse", "_to_affine", "_straus",
                              "_merge_buckets")}
    assert load_script().ledger() == LEDGER
    # The wrappers are gone once the counting ends.
    assert {name: getattr(ec, name) for name in originals} == originals


def test_one_verification_runs_a_half_length_chain():
    # verify_star's doubling chain follows scalars below 2^128, and its
    # sum is infinity, which needs no conversion to affine.
    assert LEDGER["verify_star_cached_key"]["doublings"] <= 128
    assert LEDGER["verify_star_cached_key"]["to_affine"] == 0


def test_large_batch_checks_run_a_half_length_chain():
    # A check of more than SCAN_SIZE items on cached keys splits each
    # 256-bit key scalar lambda_i * u2_i mod n at 2^128, on the two halves
    # of the key's table, and its R scalars are 65 bits at most, so its
    # doubling chain is 128 steps, not 256.  A dense round runs about 30
    # such checks; a search's sums run the same chain.
    assert LEDGER["proof_batch_clean"]["doublings"] <= 129
    assert LEDGER["dense_seed1_round2"]["doublings"] <= 4000


def test_small_batch_checks_run_short_chains():
    # A check of at most SCAN_SIZE items weights them by short lattice
    # vectors, so its doubling chain follows scalars of about 161 bits, not
    # the 256-bit lambda_i * u2_i.  A sparse round runs one check per
    # verifier, 30 of them, with 2 or 3 items each; signing makes no
    # doubling.  Such a check runs on the plain registered keys, whether or
    # not the store has cached their tables, so it costs the same on both
    # stores.
    assert LEDGER["proof_batch_small_registered"]["doublings"] <= 170
    assert LEDGER["proof_batch_small"] == LEDGER["proof_batch_small_registered"]
    for round_no in (1, 2):
        assert LEDGER[f"sparse_seed1_round{round_no}"]["doublings"] <= 30 * 170
    # Round 1 of a dense network at batch_size SCAN_SIZE makes 90 such
    # checks, of 3 or 4 items, and builds no key table, which would add
    # 128 doublings a key.
    assert LEDGER["dense_seed1_round1_small_checks"]["doublings"] <= 90 * 170


def test_ledger_counts_only_operations_on_a_finite_accumulator():
    op_ledger = load_script()
    two_g = ec.scalar_mul(2, ec.G)
    with op_ledger.counting() as counts:
        # 33 is 2^5 + 1, two width-4 wNAF digits: 2G loads into the empty
        # sum at position 5, which is no addition, and five doublings and
        # one addition follow.  Its table takes three rounds.
        ec.multi_scalar_mul([(33, two_g)])
    assert counts == {"mixed_additions": 1, "doublings": 5, "batch_inverse": 3, "to_affine": 1,
                      "affine_additions": 0}
    with op_ledger.counting() as counts:
        assert ec.multi_scalar_mul([(ec.N, two_g)]) is None
    assert counts == {"mixed_additions": 0, "doublings": 0, "batch_inverse": 0, "to_affine": 0,
                      "affine_additions": 0}
