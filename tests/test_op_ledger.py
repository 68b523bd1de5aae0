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
    "sparse_seed1_round1": {"mixed_additions": 5624, "doublings": 7621,
                            "batch_inverse": 300, "to_affine": 90, "affine_additions": 936},
    "sparse_seed1_round2": {"mixed_additions": 5630, "doublings": 7624,
                            "batch_inverse": 120, "to_affine": 90, "affine_additions": 923},
    "dense_seed1_round2": {"mixed_additions": 17784, "doublings": 7675,
                           "batch_inverse": 180, "to_affine": 400, "affine_additions": 10233},
    "proof_batch_clean": {"mixed_additions": 249, "doublings": 256,
                          "batch_inverse": 7, "to_affine": 0, "affine_additions": 920},
    "proof_batch_forged": {"mixed_additions": 828, "doublings": 1023,
                           "batch_inverse": 21, "to_affine": 4, "affine_additions": 2754},
    "keygen_100": {"mixed_additions": 2794, "doublings": 0,
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
