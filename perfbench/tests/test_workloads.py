"""The workloads' inputs and checks."""

import dataclasses
import random

from cloneguard import context
from workloads import (BATCH_KINDS, EXPECTED_VERDICT, SPARSE, Digest, advance, build_network,
                       build_pool, derive, make_batch, round_ok)


def test_proof_mix_labels_match_verdicts_on_a_small_pool():
    pool = build_pool(seed=3)
    rng = random.Random(4)
    for label, presentations in pool.presentations.items():
        verdicts = context.verify_proof_batch(presentations[:3], pool.lbs, rng)
        assert verdicts == [EXPECTED_VERDICT[label]] * 3, label
    for kind in BATCH_KINDS:
        batch, labels = make_batch(pool, kind, rng)
        assert len(batch) == 25
        assert context.verify_proof_batch(batch, pool.lbs, rng) == labels, kind
        assert context.verify_proof_batch(batch, pool.lbs, rng, use_batch=False) == labels


def test_proof_mix_pool_is_a_function_of_the_seed():
    a, b = build_pool(seed=11), build_pool(seed=11)
    for label in a.presentations:
        assert ([p.proof.to_bytes() for p in a.presentations[label]]
                == [p.proof.to_bytes() for p in b.presentations[label]])
    assert build_pool(seed=12).presentations["honest"][0] != a.presentations["honest"][0]


def test_round_check_and_digest_repeat_for_a_seed():
    def one_round(seed):
        state = build_network(dataclasses.replace(SPARSE, seed=derive(seed, "test")))
        result = advance(state)
        digest = Digest(rounds=1)
        digest.add_round(state, result)
        digest.add_totals(state)
        return state, result, digest.hexdigest()

    state, result, first = one_round(5)
    assert round_ok(state, result)
    assert one_round(5)[2] == first
    assert one_round(6)[2] != first
    clone = next(n for n in state.targets() if n.role == "clone")
    result.verdicts[clone.idx] = context.Verdict.CONFIRMED
    assert not round_ok(state, result)
