"""The affine merge stage that shrinks the Straus buckets before the pass.

``ec._merge_buckets`` adds pairs of a bucket's entries in affine, one
shared inversion per level.  Whatever it merges, every bucket must keep
its group sum and the pass must name the same point.  The cases here
reach the branches that random scalars almost never do: an entry twice,
an entry beside its negation, a bucket whose every pair collides, odd
and empty buckets, and a level one pair short of the threshold.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from cloneguard import ec
from cloneguard.ec import G, P, Point, _merge_buckets, _straus, _to_affine, point_add, scalar_mul

POOL = [(q.x, q.y) for q in (scalar_mul(k, G) for k in range(1, 13))]
POOL += [(x, P - y) for x, y in POOL]


def neg(entry):
    return entry[0], P - entry[1]


def bucket_sum(bucket):
    total = None
    for x, y in bucket:
        total = point_add(total, Point(x, y))
    return total


def filler(pairs):
    """``pairs`` buckets of one mergeable pair each: G + 2G, 2G + 3G, ..."""
    return [[POOL[i % 11], POOL[i % 11 + 1]] for i in range(pairs)]


def check(adds):
    """Merge; require the same sum per bucket and the same pass result.  Return the merge."""
    snapshot = [list(bucket) for bucket in adds]
    merged = _merge_buckets(adds)
    assert adds == snapshot  # the caller's buckets are not changed
    assert len(merged) == len(adds)
    assert [bucket_sum(b) for b in merged] == [bucket_sum(b) for b in adds]
    assert _to_affine(_straus(merged)) == _to_affine(_straus(adds))
    assert sum(map(len, merged)) <= sum(map(len, adds))
    return merged


def test_a_level_one_pair_short_of_the_threshold_changes_nothing():
    short = filler(ec._MERGE_PAIRS - 1)
    assert check(short) == short
    # A colliding pair is not a merge, so it does not make up the count.
    a = POOL[4]
    with_collisions = short + [[a, a], [a, neg(a)]]
    assert check(with_collisions) == with_collisions
    # One pair more and the level runs: each two-entry bucket becomes one.
    enough = filler(ec._MERGE_PAIRS)
    assert [len(b) for b in check(enough)] == [1] * ec._MERGE_PAIRS


def test_each_level_inverts_once_and_only_with_enough_pairs(monkeypatch):
    sizes = []

    def counted(values, modulus, _original=ec.batch_inverse):
        sizes.append(len(values))
        return _original(values, modulus)

    # 32 entries in one bucket: levels of 16, 8, 4, 2 and 1 pairs, of
    # which only the first reaches the threshold; the rest carry over.
    adds = [[entry for pair in filler(16) for entry in pair]]
    monkeypatch.setattr(ec, "batch_inverse", counted)
    merged = check(adds)
    assert sizes == [16] and len(merged[0]) == 16


def test_duplicate_entries_and_negations_stay_for_the_pass():
    a, b, c = POOL[2], POOL[5], POOL[7]
    adds = filler(ec._MERGE_PAIRS) + [[a, a], [b, neg(b)], [c, c, a, neg(a), b, b]]
    merged = check(adds)
    # Every pair of the last three buckets collides, so they are left as
    # they are: _straus doubles a + a and takes b - b to infinity.
    assert merged[-3:] == adds[-3:]
    assert bucket_sum(merged[-2]) is None
    assert bucket_sum(merged[-3]) == scalar_mul(2 * 3, G)


def test_a_collision_beside_a_merge_keeps_both_in_order():
    a, b, c = POOL[2], POOL[5], POOL[7]
    merged = check(filler(ec._MERGE_PAIRS) + [[a, a, b, c]])
    assert merged[-1][:2] == [a, a] and len(merged[-1]) == 3
    assert Point(*merged[-1][2]) == point_add(Point(*b), Point(*c))


def test_odd_buckets_carry_their_last_entry_and_empty_buckets_stay_empty():
    a, b, c = POOL[0], POOL[3], POOL[9]
    adds = [[], [a, b, c], []] + filler(ec._MERGE_PAIRS) + [[c], []]
    merged = check(adds)
    assert merged[0] == merged[2] == merged[-1] == []
    assert merged[-2] == [c]
    assert merged[1][-1] == c and len(merged[1]) == 2


def test_levels_repeat_down_to_one_entry_per_bucket():
    # 16 buckets of 4 distinct entries: 32 pairs, then 16, then done.
    adds = [[POOL[(i + j) % 11] for j in (0, 1, 3, 6)] for i in range(16)]
    merged = check(adds)
    assert [len(b) for b in merged] == [1] * 16


def test_nothing_to_merge():
    assert check([]) == []
    assert check([[], [], []]) == [[], [], []]
    assert check([[POOL[1]]]) == [[POOL[1]]]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from(POOL), max_size=12), max_size=8),
       st.sampled_from([1, 2, 3, 16]))
def test_merging_keeps_every_bucket_sum(adds, threshold):
    # Draws from 12 points and their negations, so duplicates, negations
    # and colliding pairs are common; a low threshold makes levels run.
    with mock.patch.object(ec, "_MERGE_PAIRS", threshold):
        merged = check(adds)
    # What comes back has too few mergeable pairs to pay for a level.
    mergeable = sum(x1 != x2 for b in merged for (x1, _), (x2, _) in zip(b[::2], b[1::2]))
    assert mergeable < threshold
