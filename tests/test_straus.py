"""The Straus kernel against the fold of the two formulas it writes out.

``ec._straus`` runs the pass over its buckets in one loop on local ints.
The MSM tests reach its common path; these build buckets by hand for the
branches that random scalars never reach, and require the exact Jacobian
triple that folding ``_jdbl`` and ``_jadd_affine`` over the same buckets
gives.  ``multi_scalar_mul`` puts the generator's fixed-base entries at
the end of bucket 0, and a test here requires that this equals adding
them one by one onto the sum of the other buckets.
"""

import random

from cloneguard import ec
from cloneguard.ec import (G, N, P, _fixed_base_mul, _jadd_affine, _jdbl, _straus, _to_affine,
                           scalar_mul)


def fold(adds):
    acc = None
    for bucket in reversed(adds):
        acc = _jdbl(acc)
        for x, y in bucket:
            acc = _jadd_affine(acc, x, y)
    return acc


def affine(k):
    point = scalar_mul(k, G)
    return point.x, point.y


def neg(entry):
    return entry[0], P - entry[1]


def check(adds, expected_multiple):
    """The kernel equals the fold, triple for triple, and names the expected multiple of G."""
    result = _straus(adds)
    assert result == fold(adds)
    assert _to_affine(result) == scalar_mul(expected_multiple % N, G)
    return result


def test_an_entry_equal_to_the_sum_doubles_it(monkeypatch):
    # An entry equal to the running sum (h = 0, r = 0) doubles the sum
    # through _jdbl, once per such entry.
    doubled = []

    def counted(pt, _original=ec._jdbl):
        doubled.append(pt)
        return _original(pt)

    p5, p14, p3, p7 = affine(5), affine(14), affine(3), affine(7)
    monkeypatch.setattr(ec, "_jdbl", counted)
    _straus([[p5, p5]])
    assert len(doubled) == 1
    # 7G doubled by the pass is 14G with Z != 1, and the entry 14G matches it.
    _straus([[p14, p3], [p7]])
    assert len(doubled) == 2
    monkeypatch.undo()
    check([[p5, p5]], 10)
    check([[p14, p3], [p7]], 31)


def test_a_sum_that_reaches_infinity_mid_bucket_resumes():
    p5, p9 = affine(5), affine(9)
    # 5G - 5G is infinity (h = 0, r != 0); the next entry loads afresh.
    assert check([[p5, neg(p5), p9]], 9) is not None
    # Infinity at the top position: no doubling runs until 9G loads one
    # position down, and the position below doubles it.
    check([[affine(4)], [p9], [p5, neg(p5)]], 2 * 9 + 4)
    # A sum that ends infinite stays infinite through empty positions.
    assert _straus([[], [], [p5, neg(p5)]]) is None and fold([[], [], [p5, neg(p5)]]) is None


def test_empty_top_buckets_add_no_doubling():
    p7 = affine(7)
    check([[p7], [], [], []], 7)
    check([[affine(1)], [p7], [], []], 2 * 7 + 1)


def test_all_empty_buckets_are_infinity():
    assert _straus([]) is None and fold([]) is None
    assert _straus([[], [], []]) is None and fold([[], [], []]) is None


def test_kernel_matches_the_fold_on_random_buckets():
    rng = random.Random(41)
    for _ in range(20):
        ks = [[rng.randrange(1, N) for _ in range(rng.randrange(4))]
              for _ in range(rng.randrange(1, 9))]
        adds = [[affine(k) for k in bucket] for bucket in ks]
        total = sum(sum(bucket) << i for i, bucket in enumerate(ks))
        if total % N:
            check(adds, total)
        else:
            assert _straus(adds) is None and fold(adds) is None


def test_entries_appended_to_bucket_zero_add_onto_the_sum():
    # Bucket 0 is summed after the last doubling, so entries E appended
    # to it give the triple that folding _jadd_affine over E onto the
    # pass's sum gives: how the generator's fixed-base entries join the
    # pass in multi_scalar_mul.
    def appended(adds, entries):
        return [adds[0] + entries] + adds[1:]

    def added_onto(acc, entries):
        for x, y in entries:
            acc = _jadd_affine(acc, x, y)
        return acc

    rng = random.Random(43)
    p5, p9 = affine(5), affine(9)
    cases = [
        ([[]], _fixed_base_mul(12345)),               # G alone: a single bucket
        ([[], [], []], _fixed_base_mul(N - 1)),       # all empty: infinity when E starts
        ([[p5, neg(p5)], [p9, neg(p9)]], [p5, p9]),   # cancelled to infinity when E starts
        ([[p5]], [p5, p9]),                           # E's first entry equals the sum
        ([[p9], [p5]], [neg(affine(19)), p5]),        # E brings the sum to infinity, then resumes
    ]
    for _ in range(10):
        ks = [[rng.randrange(1, N) for _ in range(rng.randrange(4))]
              for _ in range(rng.randrange(1, 9))]
        cases.append(([[affine(k) for k in bucket] for bucket in ks],
                      _fixed_base_mul(rng.randrange(N))))
    for adds, entries in cases:
        result = _straus(appended(adds, entries))
        assert result == added_onto(_straus(adds), entries)
        assert result == fold(appended(adds, entries))
