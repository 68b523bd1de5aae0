"""Curve arithmetic: reference oracles, group laws, known answers."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from cloneguard import ec
from cloneguard.ec import (_GEN_WIDTH, A, B, CALL_WIDTH, G, INFINITY, KEY_SPLIT, KEY_WIDTH, N,
                           P, P256,
                           DomainParams, InvalidPointError, Point, PrecomputedPoint, _gen_table,
                           _odd_multiple_tables, _wnaf, batch_inverse, is_on_curve,
                           multi_scalar_mul, point_add, point_neg, precompute, scalar_mul,
                           validate_curve_security, validate_public_key)
from cloneguard.context import LocationProof
from cloneguard.sig import (SCAN_SIZE, batch_verify, generate_keypair, point_from_bytes, sign,
                            signature_from_bytes)

# Known-answer multiples of the generator, frozen from an independent
# straight-line double-and-add evaluation of the affine formulas.
KNOWN_MULTIPLES = {
    2: Point(0x7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978,
             0x07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1),
    3: Point(0x5ECBE4D1A6330A44C8F7EF951D4BF165E6C6B721EFADA985FB41661BC6E7FD6C,
             0x8734640C4998FF7E374B06CE1A64A2ECD82AB036384FB83D9A79B127A27D5032),
    5: Point(0x51590B7A515140D2D784C85608668FDFEF8C82FD1F5BE52421554A0DC3D033ED,
             0xE0C17DA8904A727D8AE1BF36BF8A79260D012F00D4D80888D1D0BB44FDA16DA4),
    1000: Point(0xB8FA1A4ACBD900B788FF1F8524CCFFF1DD2A3D6C917E4009AF604FBD406DB702,
                0x9A5CC32D14FC837266844527481F7F06CB4FB34733B24CA92E861F72CC7CAE37),
}


# Rows of the generator table, one odd digit each, and so the most
# additions a generator multiple may take.
GEN_ROWS = 26


# --- independent oracle: chord/tangent formulas, binary double-and-add ---

def oracle_add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and (y1 + y2) % P == 0:
        return None
    if (x1, y1) == (x2, y2):
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, P) % P
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (lam * lam - x1 - x2) % P
    return x3, (lam * (x1 - x3) - y1) % P


def oracle_mul(k, point):
    acc = None
    addend = (point.x, point.y)
    while k:
        if k & 1:
            acc = oracle_add(acc, addend)
        addend = oracle_add(addend, addend)
        k >>= 1
    return None if acc is None else Point(*acc)


def random_point(rng):
    return scalar_mul(rng.randrange(1, N), G)


def test_known_generator_multiples():
    for k, expected in KNOWN_MULTIPLES.items():
        assert scalar_mul(k, G) == expected
        assert oracle_mul(k, G) == expected


def test_point_add_identity_and_inverse():
    assert point_add(INFINITY, INFINITY) is INFINITY
    assert point_add(G, INFINITY) == G
    assert point_add(INFINITY, G) == G
    assert point_add(G, point_neg(G)) is INFINITY


def test_point_add_rejects_off_curve():
    # An off-curve point is refused where it is built, so neither
    # point_add nor scalar_mul can be handed one.
    with pytest.raises(InvalidPointError):
        Point(G.x, (G.y + 1) % P)


def _non_residue_x():
    """The least x whose x^3 + ax + b is not a square mod p: no curve point has it."""
    x = 0
    while pow((x * x * x + A * x + B) % P, (P - 1) // 2, P) != P - 1:
        x += 1
    return x


def test_point_constructor_rejects_unreduced():
    with pytest.raises(InvalidPointError):
        Point(P, 0)
    with pytest.raises(InvalidPointError):
        Point(0, -1)
    # Reduced coordinates off the curve are refused too, by every way in.
    with pytest.raises(InvalidPointError):
        Point(G.x, G.y + 1)
    with pytest.raises(InvalidPointError):
        dataclasses.replace(G, y=G.y + 1)
    encoded = b"\x02" + _non_residue_x().to_bytes(32, "big")
    with pytest.raises(InvalidPointError):
        point_from_bytes(encoded)
    s = sign(b"m", 7, random.Random(1)).s.to_bytes(32, "big")
    with pytest.raises(InvalidPointError):
        signature_from_bytes(encoded + s)
    with pytest.raises(InvalidPointError):
        LocationProof.from_bytes(b"\x00\x01" + bytes(32) + encoded + s)


def test_group_laws_on_random_points():
    # 1000 random pairs/triples: commutativity and associativity.
    rng = random.Random(2024)
    points = [random_point(rng) for _ in range(40)]
    for _ in range(1000):
        a, b, c = rng.choice(points), rng.choice(points), rng.choice(points)
        ab = point_add(a, b)
        assert ab == point_add(b, a)
        assert point_add(ab, c) == point_add(a, point_add(b, c))


def test_doubling_matches_tangent_oracle():
    rng = random.Random(7)
    for _ in range(25):
        pt = random_point(rng)
        doubled = point_add(pt, pt)
        lam = (3 * pt.x * pt.x + A) * pow(2 * pt.y, -1, P) % P
        x3 = (lam * lam - 2 * pt.x) % P
        y3 = (lam * (pt.x - x3) - pt.y) % P
        assert doubled == Point(x3, y3)
        assert is_on_curve(doubled)


def test_scalar_mul_matches_repeated_addition():
    # Every k up to 1000 against a running affine sum.
    acc = None
    for k in range(1, 1001):
        acc = point_add(acc, G)
        assert scalar_mul(k, G) == acc
    # And on a non-generator base point for a shorter range.
    base = KNOWN_MULTIPLES[1000]
    acc = None
    for k in range(1, 101):
        acc = point_add(acc, base)
        assert scalar_mul(k, base) == acc


def test_scalar_mul_edge_scalars():
    assert scalar_mul(0, G) is INFINITY
    assert scalar_mul(1, G) == G
    assert scalar_mul(N, G) is INFINITY
    assert scalar_mul(0, INFINITY) is INFINITY
    assert scalar_mul(5, INFINITY) is INFINITY
    assert scalar_mul(-1, G) == point_neg(G)


def test_scalar_mul_reduces_mod_group_order():
    rng = random.Random(99)
    pt = random_point(rng)
    for k in [N, N + 1, 2 * N - 1] + [rng.randrange(0, 2 * N) for _ in range(10)]:
        assert scalar_mul(k, pt) == scalar_mul(k % N, pt)
        assert scalar_mul(k, G) == scalar_mul(k % N, G)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 70))
def test_scalar_mul_output_on_curve(k):
    assert is_on_curve(scalar_mul(k, G))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=N - 1))
def test_fixed_base_matches_oracle(k):
    assert scalar_mul(k, G) == oracle_mul(k, G)


def fixed_base_edge_scalars():
    """Scalars below N that hit every edge of the generator's odd-digit recoding.

    The recoding makes k odd (k + N when k is even), then takes d = k
    when k < 1024 and (k mod 2048) - 1024 otherwise, carrying (k - d) / 1024.
    """
    return [
        1, 3, 1023,                  # one row: the smallest and largest one-row digits
        2, 1024, 2048, 2 ** 255,     # even: recoded as k + N, every row used
        1025, 2047, 2049,            # two rows: 1 + 1*1024, 1023 + 1*1024, -1023 + 3*1024
        2 ** 250 - 1,                # odd with every bit set below the top row
        (N - 1) // 2,
        N - 2,                       # the largest odd k: no k + N step
        N - 1,                       # recodes 2N - 1, so its last digit, 127, is the largest
    ]


def test_fixed_base_signed_digit_edges():
    cases = fixed_base_edge_scalars()
    assert 2 ** 250 - 1 in cases
    for k in cases:
        assert k < N
        assert scalar_mul(k, G) == oracle_mul(k, G), hex(k)


def test_fixed_base_table_entries():
    # Row w is the width-11 odd-multiple table of 2^(10w) G: odd digit d
    # reads x at d - 1 and y at d.  The rows cover the 257 bits of a
    # recoded scalar, and no row is spare.
    table = _gen_table()
    assert len(table) == GEN_ROWS and all(len(row) == 1024 for row in table)
    assert _GEN_WIDTH * (GEN_ROWS - 1) < 257 <= _GEN_WIDTH * GEN_ROWS
    for w in (0, 1, GEN_ROWS // 2, GEN_ROWS - 2, GEN_ROWS - 1):
        for d in (1, 3, 511, 1023):
            expected = oracle_mul(d << (_GEN_WIDTH * w), G)
            assert table[w][d - 1:d + 1] == (expected.x, expected.y)


def test_gen_table_build_counts(monkeypatch):
    # Counts only: the generator table is 26 width-11 odd-multiple tables,
    # one _odd_multiple_tables call per row (ten rounds, one batch
    # inversion each), on bases ten Jacobian doublings apart, and no
    # Jacobian addition.
    built = _gen_table()
    calls = {"batch_inverse": 0, "_jadd_affine": 0, "_jdbl": 0}
    for name in calls:
        original = getattr(ec, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(ec, name, counting)
    rows = []
    original_tables = ec._odd_multiple_tables

    def one_row_each(points, width):
        rows.append((points, width))
        return original_tables(points, width)

    monkeypatch.setattr(ec, "_odd_multiple_tables", one_row_each)
    monkeypatch.setattr(ec, "_GEN_TABLE", None)
    assert _gen_table() == built
    assert calls == {"batch_inverse": GEN_ROWS * _GEN_WIDTH, "_jadd_affine": 0,
                     "_jdbl": GEN_ROWS * _GEN_WIDTH}
    assert [(len(points), width) for points, width in rows] == [(1, _GEN_WIDTH + 1)] * GEN_ROWS
    assert rows[0][0] == [G] and rows[1][0] == [oracle_mul(1 << _GEN_WIDTH, G)]


def straus_calls(monkeypatch):
    """Wrap ``ec._straus``: the returned list gets the buckets of every call."""
    calls = []

    def recorded(adds, _original=ec._straus):
        calls.append(adds)
        return _original(adds)

    monkeypatch.setattr(ec, "_straus", recorded)
    return calls


def test_fixed_base_addition_count(monkeypatch):
    # One entry, so one mixed addition, per odd signed 10-bit digit: the
    # recoding leaves no zero digit, so a scalar adds once in each row
    # until its carry runs out, at most one per row.  The entries all go
    # into one bucket, so the Straus pass never doubles.
    calls = straus_calls(monkeypatch)
    rng = random.Random(29)
    most = 0
    for k in fixed_base_edge_scalars() + [rng.randrange(1, N) for _ in range(50)]:
        calls.clear()
        scalar_mul(k, G)
        [adds] = calls
        assert len(adds) == 1, hex(k)
        assert len(adds[0]) <= len(_gen_table()), hex(k)
        most = max(most, len(adds[0]))
    assert most == GEN_ROWS


def test_fixed_base_uses_every_row_for_even_and_long_scalars(monkeypatch):
    # An even k is recoded as k + N > 2^255, and an odd k >= 2^250 keeps
    # a carry into the last row, so both take exactly one entry per row.
    calls = straus_calls(monkeypatch)
    rng = random.Random(31)
    even = [2, 4, 1024, 2 ** 255, N - 1] + [2 * rng.randrange(1, N // 2) for _ in range(10)]
    long = [2 ** 250, 2 ** 250 + 1, N - 2] + [rng.randrange(2 ** 250, N) for _ in range(10)]
    for k in even + long:
        calls.clear()
        scalar_mul(k, G)
        [[bucket]] = calls
        assert len(bucket) == GEN_ROWS, hex(k)
    calls.clear()
    scalar_mul(1, G)
    assert calls == [[[(G.x, G.y)]]]


@pytest.mark.parametrize("width", [7, 8, 9, 10, 11])
def test_generator_rows_cover_every_recoded_scalar_at_every_width(monkeypatch, width):
    # The recoding sees odd scalars below 2N < 2^257, so the rows must
    # cover 257 bits.  Rows for 256 bits fall short at width 8 (32 rows),
    # where N - 1 and 2^255 would leave a carry past the last row.
    monkeypatch.setattr(ec, "_GEN_WIDTH", width)
    monkeypatch.setattr(ec, "_GEN_TABLE", None)
    for k in (N - 1, N - 2, 2 ** 255, 2 ** 256 % N, 1, 2):
        assert scalar_mul(k, G) == oracle_mul(k, G), hex(k)


def test_fixed_base_raises_rather_than_drop_a_carry(monkeypatch):
    monkeypatch.setattr(ec, "_GEN_TABLE", _gen_table()[:-1])
    with pytest.raises(ValueError, match="carry past the generator table's last row"):
        scalar_mul(N - 1, G)
    assert scalar_mul(3, G) == KNOWN_MULTIPLES[3]


def test_multiple_index_walks_to_the_least_multiple():
    base = KNOWN_MULTIPLES[5]
    for m in (1, 2, 3, 24, 25):
        assert ec.multiple_index(base, oracle_mul(5 * m, G), 25) == m
    assert ec.multiple_index(base, oracle_mul(5 * 26, G), 25) is None
    assert ec.multiple_index(base, point_neg(base), 25) is None
    assert ec.multiple_index(base, INFINITY, 25) is None
    assert ec.multiple_index(base, base, 0) is None
    with pytest.raises(InvalidPointError):
        ec.multiple_index(INFINITY, base, 25)


def test_multi_scalar_mul_empty_and_trivial():
    assert multi_scalar_mul([]) is INFINITY
    assert multi_scalar_mul([(1, G)]) == G
    assert multi_scalar_mul([(1, G), (1, G)]) == KNOWN_MULTIPLES[2]
    assert multi_scalar_mul([(0, G)]) is INFINITY
    assert multi_scalar_mul([(3, INFINITY)]) is INFINITY


def test_multi_scalar_mul_matches_fold():
    rng = random.Random(13)
    cases = []
    for trial in range(8):
        size = rng.randrange(1, 26)
        cases.append([(rng.randrange(0, N), random_point(rng)) for _ in range(size)])
    k = rng.randrange(1, N)
    q = random_point(rng)
    cases += [
        # G among the terms, G twice, and G terms that cancel.
        [(k, q), (rng.randrange(0, N), G)],
        [(k, G), (rng.randrange(0, N), G), (k, q)],
        [(k, G), (N - k, G)],
        # A point next to its negation, and a repeated point: the
        # accumulator meets the added point's negation or the point itself.
        [(k, q), (k, point_neg(q))],
        [(k, q), (k, q)],
        [(k, q), (k, point_neg(q)), (2 ** 64 - 1, q)],
        # Scalars 0, N - 1 and values >= N.
        [(0, q), (N - 1, q), (N - 1, G)],
        [(N, q), (N + k, q), (2 * N - 1, G), (2 ** 300 + 7, q)],
        # G terms below N each whose sum reaches N or more.
        [(N - 1, G), (1, G)],
        [(N - 1, G), (N - 1, G), (k, q)],
        [(N - 5, G), (2 ** 252 - 1, G), (k, q), (3, G)],
    ]
    # The G digits land one at a time on the Straus accumulator: one
    # doubles it, the last one cancels it.  oracle_mul gives plain Points
    # unequal to G, so these bases take the wNAF path.
    j = rng.randrange(2, N)
    cases += [
        [(1, oracle_mul(2, G)), (2, G)],
        [(1, oracle_mul(3, G)), (N - 3, G)],
        [(k, oracle_mul(j, G)), ((N - k * j) % N, G)],
    ]
    # Precomputed bases bring their own tables: mixed with plain bases
    # and G, the same key twice (and next to its plain self), a
    # precomputed G (it takes the wNAF path, not the fixed-base one), and
    # scalars 0, N - 1 and >= N.
    q2, q3 = random_point(rng), random_point(rng)
    pre_q, pre_q2, pre_g = precompute([q, q2, G])
    cases += [
        [(k, pre_q), (rng.randrange(0, N), q3), (rng.randrange(0, N), G),
         (rng.randrange(0, N), pre_q2)],
        [(k, pre_q), (k, pre_q)],
        [(k, pre_q), (N - k, pre_q), (2 ** 64 - 1, q)],
        [(k, pre_q), (N - k, q)],
        [(k, pre_g), (N - k, G)],
        [(k, pre_g), (k, G), (k, pre_q)],
        [(0, pre_q), (N - 1, pre_q2), (N, pre_q), (N + k, pre_q2), (2 ** 300 + 7, pre_q)],
        [(0, pre_q), (0, pre_g)],
    ]
    # Cached keys, split into two width-6 halves at 2^128, next to
    # width-4 fresh terms on one point, with short scalars (up to 128
    # bits, like a batch randomizer's, on the first half alone) and long
    # ones (129 bits and more, on both), small odd scalars around each
    # width's largest digit (7 at width 4; 33 recodes to -31 at width 6),
    # the same around 2^128, and G.
    short, long = 2 ** 128 - 1, 2 ** 128 + 2 ** 127 + 7
    cases += [
        [(k, pre_q), (short, q3), (long, q3), (rng.randrange(0, N), G)],
        [(rng.randrange(1, 2 ** 128), q3), (rng.randrange(2 ** 128, 2 ** 129), q3),
         (rng.randrange(0, N), pre_q2), (rng.randrange(0, N), G), (k, pre_q)],
        [(7, q3), (15, q3), (31, pre_q), (2 ** 128 - 7, q3), (2 ** 128 + 15, q3)],
        [(33, pre_q), (63, pre_q2), (15, q3), (2 ** 128 + 15, q3)],
        [(31 << 128, pre_q), (33 << 128 | 33, pre_q2), (2 ** 128 + 33, q3)],
        [(short, pre_q), (N - short, q), (long, q2), (N - long, pre_q2)],
    ]
    # Negative scalars on every kind of base: a plain point, a width-4
    # table, a key's table (on both halves, and across the seam), G and
    # infinity; -N and a negative scalar of more than 256 bits; k and -k
    # on one base, whose sum is infinity; and a batch check's shape,
    # -lambda on a width-4 table next to a 256-bit key scalar.
    (pre_r,) = precompute([q3], CALL_WIDTH)
    cases += [
        [(-k, q), (-rng.randrange(1, N), pre_r), (-rng.randrange(1, N), pre_q),
         (-rng.randrange(1, N), G), (-5, INFINITY)],
        [(-N, q), (-N, pre_r), (-N, pre_q), (-N, G)],
        [(-(2 ** 300 + 7), q), (-(2 ** 300 + 7), pre_r), (-(2 ** 300 + 7), pre_q2),
         (-(2 ** 300 + 7), G)],
        [(k, q), (-k, q)],
        [(k, pre_r), (-k, pre_r)],
        [(k, pre_q), (-k, pre_q)],
        [(k, G), (-k, G)],
        [(-1, q), (-7, pre_r), (-9, pre_r), (-33, pre_q), (-(2 ** 128), pre_q2),
         (-(2 ** 128 - 1), pre_q), (-(2 ** 128 + 1), pre_q2)],
        [(-(2 ** 64), pre_r), (rng.randrange(0, N), pre_q), (-(2 ** 64 - 1), q2),
         (rng.randrange(0, N), G)],
    ]
    for pairs in cases:
        folded = None
        for k, pt in pairs:
            if isinstance(pt, PrecomputedPoint):
                pt = pt.point
            if pt is not INFINITY:
                folded = point_add(folded, oracle_mul(k % N, pt))
        assert multi_scalar_mul(pairs) == folded


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2 ** 64),
                          st.integers(min_value=1, max_value=2 ** 32)),
                max_size=5))
def test_multi_scalar_mul_matches_fold_property(cases):
    pairs = [(k, scalar_mul(seed, G)) for k, seed in cases]
    folded = None
    for k, pt in pairs:
        folded = point_add(folded, scalar_mul(k, pt))
    assert multi_scalar_mul(pairs) == folded


def test_odd_multiple_tables_entries():
    # Every width on one point and on several in one call, whose rounds
    # share their inversions across the tables.
    rng = random.Random(31)
    points = [random_point(rng), random_point(rng), G]
    for width in range(2, 8):
        for bases in (points[:1], points):
            for point, table in zip(bases, _odd_multiple_tables(bases, width), strict=True):
                assert len(table) == 2 ** (width - 1)
                for d in range(1, 2 ** (width - 1), 2):
                    expected = oracle_mul(d, point)
                    assert (table[d - 1], table[d]) == (expected.x, expected.y), (width, d)
        assert _odd_multiple_tables([], width) == []


def test_odd_multiple_tables_round_count(monkeypatch):
    # Counts, not timings: a width-w call makes w - 1 affine rounds, one
    # batch inversion each, however many tables it builds, and no
    # Jacobian addition or doubling.  A width-2 table is P alone, so a
    # width-2 call makes no inversion, and neither does an empty call at
    # any width.
    rng = random.Random(47)
    points = [random_point(rng) for _ in range(3)] + [G]
    calls = {"batch_inverse": 0, "_jadd_affine": 0, "_jdbl": 0}
    for name in calls:
        original = getattr(ec, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(ec, name, counting)
    for width in range(2, 11):
        for count in (0, 1, 4):
            for name in calls:
                calls[name] = 0
            _odd_multiple_tables(points[:count], width)
            assert calls == {"batch_inverse": width - 1 if count and width > 2 else 0,
                             "_jadd_affine": 0, "_jdbl": 0}, (width, count)


def test_precompute_holds_the_tables_and_refuses_unusable_points():
    rng = random.Random(37)
    points = [random_point(rng), random_point(rng), G]
    precomputed = precompute(points)
    assert [pre.point for pre in precomputed] == points
    shifted = [oracle_mul(2 ** KEY_SPLIT, point) for point in points]
    assert [pre.table for pre in precomputed] == [
        low + high for low, high in zip(_odd_multiple_tables(points, KEY_WIDTH),
                                        _odd_multiple_tables(shifted, KEY_WIDTH))]
    with pytest.raises(InvalidPointError):
        Point(G.x, (G.y + 1) % P)
    with pytest.raises(InvalidPointError):
        precompute([G, INFINITY])
    with pytest.raises(InvalidPointError):
        PrecomputedPoint(INFINITY, precomputed[0].table)
    with pytest.raises(ValueError):
        PrecomputedPoint(G, precomputed[2].table[:-2])
    # One width-6 half of the right point is too short for a cached key.
    with pytest.raises(ValueError):
        PrecomputedPoint(G, _odd_multiple_tables([G], KEY_WIDTH)[0])


def test_precomputed_point_takes_its_width_from_its_table(monkeypatch):
    rng = random.Random(53)
    points = [random_point(rng), G]
    shifted = [oracle_mul(2 ** KEY_SPLIT, point) for point in points]
    for width in (CALL_WIDTH, KEY_WIDTH):
        tables = _odd_multiple_tables(points, width)
        if width == KEY_WIDTH:
            tables = [low + high for low, high in zip(tables, _odd_multiple_tables(shifted, width))]
        for pre, point, table in zip(precompute(points, width), points, tables, strict=True):
            assert (pre.point, pre.table, pre.width) == (point, table, width)
    # A single table of any width but 4 has the wrong length; a width-7
    # one has a key table's 64 ints, but precompute builds no width-7 table.
    for width in (2, 3, 5, 6, 8):
        with pytest.raises(ValueError):
            PrecomputedPoint(G, _odd_multiple_tables([G], width)[0])
    for width in (2, 3, 5, 7, 8):
        with pytest.raises(ValueError):
            precompute([G], width)
    # A width-4 base is read at width 4 with no table built, and sums like
    # the plain point, which gets the same table inside the call.
    q = random_point(rng)
    (pre_q,) = precompute([q], CALL_WIDTH)
    built = []

    def counting(points, width, _original=ec._odd_multiple_tables):
        built.append(len(points))
        return _original(points, width)

    monkeypatch.setattr(ec, "_odd_multiple_tables", counting)
    for k in (1, 7, 2 ** 64 + 5, N - 1):
        assert multi_scalar_mul([(k, pre_q), (k, G)]) == multi_scalar_mul([(k, q), (k, G)])
    assert built == [1] * 4


def test_precomputed_point_refuses_another_points_table():
    rng = random.Random(41)
    q, other = precompute([random_point(rng), random_point(rng)])
    with pytest.raises(ValueError, match="own point"):
        PrecomputedPoint(q.point, other.table)
    # The negation's table starts at the right x but the wrong y.
    with pytest.raises(ValueError, match="own point"):
        PrecomputedPoint(point_neg(q.point), q.table)
    assert PrecomputedPoint(q.point, q.table) == q


def test_a_key_tables_second_half_holds_the_odd_multiples_of_its_shift():
    # Q's half, Q, 3Q, ..., 31Q, then that of 2^128 Q, from the public
    # scalar_mul, for keys built in one call and alone.
    rng = random.Random(59)
    points = [random_point(rng) for _ in range(3)] + [G]
    half = 2 ** (KEY_WIDTH - 1)
    for pre in precompute(points) + precompute(points[:1]):
        low, high = pre.table[:half], pre.table[half:]
        shifted = scalar_mul(2 ** KEY_SPLIT, pre.point)
        for d in range(1, half, 2):
            assert (low[d - 1], low[d]) == dataclasses.astuple(oracle_mul(d, pre.point)), d
            assert (high[d - 1], high[d]) == dataclasses.astuple(scalar_mul(d, shifted)), d


def test_multi_scalar_mul_on_a_cached_key_across_the_seam(monkeypatch):
    # A cached key's scalar splits at 2^128: the low bits on Q's half,
    # the rest on 2^128 Q's, and a zero part adds no term.  Each sum
    # equals the affine reference, alone and beside a plain term.
    rng = random.Random(61)
    q, other = random_point(rng), random_point(rng)
    (pre_q,) = precompute([q])
    recoded = []
    wnaf = ec._wnaf

    def counting_wnaf(k, width):
        recoded.append(k)
        return wnaf(k, width)

    monkeypatch.setattr(ec, "_wnaf", counting_wnaf)
    high = rng.randrange(1, 2 ** 127)
    seam = {0: [], 1: [1], 2 ** 128 - 1: [2 ** 128 - 1], 2 ** 128: [1], 2 ** 128 + 1: [1, 1],
            N - 1: [(N - 1) % 2 ** 128, (N - 1) >> 128], high << 128: [high],
            N + 5: [5], 2 * N - 1: [(N - 1) % 2 ** 128, (N - 1) >> 128]}
    for k, parts in seam.items():
        recoded.clear()
        assert multi_scalar_mul([(k, pre_q)]) == oracle_mul(k % N, q), k
        assert recoded == parts, k
        assert (multi_scalar_mul([(k, pre_q), (3, other)])
                == point_add(oracle_mul(k % N, q), oracle_mul(3, other))), k
    # A full-length key scalar is two terms off G, as in verify_star, and
    # skips the merge stage; a third term goes through it.
    merged = []
    merge = ec._merge_buckets
    monkeypatch.setattr(ec, "_merge_buckets", lambda adds: merged.append(adds) or merge(adds))
    k = N - 1
    assert multi_scalar_mul([(k, pre_q), (k, G)]) == point_add(oracle_mul(k, q), oracle_mul(k, G))
    assert merged == []
    assert (multi_scalar_mul([(k, pre_q), (5, other), (k, G)])
            == point_add(point_add(oracle_mul(k, q), oracle_mul(5, other)), oracle_mul(k, G)))
    assert len(merged) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=N - 1))
def test_wnaf_recoding(k):
    digits = list(_wnaf(k, 5))
    assert sum(d << i for i, d in digits) == k
    assert all(d % 2 == 1 and abs(d) <= 15 for _, d in digits)
    positions = [i for i, _ in digits]
    assert all(b - a >= 5 for a, b in zip(positions, positions[1:]))
    assert not positions or positions[-1] <= k.bit_length()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=N - 1), st.sampled_from([4, 5, 6]))
def test_wnaf_recoding_every_width(k, width):
    digits = list(_wnaf(k, width))
    assert sum(d << i for i, d in digits) == k
    assert all(d % 2 == 1 and abs(d) < 2 ** (width - 1) for _, d in digits)
    positions = [i for i, _ in digits]
    assert all(b - a >= width for a, b in zip(positions, positions[1:]))
    assert not positions or positions[-1] <= k.bit_length()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-(N - 1), max_value=-1), st.sampled_from([4, 6, 11]))
def test_wnaf_recoding_of_a_negative_scalar_negates_each_digit(k, width):
    # multi_scalar_mul recodes a negative scalar as it is: its digits are
    # those of -k, negated, so -k on P reads the entries k reads on -P.
    digits = list(_wnaf(k, width))
    assert sum(d << i for i, d in digits) == k
    assert all(d % 2 == 1 and abs(d) < 2 ** (width - 1) for _, d in digits)
    positions = [i for i, _ in digits]
    assert all(b - a >= width for a, b in zip(positions, positions[1:]))
    assert not positions or positions[-1] <= k.bit_length()
    assert [(i, -d) for i, d in _wnaf(-k, width)] == digits


def test_table_widths_follow_the_base_alone(monkeypatch):
    # Counts, not timings: which width each term's recoding and table
    # get.  A cached key's scalar is recoded in two parts at width 6, its
    # low 128 bits and the rest, with no table built; every fresh term at
    # width 4, whatever its scalar's length (64, 128, 129 and 256 bits
    # here), with one width-4 table each; G takes neither path.
    rng = random.Random(43)
    q, r = random_point(rng), random_point(rng)
    (pre_q,) = precompute([q])
    recoded, built = [], []
    wnaf, tables = ec._wnaf, ec._odd_multiple_tables

    def counting_wnaf(k, width):
        recoded.append((k.bit_length(), width))
        return wnaf(k, width)

    def counting_tables(points, width):
        out = tables(points, width)
        built.extend(len(table) for table in out)
        return out

    monkeypatch.setattr(ec, "_wnaf", counting_wnaf)
    monkeypatch.setattr(ec, "_odd_multiple_tables", counting_tables)
    u2 = (1 << 255) + 12345
    multi_scalar_mul([(2 ** 64, r), (2 ** 128 - 1, r), (2 ** 128, r), (u2, pre_q),
                      (u2, q), (u2, G)])
    assert recoded == [(65, 4), (128, 4), (129, 4), (14, 6), (128, 6), (256, 4)]
    assert built == [8, 8, 8, 8]
    # batch_verify's randomizer terms above SCAN_SIZE items are negated
    # 64-bit scalars, on fresh R_i: width 4.  Its 256-bit key scalars on
    # cached tables: two parts of at most 128 bits each at width 6,
    # nothing built for them.
    items = []
    for i in range(SCAN_SIZE + 1):
        pair = generate_keypair(rng)
        message = bytes([i])
        items.append((message, sign(message, pair.private, rng), pair.public))
    keys = precompute([public for _, _, public in items])
    recoded.clear()
    built.clear()
    assert batch_verify([(m, s, key) for (m, s, _), key in zip(items, keys)], rng)
    assert sorted(width for _, width in recoded) == [4] * len(items) + [6] * (2 * len(items))
    assert all(bits <= 65 for bits, width in recoded if width == 4)
    assert all(bits <= 128 for bits, width in recoded if width == 6)
    assert built == [8] * len(items)


def test_batch_inverse_matches_pow():
    rng = random.Random(21)
    for modulus in (P, N):
        values = [1, modulus - 1, 2] + [rng.randrange(1, modulus) for _ in range(25)]
        assert batch_inverse(values, modulus) == [pow(v, -1, modulus) for v in values]
        assert batch_inverse([5], modulus) == [pow(5, -1, modulus)]
    assert batch_inverse([], P) == []


def test_validate_public_key():
    rng = random.Random(5)
    good = random_point(rng)
    assert validate_public_key(good)
    assert validate_public_key(precompute([good])[0])
    assert not validate_public_key(INFINITY)
    assert not validate_public_key((good.x, good.y))
    with pytest.raises(InvalidPointError):
        Point(good.x, (good.y + 1) % P)


def test_curve_security_p256_passes():
    checks = validate_curve_security(P256)
    assert {c.name for c in checks} == {"not_anomalous", "embedding_degree",
                                        "cofactor_one", "prime_order"}
    assert all(c.passed for c in checks)


def test_curve_security_flags_anomalous():
    doctored = DomainParams(p=P, a=A, b=B, gx=G.x, gy=G.y, n=P, h=1)
    by_name = {c.name: c for c in validate_curve_security(doctored)}
    assert not by_name["not_anomalous"].passed


def test_curve_security_flags_low_embedding_degree():
    # n = p - 1 makes p = 1 mod n, i.e. embedding degree 1.
    doctored = DomainParams(p=P, a=A, b=B, gx=G.x, gy=G.y, n=P - 1, h=1)
    by_name = {c.name: c for c in validate_curve_security(doctored)}
    assert not by_name["embedding_degree"].passed
    assert "p^1" in by_name["embedding_degree"].detail


def test_curve_security_flags_cofactor():
    doctored = DomainParams(p=P, a=A, b=B, gx=G.x, gy=G.y, n=N, h=4)
    by_name = {c.name: c for c in validate_curve_security(doctored)}
    assert not by_name["cofactor_one"].passed
