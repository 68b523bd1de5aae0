"""Short-Weierstrass group arithmetic over the NIST P-256 curve.

The public interface works on affine points (``Point``) plus a ``None``
sentinel for the point at infinity.  Internally every scalar
multiplication is one multi-scalar multiplication, summed by one loop.
A term off the generator G recodes into wNAF digits, each naming an
entry of its base's affine table of odd multiples P, 3P, ...,
(2^(w-1) - 1)P, or the entry's negation (x, p - y); the G terms recode
into one odd digit per row of a fixed-base table, at most 29 entries.
The entries go into one bucket per bit position, G's into bucket 0, and
one Straus pass, ``_straus``, sums them: one doubling per position and
one mixed Jacobian-affine addition per entry (Cohen, Miyaji & Ono,
ASIACRYPT 1998), so a G-only sum makes no doubling.  ``_straus`` keeps
the accumulator in local ints and writes out the formulas of ``_jdbl``
and ``_jadd_affine``, with the same results bit for bit: a pass makes
hundreds of doublings and up to a thousand or more additions, and a
function call for each, with its tuple packing and its ``None`` test,
cost some 7% of the pass.  Outside it only the generator-table build
and ``multiple_index`` call the two formulas.

The odd-multiple tables are built affine, all of a call's tables together,
in rounds: round 1 doubles each P, and round i > 1 adds D = 2^(i-1)P to
every odd multiple found so far and doubles D.  All the denominators of
a round, across every table, share one field inversion (Montgomery's
simultaneous inversion, Math. Comp. 1987), so a width-w table takes
w - 1 rounds and an addition costs about six multiplications.  No round
divides by zero: the group has the prime order n, so no multiple of P
below n is infinity and no point has order 2.  A ``multi_scalar_mul``
call costs at most five field inversions: four rounds for a width-5
table and one back to affine at the end.

Every table is one flat tuple of ints, (x1, y1, x3, y3, ...): odd digit
d reads x at index |d| - 1 and y at |d|.  The generator table is 29 such
tables, row w the width-10 table of 2^(9w) G, and a scalar reaches it
through a regular recoding into odd 9-bit-step digits with no zero digit
(Joye & Tunstall, AFRICACRYPT 2009), so every table in the module comes
from the one builder.

A base that recurs across calls, such as a registered public key, can be
passed as a ``PrecomputedPoint``: the point with its width-7 table
(P, 3P, ..., 63P; 64 ints, about 4.4 kB per key), built once by
``precompute`` in six rounds, so six inversions per call however many
points it gets.  The MSM then uses that table as it is and builds tables
only for its plain ``Point`` bases, of width 4 for a scalar of at most
128 bits (a batch randomizer's term) and of width 5 for a longer one:
for a short scalar a wider table costs more to build than it saves.

WARNING: none of this code is constant time.  Scalar multiplication,
field inversion and the window tables all branch and index on secret
data.  That is fine for a protocol simulator — which is what this
package is — and disqualifying for anything that handles keys an
adversary can time.  Do not lift this module into production use.
"""

from __future__ import annotations

from dataclasses import dataclass

# === P-256 domain parameters (SEC2 "secp256r1") ===

P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = P - 3
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5
H = 1

_GEN_WIDTH = 9  # bits between the bases of consecutive generator table rows
_KEY_WIDTH = 7  # wNAF width of a PrecomputedPoint's cached table
_SHORT_BITS = 128  # a per-call table is _SHORT_WIDTH wide for scalars up to this length
_SHORT_WIDTH = 4
_LONG_WIDTH = 5  # ... and _LONG_WIDTH wide for longer scalars


class InvalidPointError(ValueError):
    """Raised when a coordinate pair is not on the curve."""


@dataclass(frozen=True)
class Point:
    """Affine curve point with canonically reduced coordinates."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if not (0 <= self.x < P and 0 <= self.y < P):
            raise InvalidPointError("coordinates must be reduced mod p")


# The point at infinity is represented as None throughout.
INFINITY = None

G = Point(GX, GY)


@dataclass(frozen=True)
class DomainParams:
    """Curve domain parameters, as handed to the security checks.

    The group operations themselves are compiled against the module-level
    P-256 constants; this record exists so that deliberately broken
    parameter sets can be fed to ``validate_curve_security``.
    """

    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int
    h: int


P256 = DomainParams(p=P, a=A, b=B, gx=GX, gy=GY, n=N, h=H)


def is_on_curve(point: Point | None) -> bool:
    """True if ``point`` satisfies y^2 = x^3 + ax + b (infinity counts)."""
    if point is None:
        return True
    x, y = point.x, point.y
    return (y * y - (x * x * x + A * x + B)) % P == 0


def _require_on_curve(point: Point | None) -> None:
    if not is_on_curve(point):
        raise InvalidPointError(f"point is not on the curve: {point}")


def _require_finite(point: Point | None) -> None:
    if point is None or not is_on_curve(point):
        raise InvalidPointError(f"not a finite curve point: {point}")


def point_neg(point: Point | None) -> Point | None:
    if point is None:
        return None
    return Point(point.x, (-point.y) % P)


def point_add(p1: Point | None, p2: Point | None) -> Point | None:
    """Affine group law (chord/tangent).  Inputs are validated.

    This is the plain reference path; the multipliers below use
    Jacobian internals instead and are checked against it in the tests.
    """
    _require_on_curve(p1)
    _require_on_curve(p2)
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    if p1.x == p2.x and (p1.y + p2.y) % P == 0:
        return None
    if p1 == p2:
        lam = (3 * p1.x * p1.x + A) * pow(2 * p1.y, -1, P) % P
    else:
        lam = (p2.y - p1.y) * pow(p2.x - p1.x, -1, P) % P
    x3 = (lam * lam - p1.x - p2.x) % P
    y3 = (lam * (p1.x - x3) - p1.y) % P
    return Point(x3, y3)


# === Jacobian internals ===
# A Jacobian triple (X, Y, Z) stands for the affine point (X/Z^2, Y/Z^3);
# None again plays the point at infinity.  Neither formula below can
# return Z = 0 from a finite point: a doubling's Z3 = 2 Y1 Z1 is zero
# only for a point of order 2, which the prime-order group lacks, and a
# mixed addition's Z3 = Z1 h has both factors nonzero mod p once h = 0
# has been handled.


def _jdbl(pt):
    # dbl-2001-b, specialised to a = -3.
    if pt is None:
        return None
    x1, y1, z1 = pt
    delta = z1 * z1 % P
    gamma = y1 * y1 % P
    beta = x1 * gamma % P
    alpha = 3 * (x1 - delta) * (x1 + delta) % P
    x3 = (alpha * alpha - 8 * beta) % P
    z3 = ((y1 + z1) * (y1 + z1) - gamma - delta) % P
    y3 = (alpha * (4 * beta - x3) - 8 * gamma * gamma) % P
    return x3, y3, z3


def _jadd_affine(p1, ax, ay):
    # Mixed addition: p1 Jacobian, (ax, ay) affine (Z2 = 1).
    if p1 is None:
        return ax, ay, 1
    x1, y1, z1 = p1
    z1z1 = z1 * z1 % P
    u2 = ax * z1z1 % P
    s2 = ay * z1 * z1z1 % P
    h = (u2 - x1) % P
    r = (s2 - y1) % P
    if h == 0:
        if r == 0:
            return _jdbl(p1)
        return None
    hh = h * h % P
    hhh = h * hh % P
    v = x1 * hh % P
    x3 = (r * r - hhh - 2 * v) % P
    y3 = (r * (v - x3) - y1 * hhh) % P
    z3 = z1 * h % P
    return x3, y3, z3


def _to_affine(pt) -> Point | None:
    if pt is None:
        return None
    x, y, z = pt
    zi = pow(z, -1, P)
    zi2 = zi * zi % P
    return Point(x * zi2 % P, y * zi2 % P * zi % P)


# === Fixed-base table for the generator ===
# Row w of _GEN_TABLE is the width-10 odd-multiple table of
# B_w = 2^(9w) G, built by _odd_multiple_tables like every other table:
# B_w, 3B_w, ..., 511B_w, 256 entries in 512 ints.  An odd scalar below
# 2^261 recodes into at most 29 odd digits of |d| <= 511 with no zero
# digit (the regular recoding of Joye & Tunstall, AFRICACRYPT 2009), and
# a negative digit names (x, p - y), as in Brickell, Gordon, McCurley &
# Wilson's fixed-base method (EUROCRYPT 1992): at most 29 entries for
# the Straus pass's last bucket, so mixed additions and no doublings.
# The table holds 14,848 ints, about 1.0 MB, built lazily one row per
# call so the build's peak memory stays one row's rounds; each base
# takes nine Jacobian doublings.  The tests check entries against an
# affine double-and-add oracle.

_GEN_TABLE: list[tuple[int, ...]] | None = None


def _gen_table() -> list[tuple[int, ...]]:
    global _GEN_TABLE
    if _GEN_TABLE is None:
        table = []
        base = (GX, GY, 1)
        for _ in range((256 + _GEN_WIDTH - 1) // _GEN_WIDTH):
            table += _odd_multiple_tables([(_to_affine(base), _GEN_WIDTH + 1)])
            for _ in range(_GEN_WIDTH):
                base = _jdbl(base)
        _GEN_TABLE = table
    return _GEN_TABLE


def _fixed_base_mul(k: int) -> list[tuple[int, int]]:
    """G's table entries (x, y), one per row, that sum to k * G for 0 <= k < n.

    An even k becomes k + n, which is odd and names the same multiple.
    Each row then takes the digit d = k if k < 512 and otherwise
    (k mod 1024) - 512, and carries (k - d) / 512, which is odd again,
    into the next row, so every digit is odd with |d| <= 511.  As
    k < 2n < 2^257, the 29th row's digit is at most 33 and ends it.
    """
    entries = []
    if not k:
        return entries
    if not k & 1:
        k += N
    step = 1 << _GEN_WIDTH
    for row in _gen_table():
        d = k if k < step else k % (2 * step) - step
        k = (k - d) >> _GEN_WIDTH
        if d > 0:
            entries.append((row[d - 1], row[d]))
        else:
            entries.append((row[-d - 1], P - row[-d]))
        if not k:
            break
    return entries


def scalar_mul(k: int, point: Point | None) -> Point | None:
    """Compute k * point.  Requires k >= 0; k is reduced mod n.

    Reducing the scalar is exact for every valid public input: the group
    order is the prime n with cofactor 1, so all finite curve points have
    order n.  A one-term ``multi_scalar_mul``, so the generator goes
    through the fixed-base table and every other point through the wNAF
    kernel.
    """
    return multi_scalar_mul(((k, point),))


def _wnaf(k: int, width: int):
    """Width-``width`` NAF of k >= 0: yield (position, digit) for each nonzero digit.

    Positions ascend and are at least ``width`` apart, every digit is odd
    with |digit| < 2^(width - 1), and sum(digit << position) == k.  The
    highest position is at most k.bit_length().
    """
    half = 1 << (width - 1)
    position = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        position += zeros
        d = k & (2 * half - 1)
        if d > half:
            d -= 2 * half
        yield position, d
        k -= d


def batch_inverse(values: list[int], modulus: int) -> list[int]:
    """Inverses of nonzero residues modulo a prime, with one modular inversion.

    Montgomery's simultaneous inversion trick: invert the product of all
    values once, then peel the inverses off right to left with two
    multiplications each.
    """
    prefix = []
    running = 1
    for value in values:
        prefix.append(running)
        running = running * value % modulus
    inv = pow(running, -1, modulus)
    inverses = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        inverses[i] = inv * prefix[i] % modulus
        inv = inv * values[i] % modulus
    return inverses


def _odd_multiple_tables(bases: list[tuple[Point, int]]) -> list[tuple[int, ...]]:
    """The flat width-w table (x1, y1, x3, y3, ...) of P, 3P, ..., (2^(w-1) - 1)P per (P, w).

    Only the positive half is stored: an odd wNAF digit d reads x at
    index |d| - 1 and y at |d|, and a negative one adds (x, p - y).

    All the call's tables, whatever their widths, grow together in
    affine rounds.  Round 1 doubles each P.  Round i > 1 adds
    D = 2^(i-1)P to each odd multiple found so far, P, ..., (2^(i-1) - 1)P,
    which gives (2^(i-1) + 1)P, ..., (2^i - 1)P, and doubles D for the
    next round.  A width-w table is complete after round w - 1, which
    skips the doubling; a width-2 table is P alone and takes no round.
    Every denominator of a round, the x differences and the 2y of every
    table, goes through one ``batch_inverse``, so a call makes w - 1
    inversions for its widest table and an affine addition costs about
    six multiplications, with no Jacobian chain to normalise afterwards.
    No denominator is zero.  x(D) = x(mP) for an odd m < 2^(i-1) would
    make (2^(i-1) - m)P or (2^(i-1) + m)P infinity, a multiple of P below
    2^i; y(D) = 0 would give D order 2.  The group has the prime order n,
    far above every multiple here, and so no point of order 2.
    """
    tables = [[point.x, point.y] for point, _ in bases]
    steps = [(point.x, point.y) for point, _ in bases]  # D = 2^(i-1)P in round i
    growing = [t for t, (_, width) in enumerate(bases) if width > 2]
    i = 1
    while growing:
        denominators = []
        for t in growing:
            dx, dy = steps[t]
            if i > 1:
                denominators += [dx - x for x in tables[t][::2]]
            if i < bases[t][1] - 1:
                denominators.append(2 * dy)
        inverses = iter(batch_inverse(denominators, P))
        for t in growing:
            dx, dy = steps[t]
            if i > 1:
                table = tables[t]
                # inverses comes last: zip stops at the table's end
                # without taking the next table's inverse.
                for x, y, inv in zip(table[::2], table[1::2], inverses):
                    slope = (dy - y) * inv % P
                    nx = (slope * slope - x - dx) % P
                    table += (nx, (slope * (x - nx) - y) % P)
            if i < bases[t][1] - 1:
                slope = 3 * (dx - 1) * (dx + 1) * next(inverses) % P
                nx = (slope * slope - 2 * dx) % P
                steps[t] = (nx, (slope * (dx - nx) - dy) % P)
        i += 1
        growing = [t for t in growing if bases[t][1] > i]
    return [tuple(table) for table in tables]


@dataclass(frozen=True, slots=True)
class PrecomputedPoint:
    """A finite on-curve point with its width-7 wNAF table (P, 3P, ..., 63P).

    ``table`` is flat, (x1, y1, x3, y3, ..., x63, y63): 64 ints, about
    4.4 kB.  Build these with ``precompute``, whose six affine rounds
    (one field inversion each) serve all its points at once.
    ``multi_scalar_mul`` accepts one anywhere it accepts a base ``Point``
    and reads ``table`` instead of building it, so a base that recurs
    across calls pays for its table once.
    """

    point: Point
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_finite(self.point)
        if len(self.table) != 1 << (_KEY_WIDTH - 1):
            raise ValueError(f"table must hold {1 << (_KEY_WIDTH - 2)} odd multiples")
        if self.table[:2] != (self.point.x, self.point.y):
            raise ValueError("table does not start with its own point")


def precompute(points: list[Point]) -> list[PrecomputedPoint]:
    """Tables for many finite on-curve points: six field inversions, however many points."""
    for point in points:
        _require_finite(point)
    tables = _odd_multiple_tables([(point, _KEY_WIDTH) for point in points])
    return [PrecomputedPoint(point, table) for point, table in zip(points, tables)]


def multi_scalar_mul(pairs) -> Point | None:
    """Compute sum(k_i * P_i) exactly.  Every k_i >= 0; an empty input is infinity.

    Terms off G share one Straus pass over wNAF digits (Moeller, SAC
    2001), each term at its own table's width w: each base has an affine
    table of its odd multiples P, 3P, ..., (2^(w-1) - 1)P, and a
    negative digit adds the negation (x, p - y) of an entry.  A
    ``PrecomputedPoint`` base brings its width-7 table; every plain
    ``Point`` base gets one built here, of width 4 if its reduced scalar
    has at most 128 bits and width 5 otherwise, all of them in one
    ``_odd_multiple_tables`` call: affine rounds, w - 1 for the widest
    fresh table, each sharing one inversion across every table.  The
    digits are sorted into one bucket of affine points per bit position.
    Terms whose base is the plain ``Point`` G have their scalars summed,
    and that multiple's fixed-base entries, at most 29, go at the end of
    bucket 0, which is summed after the last doubling.  ``_straus``, the
    one loop that sums an MSM, runs the pass over the buckets on local
    ints: one Jacobian doubling per bit position and one mixed addition
    per entry.  A call does at most five field inversions, the rounds of
    a width-5 table and one back to affine (one alone when every base
    brings its table).
    """
    g_scalar = 0
    terms = []
    fresh = []
    for k, base in pairs:
        if k < 0:
            raise ValueError("scalar must be non-negative")
        if isinstance(base, PrecomputedPoint):
            table = base.table
            width = _KEY_WIDTH
        else:
            _require_on_curve(base)
            if base is None:
                continue
            if base == G:
                g_scalar += k
                continue
            table = None
        k %= N
        if not k:
            continue
        if table is None:
            width = _SHORT_WIDTH if k.bit_length() <= _SHORT_BITS else _LONG_WIDTH
            fresh.append((base, width))
        terms.append((k, width, table))
    built = iter(_odd_multiple_tables(fresh))
    adds: list[list[tuple[int, int]]] = [
        [] for _ in range(max((k.bit_length() for k, _, _ in terms), default=0) + 1)]
    for k, width, table in terms:
        if table is None:
            table = next(built)
        for position, d in _wnaf(k, width):
            if d > 0:
                adds[position].append((table[d - 1], table[d]))
            else:
                adds[position].append((table[-d - 1], P - table[-d]))
    adds[0] += _fixed_base_mul(g_scalar % N)
    return _to_affine(_straus(adds))


def _straus(adds):
    """sum(2^i * (sum of adds[i])) in Jacobian form, or None for infinity.

    ``adds[i]`` holds the affine points (x, y) added at bit position i:
    wNAF table entries, and in ``adds[0]`` also G's fixed-base entries.
    The pass runs from the top position down: one doubling per position,
    then one mixed addition per entry, so a single bucket makes no
    doubling.  It is the fold of ``_jdbl`` and ``_jadd_affine`` over the
    buckets, bit for bit, written out as one loop over local ints to
    save a call per operation with its tuple packing and its ``None``
    test (some 7% of the pass).  Infinity is the flag ``inf``: an entry
    added to it loads as (x, y, 1), and no doubling runs while it is
    set.  A sum that reaches infinity mid-pass (h = 0 with r != 0) sets
    it again, and an entry equal to the accumulator (h = 0 and r = 0) is
    doubled through ``_jdbl``.
    """
    p = P
    inf = True
    x = y = z = 0
    for bucket in reversed(adds):
        if not inf:
            # _jdbl: dbl-2001-b, specialised to a = -3.
            delta = z * z % p
            gamma = y * y % p
            beta = x * gamma % p
            alpha = 3 * (x - delta) * (x + delta) % p
            t = y + z
            x = (alpha * alpha - 8 * beta) % p
            z = (t * t - gamma - delta) % p
            gamma = gamma * gamma
            y = (alpha * (4 * beta - x) - 8 * gamma) % p
        for ax, ay in bucket:
            if inf:
                x, y, z = ax, ay, 1
                inf = False
                continue
            # _jadd_affine: (x, y, z) + (ax, ay, 1).
            zz = z * z % p
            h = (ax * zz - x) % p
            r = (ay * z * zz - y) % p
            if not h:
                if r:
                    inf = True
                else:
                    x, y, z = _jdbl((x, y, z))
                continue
            hh = h * h % p
            hhh = h * hh % p
            v = x * hh % p
            x3 = (r * r - hhh - 2 * v) % p
            y = (r * (v - x3) - y * hhh) % p
            z = z * h % p
            x = x3
    return None if inf else (x, y, z)


def multiple_index(base: Point, target: Point | None, limit: int) -> int | None:
    """The least m in [1, limit] with m * base == target, or None; limit < n.

    A walk up base, 2 base, ..., limit * base in Jacobian form, one mixed
    addition per step and no inversion: the affine target (x, y) is the
    triple (X, Y, Z) when X == x Z^2 and Y == y Z^3.  No step reaches
    infinity, as base has the prime order n > limit.
    """
    _require_finite(base)
    if target is None:
        return None
    acc = (base.x, base.y, 1)
    for m in range(1, limit + 1):
        x, y, z = acc
        zz = z * z % P
        if x == target.x * zz % P and y == target.y * zz * z % P:
            return m
        acc = _jadd_affine(acc, base.x, base.y)
    return None


# === Validation ===


def validate_public_key(q: Point | None) -> bool:
    """Check that q is a usable public key: finite and on the curve.

    No order check is needed.  The module constant ``H = 1`` is P-256's
    cofactor, so the group of curve points has the prime order n and
    every finite on-curve point already has order n; n * q would be
    infinity for every q this function accepts.  Nothing checks ``H`` at
    run time: acceptance criterion 6 runs ``validate_curve_security`` on
    ``P256``, whose ``cofactor_one`` check is what holds it to 1.
    """
    return q is not None and is_on_curve(q)


@dataclass(frozen=True)
class SecurityCheck:
    """Outcome of one curve-level sanity check."""

    name: str
    passed: bool
    detail: str


def _is_probable_prime(m: int) -> bool:
    # Miller-Rabin over a fixed base set; plenty for a sanity check on
    # published 256-bit group orders.
    if m < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    for q in small:
        if m % q == 0:
            return m == q
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in small:
        x = pow(base, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def validate_curve_security(params: DomainParams, embedding_bound: int = 100) -> list[SecurityCheck]:
    """Run the standard structural checks against a parameter set.

    Checks: the curve is not anomalous (n != p), the embedding degree is
    above ``embedding_bound`` (p^k mod n != 1 for 1 <= k <= bound), the
    cofactor is 1, and the group order is probably prime.
    """
    checks = []

    checks.append(SecurityCheck(
        name="not_anomalous",
        passed=params.n != params.p,
        detail="group order must differ from the field characteristic",
    ))

    failing_k = 0
    for k in range(1, embedding_bound + 1):
        if pow(params.p, k, params.n) == 1:
            failing_k = k
            break
    checks.append(SecurityCheck(
        name="embedding_degree",
        passed=failing_k == 0,
        detail=(f"p^{failing_k} = 1 mod n" if failing_k
                else f"p^k != 1 mod n for k <= {embedding_bound}"),
    ))

    checks.append(SecurityCheck(
        name="cofactor_one",
        passed=params.h == 1,
        detail=f"cofactor is {params.h}",
    ))

    checks.append(SecurityCheck(
        name="prime_order",
        passed=_is_probable_prime(params.n),
        detail="group order passes Miller-Rabin",
    ))

    return checks
