"""Short-Weierstrass group arithmetic over the NIST P-256 curve.

The public interface works on affine points (``Point``) plus a ``None``
sentinel for the point at infinity.  Internally every scalar
multiplication is one multi-scalar multiplication.  Terms off the
generator G share one Straus pass over width-5 NAF digits, with affine
tables of the positive odd multiples P, 3P, ..., 15P (a negative digit
adds the negation (x, p - y) of an entry); then the G terms add one
signed 7-bit digit per row of a fixed-base table of affine multiples (at
most 37 additions, no doublings) into the same Jacobian accumulator.
Every addition is mixed Jacobian-affine (Cohen, Miyaji & Ono, ASIACRYPT
1998).  A call costs at most three field inversions: one for the tables'
2P, one to normalise the tables, one back to affine at the end.

A base that recurs across calls, such as a registered public key, can be
passed as a ``PrecomputedPoint``: the point with its table, built once by
``precompute``.  The MSM then uses that table as it is and builds tables
only for its plain ``Point`` bases.

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

_GEN_WIDTH = 7  # digit width (bits) of the signed fixed-base generator table
_GEN_HALF = 1 << (_GEN_WIDTH - 1)  # generator digits lie in [-_GEN_HALF + 1, _GEN_HALF]
_WNAF_WIDTH = 5  # NAF width of the variable-base multi-scalar kernel
_WNAF_HALF = 1 << (_WNAF_WIDTH - 1)  # digits are odd with |d| < _WNAF_HALF


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
# None again plays the point at infinity.


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
    if z3 == 0:
        return None
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
    if z3 == 0:
        return None
    return x3, y3, z3


def _to_affine(pt) -> Point | None:
    if pt is None:
        return None
    x, y, z = pt
    zi = pow(z, -1, P)
    zi2 = zi * zi % P
    return Point(x * zi2 % P, y * zi2 % P * zi % P)


# === Fixed-base table for the generator ===
# _GEN_TABLE[w][d-1] holds (d << 7w) * G as an affine (x, y) pair for
# d = 1 .. 64, over 37 rows: a scalar below 2^256 recodes into 37 signed
# 7-bit digits in [-63, 64] (Brickell, Gordon, McCurley & Wilson,
# EUROCRYPT 1992), and a negative digit adds (x, p - y).  The top row
# covers bits 252-258, where the digit is at most 15 plus a carry, so
# no carry leaves it.  A fixed-base multiplication is at most 37 mixed
# additions and no doublings.  Built lazily with the affine reference
# addition, which keeps the table independent of the Jacobian code it
# accelerates.

_GEN_TABLE: list[list[tuple[int, int]]] | None = None


def _gen_table() -> list[list[tuple[int, int]]]:
    global _GEN_TABLE
    if _GEN_TABLE is None:
        table = []
        base: Point | None = G
        for _ in range((256 + _GEN_WIDTH - 1) // _GEN_WIDTH):
            row = [base]
            for _ in range(_GEN_HALF - 1):
                row.append(point_add(row[-1], base))
            table.append([(pt.x, pt.y) for pt in row])  # type: ignore[union-attr]
            base = point_add(row[-1], row[-1])
        _GEN_TABLE = table
    return _GEN_TABLE


def _fixed_base_mul(k: int, acc):
    """acc + k * G in Jacobian form for 0 <= k < 2^256, one signed digit per row."""
    for row in _gen_table():
        if not k:
            break
        d = k & (2 * _GEN_HALF - 1)
        k >>= _GEN_WIDTH
        if d > _GEN_HALF:
            x, y = row[2 * _GEN_HALF - d - 1]
            acc = _jadd_affine(acc, x, P - y)
            k += 1
        elif d:
            x, y = row[d - 1]
            acc = _jadd_affine(acc, x, y)
    return acc


def scalar_mul(k: int, point: Point | None) -> Point | None:
    """Compute k * point.  Requires k >= 0; k is reduced mod n.

    Reducing the scalar is exact for every valid public input: the group
    order is the prime n with cofactor 1, so all finite curve points have
    order n.  A one-term ``multi_scalar_mul``, so the generator goes
    through the fixed-base table and every other point through the wNAF
    kernel.
    """
    return multi_scalar_mul(((k, point),))


def _wnaf(k: int):
    """Width-5 NAF of k >= 0: yield (position, digit) for each nonzero digit.

    Positions ascend and are at least _WNAF_WIDTH apart, every digit is
    odd with |digit| < _WNAF_HALF, and sum(digit << position) == k.  The
    highest position is at most k.bit_length().
    """
    position = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        position += zeros
        d = k & (2 * _WNAF_HALF - 1)
        if d > _WNAF_HALF:
            d -= 2 * _WNAF_HALF
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


def _odd_multiple_tables(points: list[Point]) -> list[tuple[tuple[int, int], ...]]:
    """Affine (P, 3P, 5P, ..., 15P) for every point.

    Only the positive half is stored: an odd wNAF digit d > 0 picks entry
    d >> 1, and a negative one adds (x, p - y) of entry -d >> 1.  Each 2P
    is affine, from the tangent slope 3(x^2 - 1) / 2y (a = -3) with every
    2y inverted by one ``batch_inverse``; y != 0, as the prime-order group
    has no point of order 2.  The multiples grow by mixed additions of 2P,
    then a second ``batch_inverse`` normalises all their Z coordinates.
    Adding 2P to (2j-1)P never doubles or cancels: that would need
    (2j-3)P or (2j+1)P to be infinity, and P has the prime order n.
    """
    half = _WNAF_HALF // 2
    entries = []
    for point, inv in zip(points, batch_inverse([2 * point.y for point in points], P)):
        x, y = point.x, point.y
        slope = 3 * (x - 1) * (x + 1) * inv % P
        tx = (slope * slope - 2 * x) % P
        ty = (slope * (x - tx) - y) % P
        entries.append((x, y, 1))
        for _ in range(half - 1):
            entries.append(_jadd_affine(entries[-1], tx, ty))
    affine = []
    for (x, y, _), zi in zip(entries, batch_inverse([z for _, _, z in entries], P)):
        zi2 = zi * zi % P
        affine.append((x * zi2 % P, y * zi2 % P * zi % P))
    return [tuple(affine[start:start + half]) for start in range(0, len(affine), half)]


@dataclass(frozen=True, slots=True)
class PrecomputedPoint:
    """A finite on-curve point with its wNAF table (P, 3P, ..., 15P).

    Build these with ``precompute``.  ``multi_scalar_mul`` accepts one
    anywhere it accepts a base ``Point`` and reads ``table`` instead of
    building it, so a base that recurs across calls pays for its table
    once.
    """

    point: Point
    table: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _require_finite(self.point)
        if len(self.table) != _WNAF_HALF // 2:
            raise ValueError(f"table must hold {_WNAF_HALF // 2} odd multiples")


def precompute(points: list[Point]) -> list[PrecomputedPoint]:
    """Tables for many finite on-curve points, sharing their field inversions."""
    for point in points:
        _require_finite(point)
    return [PrecomputedPoint(point, table)
            for point, table in zip(points, _odd_multiple_tables(points))]


def multi_scalar_mul(pairs) -> Point | None:
    """Compute sum(k_i * P_i) exactly.  Every k_i >= 0; an empty input is infinity.

    Terms off G share one Straus pass over width-5 NAF digits (Moeller,
    SAC 2001): each base has an affine table of its odd multiples P, 3P,
    ..., 15P, and a negative digit adds the negation (x, p - y) of an
    entry, so the main loop is one Jacobian doubling per bit position plus
    one mixed addition per nonzero digit.  A ``PrecomputedPoint`` base
    brings its table; every plain ``Point`` base gets one built here, all
    of them in one ``_odd_multiple_tables`` call.  Terms whose base is the
    plain ``Point`` G have their scalars summed, and the fixed-base table
    adds that multiple into the Straus accumulator.  Every addition is
    mixed; a call does at most three field inversions.
    """
    g_scalar = 0
    terms = []
    fresh = []
    for k, base in pairs:
        if k < 0:
            raise ValueError("scalar must be non-negative")
        if isinstance(base, PrecomputedPoint):
            table = base.table
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
            fresh.append(base)
        terms.append((k, table))
    acc = None
    if terms:
        built = iter(_odd_multiple_tables(fresh))
        adds: list[list[tuple[int, int]]] = [
            [] for _ in range(max(k.bit_length() for k, _ in terms) + 1)]
        for k, table in terms:
            if table is None:
                table = next(built)
            for position, d in _wnaf(k):
                if d > 0:
                    adds[position].append(table[d >> 1])
                else:
                    x, y = table[-d >> 1]
                    adds[position].append((x, P - y))
        for position in range(len(adds) - 1, -1, -1):
            acc = _jdbl(acc)
            for x, y in adds[position]:
                acc = _jadd_affine(acc, x, y)
    return _to_affine(_fixed_base_mul(g_scalar % N, acc))


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
