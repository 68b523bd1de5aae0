"""ECDSA and ECDSA* over P-256, with randomized batch verification.

ECDSA* is the batch-friendly variant: the signer transmits the full
nonce point R instead of its reduced x-coordinate r.  A classic (r, s)
signature can always be projected out of a star signature, so the two
schemes sign identically and differ only in what the verifier gets to
work with.  Messages are hashed with SHA-256 throughout.  Every ECDSA*
check, single or batch, and every sum of a search is one weighted sum of
the same per-item equation, built by ``_equation_terms`` and summed by
``_combination``.

Batch verification uses small-exponent randomization: each signature is
weighted by a fresh random multiplier before the combined equation is
evaluated in a single multi-scalar multiplication.  The multipliers are
``RANDOMIZER_BITS`` (64) bits wide, fixed, so a batch containing any
invalid signature passes with probability at most 2^-64.
``verify_batch`` locates the invalid items of a failed batch from two
sums under the check's own multipliers: the failed check's sum itself,
and a second one weighted also by each item's index.  If the batch holds
one invalid item b, the second sum is b + 1 times the first, so one
forgery costs the failed check, the second sum and one individual check
wherever it sits.  Otherwise the search bisects, taking a right half's
sums as the parent's minus the left half's.  A single ``verify_star``
is the one-item case, weighted by a lattice vector that halves the
length of its scalars (Antipa et al., SAC 2005) and so its doubling
chain.  A batch check of at most ``SCAN_SIZE`` items, the size of a
sparse round's checks, weights each item by a short vector (w, q) of
the lattice q = w u2 (mod n) that its multiplier picks, instead of
(lambda, lambda u2 mod n), so its R and key scalars are about 161 bits
long and not 64 and 256, and its doubling chain about 162 steps long
instead of 256 (after Gallant, Lambert & Vanstone, CRYPTO 2001); each
multiplier still gives a distinct weight, so the 2^-64 bound holds as it
stands.  Larger checks keep the multipliers.  The size of each check
also picks its keys and what a failure costs:
``context.LbsStore.verification_keys`` gives a check of at most
``SCAN_SIZE`` items the plain registered keys and a larger one their
cached tables, and ``verify_batch`` scans a failed small check item by
item.

Every verifier takes the public key either as a plain ``Point`` or as an
``ec.PrecomputedPoint`` that carries the key's multi-scalar table.  No
verifier checks a key or an R on the curve: every ``ec.Point`` is on the
curve by construction, checked once, when it is built, by its own
constructor, and that holds for a point decoded by ``point_from_bytes``
as for one a caller builds.  A verifier refuses only what a ``Point``
cannot rule out: infinity (``None``) as R or key.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Sequence

from .ec import (B, CALL_WIDTH, G, INFINITY, N, P, Point, PrecomputedPoint, batch_inverse,
                 multi_scalar_mul, multiple_index, point_add, point_neg, precompute, scalar_mul,
                 validate_public_key)

PRIVATE_KEY_BYTES = 32
PUBLIC_KEY_BYTES = 33  # compressed: parity byte + x coordinate
SIGNATURE_BYTES = PUBLIC_KEY_BYTES + 32  # compressed R + s

# Batch randomizer width: each lambda_i is drawn from [1, 2^64].
RANDOMIZER_BITS = 64

PublicKey = Point | PrecomputedPoint


def hash_to_scalar(message: bytes) -> int:
    """SHA-256 digest of the message as an integer mod n."""
    return int.from_bytes(hashlib.sha256(message).digest(), "big") % N


@dataclass(frozen=True)
class KeyPair:
    private: int
    public: Point


@dataclass(frozen=True)
class Signature:
    """Classic ECDSA signature (r, s)."""

    r: int
    s: int


@dataclass(frozen=True)
class StarSignature:
    """ECDSA* signature: the full nonce point plus s."""

    R: Point
    s: int

    def to_classic(self) -> Signature:
        """Project down to the classic form by reducing x(R) mod n."""
        return Signature(r=self.R.x % N, s=self.s)


def generate_keypair(rng: random.Random) -> KeyPair:
    """Draw d uniformly from [1, n-1] and derive Q = d*G."""
    d = rng.randrange(1, N)
    return KeyPair(private=d, public=scalar_mul(d, G))


def sign(message: bytes, private: int, rng: random.Random) -> StarSignature:
    """Sign a message, retrying the nonce whenever r or s degenerates."""
    if not 1 <= private < N:
        raise ValueError("private key out of range")
    e = hash_to_scalar(message)
    while True:
        k = rng.randrange(1, N)
        big_r = scalar_mul(k, G)
        r = big_r.x % N
        if r == 0:
            continue
        s = pow(k, -1, N) * (e + private * r) % N
        if s == 0:
            continue
        return StarSignature(R=big_r, s=s)


def _nonce_point(message: bytes, r: int, s: int, public: PublicKey) -> Point | None:
    """u1 G + u2 Q with w = s^-1, u1 = e w and u2 = r w: the signer's R if it verifies."""
    w = pow(s, -1, N)
    return multi_scalar_mul([(hash_to_scalar(message) * w % N, G), (r * w % N, public)])


def verify_classic(message: bytes, sig: Signature, public: PublicKey) -> bool:
    """Classic ECDSA verification: recompute X and compare x(X) mod n to r."""
    if not (1 <= sig.r < N and 1 <= sig.s < N):
        return False
    if not validate_public_key(public):
        return False
    x_pt = _nonce_point(message, sig.r, sig.s, public)
    if x_pt is INFINITY:
        return False
    return x_pt.x % N == sig.r


def _well_formed(sig: StarSignature, public: PublicKey) -> bool:
    """Whether an ECDSA* item is structurally valid, before any equation.

    R is finite (a ``Point`` is on the curve by construction), x(R) mod
    n and s lie in [1, n), and the public key is usable.
    ``verify_star`` and ``batch_verify`` both refuse an item that fails
    here.
    """
    return (sig.R is not INFINITY and 1 <= sig.R.x % N and 1 <= sig.s < N
            and validate_public_key(public))


def _reduced_basis(u2: int) -> tuple[int, int, int, int]:
    """(w1, q1, w2, q2): a short basis of the lattice {(w, q) : q = w * u2 (mod n)}, 0 < u2 < n.

    The extended Euclidean algorithm on (n, u2), stopped at the first
    remainder below 2^128.  Each remainder r_i is t_i * u2 (mod n), so
    every (t_i, r_i) lies in the lattice, and any two neighbours span it:
    t_i r_(i+1) - t_(i+1) r_i = +-n, the lattice's determinant.  As
    |t_i| * r_(i-1) <= n, |t_i| < 2^256 / 2^128 once r_(i-1) >= 2^128.
    The remainders reach 1 before 0, as n is prime, so the stop comes at
    a nonzero r_i and t_i: (w1, q1) = (t_i, r_i), with |w1| < 2^128 and
    0 < q1 < 2^128.  (w2, q2) is the shorter of its two neighbours, as in
    Gallant, Lambert & Vanstone, "Faster point multiplication on elliptic
    curves with efficient endomorphisms" (CRYPTO 2001).  Every remainder
    is non-negative, so q1 > 0 and q2 >= 0, and w1 and w2 have opposite
    signs.  For a random u2 both vectors are about 128 bits long; a u2
    whose lattice holds a much shorter vector has a much longer second
    one, since the two span an area of n.
    """
    r0, r1 = N, u2
    t0, t1 = 0, 1
    while r1 >> 128:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    q = r0 // r1
    t2, r2 = t0 - q * t1, r0 - q * r1
    if t2 * t2 + r2 * r2 < t0 * t0 + r0 * r0:
        t0, r0 = t2, r2
    return t1, r1, t0, r0


BatchItem = tuple[bytes, StarSignature, PublicKey]
Term = tuple[int, int, PrecomputedPoint, PrecomputedPoint]  # (u1, u2, R, Q)


def _short_weight(lam: int, u2: int) -> int:
    """A weight w for one item of a small check, with w * u2 mod n short too.

    lambda splits into alpha = lambda >> 32 and beta = lambda mod 2^32,
    and (w, q) = alpha (w1, q1) + beta (w2, q2) over ``_reduced_basis``
    (u2), so q = w * u2 (mod n).  As alpha <= 2^32, beta < 2^32 and the
    q's are non-negative, |w| <= 2^32 (|w1| + |w2|) and
    0 <= q <= 2^32 (q1 + q2); ``_combination`` recomputes q as
    w * u2 mod n.  Both stay below n / 2 whenever 2^33 times those sums
    is below n, and then lambda -> w mod n is injective over
    [1, 2^64]: distinct (alpha, beta) give distinct lattice vectors, as
    the basis spans an area of n, and two lattice vectors with |w| and
    |q| below n / 2 that agree in w mod n agree in q mod n too, so they
    are equal.  So w is never 0 mod n, and each lambda fixes a distinct
    weight, which is all the 2^-64 bound of ``batch_verify`` asks of a
    weight.  For a random u2 the basis vectors are about 128 bits long,
    and w and q about 161; a u2 whose basis fails the test (one with a
    lattice vector far shorter than 2^128, such as u2 = 1, whose w would
    drop beta) keeps w = lambda.
    """
    w1, q1, w2, q2 = _reduced_basis(u2)
    half = RANDOMIZER_BITS // 2
    if max(abs(w1) + abs(w2), q1 + q2) << (half + 1) >= N:
        return lam
    return (lam >> half) * w1 + (lam & ((1 << half) - 1)) * w2


def _equation_terms(items: Sequence[BatchItem]) -> list[Term]:
    """The terms (u1_i, u2_i, R_i, Q_i) of well-formed items.

    T_i = u1_i * G + u2_i * Q_i - R_i is infinity iff item i verifies,
    with u1_i = e_i s_i^-1 and u2_i = r_i s_i^-1 mod n; the s_i are
    inverted together, with one modular inversion.  Every base comes as
    an ``ec.PrecomputedPoint``: each R_i, and each key given as a plain
    ``Point``, with a width-4 table, all built in one ``precompute``
    call, and each cached key with its own two width-6 halves.  Every
    sum over these terms reads the tables, under any weights: the check,
    and every sum of a search.
    """
    inverses = batch_inverse([sig.s for _, sig, _ in items], N)
    keys = [public for _, _, public in items]
    plain = [i for i, key in enumerate(keys) if not isinstance(key, PrecomputedPoint)]
    tables = precompute([sig.R for _, sig, _ in items] + [keys[i] for i in plain], CALL_WIDTH)
    for i, table in zip(plain, tables[len(items):]):
        keys[i] = table
    return [(hash_to_scalar(message) * w % N, sig.R.x % N * w % N, r_table, key)
            for (message, sig, _), w, r_table, key in zip(items, inverses, tables, keys)]


def _combination(terms: Sequence[Term], weights: Sequence[int]) -> Point | None:
    """sum(weight_i * T_i) over ``_equation_terms``, as one ``multi_scalar_mul``.

    -weight_i multiplies R_i's table, whatever the weight's sign, and
    weight_i * u2_i mod n the key.  Every base comes with the table
    ``_equation_terms`` gave it, so the sum builds no table, and a
    search's sums rebuild none.  ``multi_scalar_mul`` recodes -weight_i
    as the digits of weight_i negated, rather than n - weight_i, so a
    short weight saves digits: a 64-bit weight recodes into about 13
    wNAF digits on a width-4 table, n - weight_i into about 29.  Under
    the lambdas the 256-bit key scalars lambda_i * u2_i mod n set the
    doubling chain: 256 steps on plain keys, and 128 on cached ones,
    whose tables split each scalar at 2^128.  Under ``_short_weight``'s
    weights every scalar off G is about 161 bits, and so is the chain,
    and under ``verify_star``'s one weight both are below 2^128.  The u1
    parts are summed into a single G term for the fixed-base table.
    """
    pairs = []
    u1_sum = 0
    for (u1, u2, r_table, public), weight in zip(terms, weights):
        u1_sum = (u1_sum + weight * u1) % N
        pairs.append((-weight, r_table))
        pairs.append((weight * u2 % N, public))
    pairs.append((u1_sum, G))
    return multi_scalar_mul(pairs)


def verify_star(message: bytes, sig: StarSignature, public: PublicKey) -> bool:
    """ECDSA* verification: whether u1 G + u2 Q == R, on half-length scalars.

    Strictly stronger than the classic check — full point equality
    instead of reduced-x equality — which is what makes signatures
    batchable without opening the x-coordinate malleability door.

    The one-item case of ``batch_verify``'s equation, under one weight:
    the first vector (w1, q1) of ``_reduced_basis(u2)``, with
    q1 = w1 * u2 (mod n), |w1| < 2^128 and 0 < q1 < 2^128 (Antipa,
    Brown, Gallant, Lambert, Struik & Vanstone, "Accelerated
    verification of ECDSA signatures", SAC 2005).  As w1 is invertible
    modulo the prime n, T = u1 G + u2 Q - R is infinity iff w1 T is,
    and ``_combination`` sums w1 T as c G + q1 Q + (-w1) R, with
    c = w1 u1 mod n.  c goes through G's fixed-base table, so the
    doubling chain follows q1 and |w1|, about 128 steps against the 256
    of u2 Q, and R costs a width-4 table.  The sum is compared with
    infinity, so it needs no conversion to affine.
    """
    if not _well_formed(sig, public):
        return False
    terms = _equation_terms([(message, sig, public)])
    return _combination(terms, [_reduced_basis(terms[0][1])[0]]) is INFINITY


def _randomizers(count: int, rng: random.Random) -> list[int]:
    return [rng.randrange(1, (1 << RANDOMIZER_BITS) + 1) for _ in range(count)]


def batch_verify(items: Sequence[BatchItem], rng: random.Random, *,
                 _check: list | None = None) -> bool:
    """Verify a batch of ECDSA* signatures with one combined equation.

    Each item i gets a fresh multiplier lambda_i drawn from
    [1, 2^RANDOMIZER_BITS], and a weight w_i: in a check of at most
    ``SCAN_SIZE`` items ``_short_weight(lambda_i, u2_i)``, and otherwise
    lambda_i itself.  The batch is accepted iff

        sum(w_i * R_i) == (sum(w_i * u1_i) mod n) * G + sum(w_i * u2_i mod n) * Q_i

    evaluated by ``_combination`` as one multi-scalar multiplication that
    must give the point at infinity:

        sum((-w_i) * R_i) + (sum(w_i * u1_i) mod n) * G + sum(w_i * u2_i mod n) * Q_i

    Under the lambdas, every R term carries a scalar of at most 65 bits,
    so it adds about 13 wNAF digits on its width-4 table, and the key
    scalars lambda_i * u2_i mod n are 256 bits long.  On plain keys they
    set a 256-step doubling chain; a cached key's table splits its
    scalar at 2^128 into two parts on two width-6 halves, so a check on
    cached keys runs a chain of 128 steps.  A small check's short
    weights make every R and key scalar about 161 bits long, so its
    chain is about 162 steps, at about 19 more R digits and 19 fewer key
    digits per plain key.  ``context.LbsStore.verification_keys`` gives
    such a check the plain keys, whatever the caller's ``batch_size``; a
    sparse round's checks hold 2 or 3 items.  Larger checks keep the
    lambdas, whose 64-bit R scalars cost the fewest additions there, on
    the cached keys the store gives them.  The G term goes through the
    fixed-base table.  If the batch holds an invalid signature, it passes
    with probability at most 2^-64 over the lambdas (which assumes
    ``rng`` is unpredictable to the signer): with the other weights
    fixed, the sum is infinity for at most one w_i mod n, as the group
    has the prime order n, and each w_i mod n comes from one lambda_i at
    most (see ``_short_weight``).  The choice between lambdas and short
    weights is made here alone, from the check's size:
    ``_equation_terms`` builds the terms, with one modular inversion per
    batch, and ``_combination`` sums them under the weights chosen, the
    path ``verify_star`` takes for its one item.  An item that is not
    ``_well_formed`` rejects the batch before any lambda is drawn;
    otherwise exactly one lambda is drawn per item.

    Returns a single accept/reject for the whole batch; callers that
    need to locate an offender use ``verify_batch``, which passes a list
    as ``_check`` to get back the equation's terms, the weights and the
    sum, and so searches a failed batch from the sum it has already paid
    for.  A failed check of at most ``SCAN_SIZE`` items is scanned item
    by item, so a search never sees a short weight.
    """
    if not items:
        raise ValueError("batch must contain at least one signature")
    if not all(_well_formed(sig, public) for _, sig, public in items):
        return False
    weights = _randomizers(len(items), rng)
    terms = _equation_terms(items)
    if len(items) <= SCAN_SIZE:
        weights = [_short_weight(lam, u2) for lam, (_, u2, _, _) in zip(weights, terms)]
    total = _combination(terms, weights)
    if _check is not None:
        _check += terms, weights, total
    return total is INFINITY


def verify_each(items: Sequence[BatchItem]) -> list[bool]:
    """Verify every item on its own, with ``verify_star``."""
    return [verify_star(message, sig, public) for message, sig, public in items]


# A failed set of at most this many items whose index-weighted sums name
# no lone invalid item is checked item by item rather than split.  A
# ``verify_star`` on a cached key took 1.15-1.24 ms and a sum over 2, 4 and
# 6 items on cached keys 1.09-1.10, 1.53-1.55 and 1.99-2.00 times that (two
# alternating timings in one process, 2 CPUs, CPython 3.11).  A model with
# those costs, over every placement of two forgeries among 25 and 150
# random placements of three and of four, has its lowest worst case for
# every k at 4 (or 5, a size no set of 25 splits into), and its mean for
# every k within 0.1% of the lowest.  At most 6, so one invalid item among
# n <= 6 still costs at most 2 * ceil(log2 n) + 1 checks.  A check of at
# most this many items weights its items with ``_short_weight``: if it
# fails, its items are checked one by one, so no search sums under those
# weights.  ``context.LbsStore.verification_keys`` gives such a check the
# plain registered keys, and a larger one cached key tables.
SCAN_SIZE = 4


def _lone_item(s1: Point, s2: Point | None, lo: int, hi: int) -> int | None:
    """The index b in [lo, hi) with s2 == (b + 1) * s1, if there is one."""
    m = multiple_index(s1, s2, hi)
    return m - 1 if m is not None and m > lo else None


def verify_batch(items: Sequence[BatchItem], rng: random.Random) -> list[bool]:
    """One validity flag per item: a batch check, then a search if it fails.

    Each item that is not ``_well_formed`` gets its ``verify_each``
    (which refuses it without any group operation).  The well-formed
    items then get one ``batch_verify``, the check, and none if there are
    none; if it passes, each of them is valid, and the rng has advanced
    exactly as by that call alone.  If the check fails and at most
    ``SCAN_SIZE`` items are well formed, each of them gets its
    ``verify_each``.  Otherwise the search reuses the
    check: with lambda_i its randomizer and T_i = u1_i G + u2_i Q_i - R_i
    at position i of the well-formed items, it keeps, for each failed
    set, two sums:

        S1 = sum(lambda_i * T_i)    S2 = sum((i + 1) * lambda_i * T_i)

    The whole batch's S1 is the failed check's own sum, so only its S2
    costs a ``multi_scalar_mul`` before the search.  If S1 is infinity
    the set is valid.  If the set holds exactly one invalid item b, then
    S2 = (b + 1) * S1, which a walk of at most n point additions finds
    (``_lone_item``); the index-weighted sums are after Law & Matt,
    "Finding invalid signatures in pairing-based batches" (IMA
    Cryptography and Coding 2007).  A named item gets its
    ``verify_each``; if it fails, it is the set's only invalid item.
    Otherwise a set of at most ``SCAN_SIZE`` items gets ``verify_each``
    item by item, and a larger one is split into halves with the same
    lambda.  Only the left half's S1 is computed; the right half's is the
    parent's S1 minus it (Bernstein, Doumen, Lange & Oosterwijk, "Faster
    batch forgery identification", INDOCRYPT 2012).  A half whose S1 is
    infinity is valid, and the other half inherits the parent's S2, so
    its lone-item test costs no multiplication; only where both halves
    fail is the left half's S2 computed, the right one's again by
    subtraction.

    Cost in ``multi_scalar_mul`` calls, the check included, for n
    well-formed items above ``SCAN_SIZE``: a valid batch costs 1; one
    invalid item costs 3 wherever it sits (the check, S2 and one
    ``verify_star``); k >= 2 cost 2, plus 1 for every failed set that
    holds two or more and is split, plus 1 more where both its halves
    fail, plus 1 per set that holds exactly one, plus at most
    ``SCAN_SIZE`` per small set that holds two or more.  Over every
    placement at n = 25 that is 6.7 on average and at most 9 for k = 2,
    9.6 and at most 11 for k = 3, and 12.5 and at most 15 for k = 4, one
    fewer than a search under fresh randomizers.  At or below
    ``SCAN_SIZE``, a failed batch costs 1 + n.  A malformed item costs no
    multiplication of its own: the check runs over the well-formed items
    alone, and the search only if it fails, so one malformed item beside
    at most ``SCAN_SIZE`` valid ones costs 1.  No sum builds a table:
    ``_equation_terms`` builds the R_i tables, and those of plain keys,
    once, before the check, and S2 and every half sum read them.  In
    time the calls differ: on cached keys, whose split tables give every
    sum a 128-step chain, a sum over 2 items took 1.13 times a
    ``verify_star`` (a half-length sum, about 1.1 ms) and one over 25
    about 5.5 times (2 CPUs, CPython 3.11).

    Soundness: every ``False`` is an individual check that failed, so no
    valid item is ever flagged.  The lambda_i are drawn once, by the check,
    and reused, so take the events over that one draw (which assumes
    ``rng`` is unpredictable to the signer).  An invalid item is missed
    only if a set of the search that holds one has S1 = infinity (the
    check passing is this event for the whole batch), or if
    S2 = (b + 1) * S1 while a second invalid item is present.  For a
    fixed set and b each event fixes the lambda_i of one invalid item to
    at most one value (its coefficient, lambda_i or (i - b) * lambda_i,
    is nonzero modulo the prime group order), so it has probability at
    most 2^-64.  The sets are among the 2n - 1 intervals of the dyadic
    split of [0, n), and b takes at most n values, so an invalid item is
    missed with probability at most (2n - 1)(n + 1) * 2^-64.
    """
    flags = [True] * len(items)
    formed = []
    for i, (_, sig, public) in enumerate(items):
        if _well_formed(sig, public):
            formed.append(i)
        else:
            flags[i] = verify_each([items[i]])[0]
    check: list = []
    if not formed or batch_verify([items[i] for i in formed], rng, _check=check):
        return flags
    terms, lambdas, s1 = check  # the weights; above SCAN_SIZE, the lambdas

    def scan(positions: Sequence[int]) -> None:
        chunk = [items[formed[p]] for p in positions]
        for p, ok in zip(positions, verify_each(chunk)):
            flags[formed[p]] = ok

    if len(formed) <= SCAN_SIZE:
        scan(range(len(formed)))
        return flags

    def sums(lo: int, hi: int, index_weighted: bool) -> Point | None:
        weights = lambdas[lo:hi]
        if index_weighted:
            weights = [(p + 1) * lam for p, lam in enumerate(weights, lo)]
        return _combination(terms[lo:hi], weights)

    def search(lo: int, hi: int, s1: Point, s2: Point | None) -> None:
        # formed[lo:hi] holds an invalid item; s1 (finite) and s2 are its sums.
        b = _lone_item(s1, s2, lo, hi)
        if b is not None:
            scan([b])
            if not flags[formed[b]]:
                return
        if hi - lo <= SCAN_SIZE:
            scan([p for p in range(lo, hi) if p != b])
            return
        mid = (lo + hi) // 2
        left = sums(lo, mid, False)
        right = point_add(s1, point_neg(left))
        if left is INFINITY:
            search(mid, hi, right, s2)
        elif right is INFINITY:
            search(lo, mid, left, s2)
        else:
            left2 = sums(lo, mid, True)
            search(lo, mid, left, left2)
            search(mid, hi, right, point_add(s2, point_neg(left2)))

    search(0, len(formed), s1, sums(0, len(formed), True))
    return flags


# === Wire formats ===


def point_to_bytes(point: Point) -> bytes:
    """Compressed SEC encoding: 0x02/0x03 parity byte plus big-endian x."""
    prefix = 0x02 | (point.y & 1)
    return bytes([prefix]) + point.x.to_bytes(32, "big")


def point_from_bytes(data: bytes) -> Point:
    """Decode a compressed point; a ``ValueError`` if it is malformed.

    An x with no curve point, whose y^2 is not a square mod p, gives a
    y off the curve, which the ``Point`` constructor refuses with an
    ``ec.InvalidPointError``.
    """
    if len(data) != PUBLIC_KEY_BYTES or data[0] not in (0x02, 0x03):
        raise ValueError("malformed compressed point")
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        raise ValueError("x coordinate out of range")
    y_sq = (x * x * x - 3 * x + B) % P
    y = pow(y_sq, (P + 1) // 4, P)  # p = 3 mod 4
    if y & 1 != data[0] & 1:
        y = P - y
    return Point(x, y)


def signature_to_bytes(sig: StarSignature) -> bytes:
    """65-byte wire form: compressed R followed by big-endian s."""
    return point_to_bytes(sig.R) + sig.s.to_bytes(32, "big")


def signature_from_bytes(data: bytes) -> StarSignature:
    if len(data) != SIGNATURE_BYTES:
        raise ValueError(f"signature must be {SIGNATURE_BYTES} bytes")
    big_r = point_from_bytes(data[:PUBLIC_KEY_BYTES])
    s = int.from_bytes(data[PUBLIC_KEY_BYTES:], "big")
    if not 1 <= s < N:
        raise ValueError("signature scalar s out of range")
    return StarSignature(R=big_r, s=s)


def private_to_bytes(d: int) -> bytes:
    return d.to_bytes(PRIVATE_KEY_BYTES, "big")


def private_from_bytes(data: bytes) -> int:
    if len(data) != PRIVATE_KEY_BYTES:
        raise ValueError(f"private key must be {PRIVATE_KEY_BYTES} bytes")
    d = int.from_bytes(data, "big")
    if not 1 <= d < N:
        raise ValueError("private key out of range")
    return d
