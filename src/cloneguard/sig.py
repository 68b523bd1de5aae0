"""ECDSA and ECDSA* over P-256, with randomized batch verification.

ECDSA* is the batch-friendly variant: the signer transmits the full
nonce point R instead of its reduced x-coordinate r.  A classic (r, s)
signature can always be projected out of a star signature, so the two
schemes sign identically and differ only in what the verifier gets to
work with.  Messages are hashed with SHA-256 throughout.

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
sums as the parent's minus the left half's.

Every verifier takes the public key either as a plain ``Point`` or as an
``ec.PrecomputedPoint`` that carries the key's multi-scalar table; the
checks on the key run on the underlying point either way.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Sequence

from .ec import (B, G, INFINITY, N, P, Point, PrecomputedPoint, batch_inverse, is_on_curve,
                 multi_scalar_mul, multiple_index, point_add, point_neg, scalar_mul,
                 validate_public_key)

PRIVATE_KEY_BYTES = 32
PUBLIC_KEY_BYTES = 33  # compressed: parity byte + x coordinate
SIGNATURE_BYTES = PUBLIC_KEY_BYTES + 32  # compressed R + s

# Batch randomizer width: each lambda_i is drawn from [1, 2^64].
RANDOMIZER_BITS = 64

PublicKey = Point | PrecomputedPoint


def _key_point(public: PublicKey | None) -> Point | None:
    """The affine point behind a public key in either form."""
    return public.point if isinstance(public, PrecomputedPoint) else public


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
    if not validate_public_key(_key_point(public)):
        return False
    x_pt = _nonce_point(message, sig.r, sig.s, public)
    if x_pt is INFINITY:
        return False
    return x_pt.x % N == sig.r


def _well_formed(sig: StarSignature, public: PublicKey) -> bool:
    """Whether an ECDSA* item is structurally valid, before any equation.

    R is finite and on the curve, x(R) mod n and s lie in [1, n), and
    the public key is usable.  ``verify_star`` and ``batch_verify`` both
    refuse an item that fails here.
    """
    return (sig.R is not INFINITY and is_on_curve(sig.R)
            and 1 <= sig.R.x % N and 1 <= sig.s < N
            and validate_public_key(_key_point(public)))


def verify_star(message: bytes, sig: StarSignature, public: PublicKey) -> bool:
    """ECDSA* verification: recompute the nonce point and compare it to R.

    Strictly stronger than the classic check — full point equality
    instead of reduced-x equality — which is what makes signatures
    batchable without opening the x-coordinate malleability door.
    """
    if not _well_formed(sig, public):
        return False
    return _nonce_point(message, sig.R.x % N, sig.s, public) == sig.R


BatchItem = tuple[bytes, StarSignature, PublicKey]


def _equation_terms(items: Sequence[BatchItem]) -> list[tuple[int, int, Point, PublicKey]]:
    """(u1_i, u2_i, -R_i, Q_i) per well-formed item, so that
    T_i = u1_i * G + u2_i * Q_i + (-R_i) is infinity iff the item verifies.

    The s_i are inverted together, with one modular inversion.
    """
    inverses = batch_inverse([sig.s for _, sig, _ in items], N)
    return [(hash_to_scalar(message) * w % N, sig.R.x % N * w % N, point_neg(sig.R), public)
            for (message, sig, public), w in zip(items, inverses)]


def _combination(terms: Sequence[tuple[int, int, Point, PublicKey]],
                 weights: Sequence[int]) -> Point | None:
    """sum(weight_i * T_i) over ``_equation_terms``, as one ``multi_scalar_mul``.

    The weights multiply the negated points -R_i as they are (rather than
    n - weight_i multiplying R_i), so a short weight saves digits: each
    -R_i gets the MSM's width-4 table whatever its scalar, and a 64-bit
    weight recodes into about 13 wNAF digits there, n - weight_i into
    about 29.  It saves doublings only in a sum of short terms; here the
    256-bit key terms set the chain.  The u1 parts are summed into a
    single G term for the fixed-base table.
    """
    pairs = []
    u1_sum = 0
    for (u1, u2, neg_r, public), weight in zip(terms, weights):
        u1_sum = (u1_sum + weight * u1) % N
        pairs.append((weight, neg_r))
        pairs.append((weight * u2 % N, public))
    pairs.append((u1_sum, G))
    return multi_scalar_mul(pairs)


def _randomizers(count: int, rng: random.Random) -> list[int]:
    return [rng.randrange(1, (1 << RANDOMIZER_BITS) + 1) for _ in range(count)]


def batch_verify(items: Sequence[BatchItem], rng: random.Random, *,
                 _check: list | None = None) -> bool:
    """Verify a batch of ECDSA* signatures with one combined equation.

    Each item i gets a fresh multiplier lambda_i drawn from
    [1, 2^RANDOMIZER_BITS]; the batch is accepted iff

        sum(lambda_i * R_i)
            == (sum(lambda_i * u1_i) mod n) * G + sum(lambda_i * u2_i mod n) * Q_i

    evaluated by ``_combination`` as one multi-scalar multiplication that
    must give the point at infinity:

        sum(lambda_i * (-R_i)) + (sum(lambda_i * u1_i) mod n) * G
            + sum(lambda_i * u2_i mod n) * Q_i

    Every R term carries a scalar of at most 65 bits, so it adds about 13
    wNAF digits on its width-4 table; the key terms use their cached
    width-7 tables when the keys come as ``PrecomputedPoint``, and the G
    term goes through the fixed-base table.  If the batch holds an
    invalid signature, it passes with probability at most 2^-64 over the
    lambdas (which assumes ``rng`` is unpredictable to the signer).  The
    s_i are inverted together, with one modular inversion per batch.  An
    item that is not ``_well_formed`` rejects the batch before any lambda
    is drawn; otherwise exactly one lambda is drawn per item.

    Returns a single accept/reject for the whole batch; callers that
    need to locate an offender use ``verify_batch``, which passes a list
    as ``_check`` to get back the equation's terms, the lambdas and the
    sum, and so searches a failed batch from the sum it has already paid
    for.
    """
    if not items:
        raise ValueError("batch must contain at least one signature")
    if not all(_well_formed(sig, public) for _, sig, public in items):
        return False
    terms = _equation_terms(items)
    lambdas = _randomizers(len(items), rng)
    total = _combination(terms, lambdas)
    if _check is not None:
        _check += terms, lambdas, total
    return total is INFINITY


def verify_each(items: Sequence[BatchItem]) -> list[bool]:
    """Verify every item on its own, with ``verify_star``."""
    return [verify_star(message, sig, public) for message, sig, public in items]


# A failed set of at most this many items whose index-weighted sums name
# no lone invalid item is checked item by item rather than split.  A
# ``verify_star`` on a cached key took 1.78 ms and a sum over 2, 4 and 6
# items 1.08, 1.36 and 1.8 times that (2 CPUs, CPython 3.11).  A model
# with those costs, over every placement of two forgeries among 25 and
# 150 random placements of three and of four, has its lowest worst case
# for two and three at 4 (or 5, a size no set of 25 splits into), and
# every mean within 0.1% of its lowest.  At most 6, so one invalid item
# among n <= 6 still costs at most 2 * ceil(log2 n) + 1 checks.
SCAN_SIZE = 4


def _lone_item(s1: Point, s2: Point | None, lo: int, hi: int) -> int | None:
    """The index b in [lo, hi) with s2 == (b + 1) * s1, if there is one."""
    m = multiple_index(s1, s2, hi)
    return m - 1 if m is not None and m > lo else None


def verify_batch(items: Sequence[BatchItem], rng: random.Random) -> list[bool]:
    """One validity flag per item: a batch check, then a search if it fails.

    The whole batch gets one ``batch_verify``; if it passes, every item
    is valid, and the rng has advanced exactly as by that call alone.
    Otherwise each item that is not ``_well_formed`` gets its
    ``verify_each`` (which refuses it without any group operation).  If
    one did, it stopped that call before any lambda was drawn or any
    multiplication made, so the well-formed items then get the check, a
    second ``batch_verify``; if it passes, each of them is valid.  If the
    check fails and at most ``SCAN_SIZE`` items are well formed, each of
    them gets its ``verify_each``.  Otherwise the search reuses the
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
    at most ``SCAN_SIZE`` valid ones costs 1.

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
    check: list = []
    if batch_verify(items, rng, _check=check):
        return [True] * len(items)
    flags = [True] * len(items)
    formed = []
    for i, (_, sig, public) in enumerate(items):
        if _well_formed(sig, public):
            formed.append(i)
        else:
            flags[i] = verify_each([items[i]])[0]
    if not check:
        # A malformed item refused the batch before any lambda was drawn.
        if not formed or batch_verify([items[i] for i in formed], rng, _check=check):
            return flags
    terms, lambdas, s1 = check

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
    if len(data) != PUBLIC_KEY_BYTES or data[0] not in (0x02, 0x03):
        raise ValueError("malformed compressed point")
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        raise ValueError("x coordinate out of range")
    y_sq = (x * x * x - 3 * x + B) % P
    y = pow(y_sq, (P + 1) // 4, P)  # p = 3 mod 4
    if y * y % P != y_sq:
        raise ValueError("x is not on the curve")
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
