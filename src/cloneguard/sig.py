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
``verify_batch`` locates the invalid items of a failed batch by recursive
bisection, with a fresh batch check per half and an individual check per
single item.

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
                 multi_scalar_mul, point_neg, scalar_mul, validate_public_key)

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


def verify_classic(message: bytes, sig: Signature, public: PublicKey) -> bool:
    """Classic ECDSA verification: recompute X and compare x(X) mod n to r."""
    if not (1 <= sig.r < N and 1 <= sig.s < N):
        return False
    if not validate_public_key(_key_point(public)):
        return False
    e = hash_to_scalar(message)
    w = pow(sig.s, -1, N)
    u1 = e * w % N
    u2 = sig.r * w % N
    x_pt = multi_scalar_mul([(u1, G), (u2, public)])
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
    e = hash_to_scalar(message)
    w = pow(sig.s, -1, N)
    u1 = e * w % N
    u2 = sig.R.x % N * w % N
    return multi_scalar_mul([(u1, G), (u2, public)]) == sig.R


BatchItem = tuple[bytes, StarSignature, PublicKey]


def batch_verify(items: Sequence[BatchItem], rng: random.Random) -> bool:
    """Verify a batch of ECDSA* signatures with one combined equation.

    Each item i gets a fresh multiplier lambda_i drawn from
    [1, 2^RANDOMIZER_BITS]; the batch is accepted iff

        sum(lambda_i * R_i)
            == (sum(lambda_i * u1_i) mod n) * G + sum(lambda_i * u2_i mod n) * Q_i

    evaluated as one multi-scalar multiplication that must give the point
    at infinity:

        sum(lambda_i * (-R_i)) + (sum(lambda_i * u1_i) mod n) * G
            + sum(lambda_i * u2_i mod n) * Q_i

    lambda_i multiplies the negated point -R_i (rather than n - lambda_i
    multiplying R_i), so every R term carries a scalar of at most 65 bits
    with few wNAF digits and takes the MSM's small width-4 tables; the G
    term goes through the fixed-base table.  If the batch holds an
    invalid signature, it passes with probability at most 2^-64 over the
    lambdas (which assumes ``rng`` is unpredictable to the signer).
    The s_i are inverted together, with one modular inversion per batch.
    An item that is not ``_well_formed`` rejects the batch before any
    lambda is drawn.

    Returns a single accept/reject for the whole batch; callers that
    need to locate an offender use ``verify_batch``.
    """
    if not items:
        raise ValueError("batch must contain at least one signature")
    if not all(_well_formed(sig, public) for _, sig, public in items):
        return False

    pairs = []
    u1_sum = 0
    inverses = batch_inverse([sig.s for _, sig, _ in items], N)
    for (message, sig, public), w in zip(items, inverses):
        lam = rng.randrange(1, (1 << RANDOMIZER_BITS) + 1)
        e = hash_to_scalar(message)
        u1 = e * w % N
        u2 = sig.R.x % N * w % N
        u1_sum = (u1_sum + lam * u1) % N
        pairs.append((lam, point_neg(sig.R)))
        pairs.append((lam * u2 % N, public))
    pairs.append((u1_sum, G))
    return multi_scalar_mul(pairs) is INFINITY


def verify_each(items: Sequence[BatchItem]) -> list[bool]:
    """Verify every item on its own, with ``verify_star``."""
    return [verify_star(message, sig, public) for message, sig, public in items]


def verify_batch(items: Sequence[BatchItem], rng: random.Random) -> list[bool]:
    """One validity flag per item: a batch check, bisected when it fails.

    The whole batch gets one ``batch_verify``; if it passes, every item
    is valid, and the rng has advanced exactly as by that call alone.  A
    failed set is split into halves (Pastuszak, Michalek, Pieprzyk &
    Seberry, "Identification of bad signatures in batches", PKC 2000).
    The left half is checked: with ``batch_verify`` and fresh lambdas if
    it holds two or more items, with ``verify_each`` if it holds one.  If
    it passes, the invalid item must be in the right half, which is
    searched without a check of its own; otherwise the right half is
    checked like any set of unknown status.  A single item that must be
    invalid still gets its ``verify_each``.

    Soundness: every ``False`` is an individual check that failed, so no
    valid item is ever flagged.  An invalid item is flagged ``True`` only
    if one of the at most ceil(log2 n) + 1 batch checks on its path
    passes, each with probability at most 2^-64 over the lambdas (which
    assumes ``rng`` is unpredictable to the signer).

    Cost, the first check included: one invalid item among n costs at
    most 2 * ceil(log2 n) + 1 checks, where a scan after the batch check
    costs 1 + n.  k invalid items leave at most k failed sets per level
    of the search, each checking at most its two halves, so they cost at
    most 2k * ceil(log2 n) + 1 <= k * (2 * ceil(log2 n) + 1) checks,
    which can exceed the scan's 1 + n once k >= 2.
    """
    flags = [True] * len(items)

    def passes(lo: int, hi: int) -> bool:
        if hi - lo > 1:
            return batch_verify(items[lo:hi], rng)
        flags[lo] = verify_each(items[lo:hi])[0]
        return flags[lo]

    def search(lo: int, hi: int) -> None:
        # items[lo:hi] holds at least one invalid item.
        if hi - lo == 1:
            passes(lo, hi)
            return
        mid = (lo + hi) // 2
        if passes(lo, mid):
            search(mid, hi)
            return
        if mid - lo > 1:
            search(lo, mid)
        if not passes(mid, hi) and hi - mid > 1:
            search(mid, hi)

    if not batch_verify(items, rng):
        search(0, len(items))
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
