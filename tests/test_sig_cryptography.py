"""ECDSA over P-256 with SHA-256, checked against the ``cryptography`` package.

Signatures made here must verify there and vice versa; a signature over
one message must be refused for another on both sides.  ``verify_star``,
which checks the full nonce point on half-length scalars, is checked on
``cryptography``'s signatures through the points their r can name, and
so is ``batch_verify`` at the sizes that take short weights.  Skipped
when ``cryptography`` is not installed.
"""

import random

import pytest

crypto_ec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature, encode_dss_signature)

from cloneguard.ec import N, P, Point, precompute
from cloneguard.sig import (SCAN_SIZE, Signature, StarSignature, batch_verify, generate_keypair,
                            point_from_bytes, sign, verify_classic, verify_star)

KEYS = 20
ECDSA_SHA256 = crypto_ec.ECDSA(hashes.SHA256())


def key_pairs():
    """Each of our keypairs next to the ``cryptography`` key with the same secret."""
    rng = random.Random(2024)
    for _ in range(KEYS):
        ours = generate_keypair(rng)
        theirs = crypto_ec.derive_private_key(ours.private, crypto_ec.SECP256R1())
        yield rng, ours, theirs


def test_public_keys_agree():
    for _, ours, theirs in key_pairs():
        numbers = theirs.public_key().public_numbers()
        assert Point(numbers.x, numbers.y) == ours.public


def test_our_signatures_verify_under_cryptography():
    for rng, ours, theirs in key_pairs():
        message = rng.randbytes(rng.randrange(0, 80))
        classic = sign(message, ours.private, rng).to_classic()
        der = encode_dss_signature(classic.r, classic.s)
        theirs.public_key().verify(der, message, ECDSA_SHA256)  # raises if invalid
        with pytest.raises(InvalidSignature):
            theirs.public_key().verify(der, message + b"!", ECDSA_SHA256)


def test_cryptography_signatures_pass_verify_classic():
    for rng, ours, theirs in key_pairs():
        message = rng.randbytes(rng.randrange(0, 80))
        r, s = decode_dss_signature(theirs.sign(message, ECDSA_SHA256))
        assert verify_classic(message, Signature(r=r, s=s), ours.public)
        assert not verify_classic(message + b"!", Signature(r=r, s=s), ours.public)


def nonce_candidates(r):
    """Every curve point whose x is r or r + n (when below p), with either parity."""
    for x in (r, r + N):
        if x >= P:
            continue
        for prefix in (2, 3):
            try:
                yield point_from_bytes(bytes([prefix]) + x.to_bytes(32, "big"))
            except ValueError:
                continue  # x is not an x coordinate on the curve


def test_cryptography_signatures_pass_verify_star_for_exactly_one_nonce_point():
    for rng, ours, theirs in key_pairs():
        message = rng.randbytes(rng.randrange(1, 80))
        r, s = decode_dss_signature(theirs.sign(message, ECDSA_SHA256))
        candidates = list(nonce_candidates(r))
        assert len(candidates) >= 2
        changed = bytearray(message)
        changed[rng.randrange(len(changed))] ^= 1 + rng.randrange(255)
        for key in (ours.public, *precompute([ours.public])):
            accepted = [R for R in candidates if verify_star(message, StarSignature(R, s), key)]
            assert len(accepted) == 1
            assert not any(verify_star(bytes(changed), StarSignature(R, s), key)
                           for R in candidates)


def test_cryptography_signatures_pass_small_batch_checks():
    # Each R is the one nonce point verify_star accepts, as above.
    items = []
    for rng, ours, theirs in key_pairs():
        message = rng.randbytes(rng.randrange(1, 80))
        r, s = decode_dss_signature(theirs.sign(message, ECDSA_SHA256))
        (R,) = [R for R in nonce_candidates(r)
                if verify_star(message, StarSignature(R, s), ours.public)]
        items.append((message, StarSignature(R, s), ours.public))
    keys = precompute([public for _, _, public in items])
    cached = [(message, star, key) for (message, star, _), key in zip(items, keys)]
    for size in range(1, SCAN_SIZE + 1):
        for start in range(0, KEYS - size + 1, size):
            for batch in (items[start:start + size], cached[start:start + size]):
                assert batch_verify(batch, random.Random(start))
                swapped = list(batch)
                message, star, key = swapped[-1]
                swapped[-1] = (items[(start + size) % KEYS][0], star, key)
                assert not batch_verify(swapped, random.Random(start))
