"""ECDSA over P-256 with SHA-256, checked against the ``cryptography`` package.

Signatures made here must verify there and vice versa; a signature over
one message must be refused for another on both sides.  Skipped when
``cryptography`` is not installed.
"""

import random

import pytest

crypto_ec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature, encode_dss_signature)

from cloneguard.ec import Point
from cloneguard.sig import Signature, generate_keypair, sign, verify_classic

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
