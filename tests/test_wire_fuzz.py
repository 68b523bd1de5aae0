"""Wire decoders on arbitrary bytes: a clean ValueError or an exact round trip.

Every point that decodes must also lie on the curve: a byte round trip
alone cannot see a wrong y, since only its parity is re-encoded.  Every
signature scalar that decodes must lie in [1, n).
"""

from hypothesis import given, settings, strategies as st

from cloneguard.context import (CI_WIRE_BYTES, PROOF_WIRE_BYTES, ContextInformation,
                                LocationProof)
from cloneguard.ec import N, P, is_on_curve
from cloneguard.sig import (PUBLIC_KEY_BYTES, SIGNATURE_BYTES, point_from_bytes,
                            point_to_bytes, signature_from_bytes, signature_to_bytes)


def around(length):
    """Arbitrary bytes, weighted toward the exact wire length and its neighbours."""
    return st.one_of(
        st.binary(max_size=2 * length),
        st.integers(length - 1, length + 1).flatmap(
            lambda n: st.binary(min_size=n, max_size=n)))


def u256(value):
    return value.to_bytes(32, "big")


# Compressed points: a valid or invalid prefix, and an x below p (on the
# curve about half the time), equal to p or beyond it.
point_like = st.builds(
    lambda prefix, x: bytes([prefix]) + u256(x),
    st.sampled_from([0x02, 0x03]) | st.integers(0, 255),
    st.integers(0, P - 1) | st.integers(P, 2**256 - 1))

# Signatures: a point-like R, and an s inside [1, n) or at and beyond n.
signature_like = st.builds(
    lambda point, s: point + u256(s),
    point_like, st.integers(0, N - 1) | st.integers(N, 2**256 - 1))

proof_like = st.builds(
    lambda prover, digest, signature: prover + digest + signature,
    st.binary(min_size=2, max_size=2), st.binary(min_size=32, max_size=32), signature_like)


def decodes_cleanly(decode, encode, data):
    """Decoding either raises ValueError (None is returned) or yields a
    value that re-encodes to ``data`` (the value is returned)."""
    try:
        value = decode(data)
    except ValueError:
        return None
    assert encode(value) == data
    return value


def assert_on_curve(point):
    assert is_on_curve(point)


@settings(max_examples=300)
@given(around(PUBLIC_KEY_BYTES) | point_like)
def test_point_decoder_fuzz(data):
    point = decodes_cleanly(point_from_bytes, point_to_bytes, data)
    if point is not None:
        assert_on_curve(point)


@settings(max_examples=300)
@given(around(SIGNATURE_BYTES) | signature_like)
def test_signature_decoder_fuzz(data):
    signature = decodes_cleanly(signature_from_bytes, signature_to_bytes, data)
    if signature is not None:
        assert_on_curve(signature.R)
        assert 1 <= signature.s < N


@settings(max_examples=300)
@given(around(CI_WIRE_BYTES))
def test_context_decoder_fuzz(data):
    decodes_cleanly(ContextInformation.from_bytes, ContextInformation.to_bytes, data)


@settings(max_examples=300)
@given(around(PROOF_WIRE_BYTES) | proof_like)
def test_proof_decoder_fuzz(data):
    proof = decodes_cleanly(LocationProof.from_bytes, LocationProof.to_bytes, data)
    if proof is not None:
        assert_on_curve(proof.signature.R)
        assert 1 <= proof.signature.s < N
