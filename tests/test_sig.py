"""Signature schemes: round trips, mutation rejection, batching, wire forms."""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cloneguard import sig as sigmod
from cloneguard.ec import G, INFINITY, N, P, Point, precompute, scalar_mul
from cloneguard.sig import (SIGNATURE_BYTES, PUBLIC_KEY_BYTES, KeyPair, Signature,
                            StarSignature, batch_verify, generate_keypair,
                            hash_to_scalar, point_from_bytes, point_to_bytes,
                            private_from_bytes, private_to_bytes, sign,
                            signature_from_bytes, signature_to_bytes, verify_batch,
                            verify_classic, verify_each, verify_star)


def make_items(rng, count, prefix=b"m"):
    items = []
    for i in range(count):
        keypair = generate_keypair(rng)
        message = prefix + i.to_bytes(4, "big")
        items.append((message, sign(message, keypair.private, rng), keypair.public))
    return items


def test_keygen_in_range_and_consistent():
    keypair = generate_keypair(random.Random(42))
    assert 1 <= keypair.private < N
    assert keypair.public == scalar_mul(keypair.private, G)
    again = generate_keypair(random.Random(42))
    assert again == keypair
    other = generate_keypair(random.Random(43))
    assert other != keypair


def test_sign_verify_roundtrip():
    rng = random.Random(1)
    keypair = generate_keypair(rng)
    message = b"location proof payload"
    star = sign(message, keypair.private, rng)
    assert verify_star(message, star, keypair.public)
    assert verify_classic(message, star.to_classic(), keypair.public)
    assert not verify_star(b"other payload", star, keypair.public)
    other = generate_keypair(rng)
    assert not verify_star(message, star, other.public)


def test_sign_rejects_bad_private_key():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        sign(b"x", 0, rng)
    with pytest.raises(ValueError):
        sign(b"x", N, rng)


def test_classic_and_star_agree():
    rng = random.Random(77)
    for i in range(40):
        keypair = generate_keypair(rng)
        message = f"agree-{i}".encode()
        star = sign(message, keypair.private, rng)
        classic = star.to_classic()
        assert verify_star(message, star, keypair.public)
        assert verify_classic(message, classic, keypair.public)
        broken = StarSignature(R=star.R, s=(star.s + 1) % N or 1)
        assert not verify_star(message, broken, keypair.public)
        assert not verify_classic(message, broken.to_classic(), keypair.public)


def test_every_bit_flip_of_message_rejects():
    rng = random.Random(3)
    keypair = generate_keypair(rng)
    message = b"8bytemsg"
    star = sign(message, keypair.private, rng)
    assert verify_star(message, star, keypair.public)
    for bit in range(8 * len(message)):
        mutated = bytearray(message)
        mutated[bit // 8] ^= 1 << (bit % 8)
        assert not verify_star(bytes(mutated), star, keypair.public)


def test_verify_rejects_degenerate_inputs():
    rng = random.Random(9)
    keypair = generate_keypair(rng)
    message = b"m"
    star = sign(message, keypair.private, rng)
    assert not verify_classic(message, Signature(r=0, s=star.s), keypair.public)
    assert not verify_classic(message, Signature(r=star.R.x % N, s=0), keypair.public)
    assert not verify_classic(message, Signature(r=N, s=star.s), keypair.public)
    assert not verify_star(message, StarSignature(R=INFINITY, s=star.s), keypair.public)
    off_curve = Point(star.R.x, (star.R.y + 1) % P)
    assert not verify_star(message, StarSignature(R=off_curve, s=star.s), keypair.public)
    negated = Point(star.R.x, (-star.R.y) % P)
    assert not verify_star(message, StarSignature(R=negated, s=star.s), keypair.public)
    assert not verify_star(message, star, INFINITY)


def test_batch_singleton_agrees_with_individual():
    rng = random.Random(21)
    items = make_items(rng, 1)
    assert batch_verify(items, rng) == verify_star(*items[0])
    message, star, public = items[0]
    broken = [(message, StarSignature(star.R, (star.s + 1) % N or 1), public)]
    assert not batch_verify(broken, rng)


def test_batch_of_25_valid_accepts():
    rng = random.Random(22)
    items = make_items(rng, 25)
    assert batch_verify(items, rng)
    assert all(verify_each(items))


def test_batch_rejects_and_fallback_localizes():
    rng = random.Random(23)
    items = make_items(rng, 25)
    message, star, public = items[13]
    items[13] = (message, StarSignature(star.R, (star.s + 1) % N or 1), public)
    assert not batch_verify(items, rng)
    flags = verify_each(items)
    assert flags.count(False) == 1 and not flags[13]


def test_batch_soundness_monte_carlo_small():
    # The acceptance suite runs the full 1000 trials; this is a smoke run.
    rng = random.Random(24)
    items = make_items(rng, 10)
    message, star, public = items[4]
    items[4] = (message, StarSignature(star.R, (star.s + 1) % N or 1), public)
    assert all(not batch_verify(items, rng) for _ in range(50))


def test_batch_rejects_structural_garbage():
    rng = random.Random(25)
    items = make_items(rng, 3)
    message, star, public = items[0]
    bad_r = [(message, StarSignature(Point(star.R.x, (star.R.y + 1) % P), star.s), public)]
    assert not batch_verify(bad_r, rng)
    bad_q = [(message, star, Point(public.x, (public.y + 1) % P))]
    assert not batch_verify(bad_q, rng)
    assert not batch_verify([(message, star, INFINITY)], rng)
    with pytest.raises(ValueError):
        batch_verify([], rng)


def test_batch_rejects_negated_nonce_point():
    # -R has the same x as R, so the classic check accepts it; the batch
    # equation must not, whatever sign the folded lambda_i * (-R_i) has.
    rng = random.Random(27)
    items = make_items(rng, 8)
    message, star, public = items[5]
    negated = StarSignature(Point(star.R.x, P - star.R.y), star.s)
    assert verify_classic(message, negated.to_classic(), public)
    items[5] = (message, negated, public)
    assert not batch_verify(items, rng)
    assert not batch_verify([items[5]], rng)


def test_batch_mixed_with_valid_items_still_rejects():
    rng = random.Random(26)
    items = make_items(rng, 8)
    message, star, public = items[2]
    items[2] = (b"different message", star, public)
    assert not batch_verify(items, rng)


# --- locating the invalid items of a failed batch ---

INVALID_KINDS = ("bumped_s", "other_key", "off_curve_r", "s_zero", "s_n", "off_curve_key")


@functools.lru_cache(maxsize=None)
def _bisect_pool():
    """25 valid items, and per item a signature of its message under the next item's key."""
    rng = random.Random(33)
    keypairs = [generate_keypair(rng) for _ in range(25)]
    messages = [b"bisect" + i.to_bytes(4, "big") for i in range(25)]
    items = tuple((m, sign(m, k.private, rng), k.public) for m, k in zip(messages, keypairs))
    forged = tuple(sign(m, keypairs[(i + 1) % 25].private, rng) for i, m in enumerate(messages))
    return items, forged


def _invalid(index, kind):
    items, forged = _bisect_pool()
    message, star, public = items[index]
    if kind == "bumped_s":
        return message, StarSignature(star.R, (star.s + 1) % N or 1), public
    if kind == "other_key":
        return message, forged[index], public
    if kind == "off_curve_r":
        return message, StarSignature(Point(star.R.x, (star.R.y + 1) % P), star.s), public
    if kind in ("s_zero", "s_n"):
        return message, StarSignature(star.R, 0 if kind == "s_zero" else N), public
    return message, star, Point(public.x, (public.y + 1) % P)


@st.composite
def _dirty_batches(draw):
    """(items, seed): 1-25 items, of which 0, 1, 2 or all are invalid."""
    size = draw(st.integers(1, 25))
    count = min(draw(st.sampled_from((0, 1, 2, size))), size)
    bad = draw(st.lists(st.integers(0, size - 1), min_size=count, max_size=count,
                        unique=True))
    kinds = {index: draw(st.sampled_from(INVALID_KINDS)) for index in bad}
    items = [_invalid(i, kinds[i]) if i in kinds else _bisect_pool()[0][i]
             for i in range(size)]
    return items, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=25, deadline=None)
@given(_dirty_batches())
def test_verify_batch_flags_equal_verify_each(batch):
    items, seed = batch
    refused = []  # ids of the items an individual check refused

    def recording(chunk):
        flags = verify_each(chunk)
        refused.extend(id(item) for item, ok in zip(chunk, flags) if not ok)
        return flags

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sigmod, "verify_each", recording)
        flags = verify_batch(items, random.Random(seed))
    assert flags == verify_each(items)
    assert all(ok or id(item) in refused for item, ok in zip(items, flags))


@pytest.fixture
def checks(monkeypatch):
    """(name, item count) of each batch_verify and verify_each call, in order.

    ``verify_batch`` makes its one batch check through ``batch_verify``,
    so the check counts once per call.  A batch with a malformed item also
    shows the call that item stopped before any randomizer or sum.
    """
    calls = []
    for name in ("batch_verify", "verify_each"):
        def counted(*args, _name=name, _original=getattr(sigmod, name), **kwargs):
            calls.append((_name, len(args[0])))
            return _original(*args, **kwargs)
        monkeypatch.setattr(sigmod, name, counted)
    return calls


def test_valid_batch_costs_one_batch_check_and_its_randomizers(checks):
    items = _bisect_pool()[0]
    for size in (1, 2, 25):
        checks.clear()
        rng, alone = random.Random(size), random.Random(size)
        assert verify_batch(items[:size], rng) == [True] * size
        assert checks == [("batch_verify", size)]
        assert batch_verify(items[:size], alone)
        assert rng.getstate() == alone.getstate()


def test_one_invalid_item_takes_logarithmically_many_checks(checks):
    for size in (2, 3, 8, 25):
        for index in range(size):
            items = list(_bisect_pool()[0][:size])
            items[index] = _invalid(index, "bumped_s")
            checks.clear()
            flags = verify_batch(items, random.Random(index))
            assert flags == [i != index for i in range(size)]
            # A batch check counts once, and verify_each once per item it checks.
            cost = sum(1 if name == "batch_verify" else count for name, count in checks)
            assert cost <= 2 * math.ceil(math.log2(size)) + 1, (size, index, checks)


def _placements(size, count):
    """Sets of ``count`` indices: packed at the front, packed at the back,
    spread over the whole batch, and three drawn at random."""
    rng = random.Random(size * 10 + count)
    return ([tuple(range(count)), tuple(range(size - count, size)),
             tuple(i * (size - 1) // (count - 1) for i in range(count))]
            + [tuple(sorted(rng.sample(range(size), count))) for _ in range(3)])


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("size", [8, 22, 25])
def test_several_invalid_items_stay_within_the_stated_cost(checks, size, count):
    for bad in _placements(size, count):
        items = [_invalid(i, "other_key") if i in bad else item
                 for i, item in enumerate(_bisect_pool()[0][:size])]
        checks.clear()
        flags = verify_batch(items, random.Random(sum(bad)))
        cost = sum(1 if name == "batch_verify" else n for name, n in checks)
        assert flags == verify_each(items) == [i not in bad for i in range(size)]
        assert cost <= 2 * count * math.ceil(math.log2(size)) + 1, (size, bad, checks)


@pytest.fixture
def msm_calls(monkeypatch):
    """A list that gets one entry per ``multi_scalar_mul`` call made through ``sig``."""
    calls = []

    def counted(pairs, _original=sigmod.multi_scalar_mul):
        calls.append(len(pairs))
        return _original(pairs)
    monkeypatch.setattr(sigmod, "multi_scalar_mul", counted)
    return calls


@pytest.mark.parametrize("size", [8, 22, 25])
def test_one_invalid_item_costs_three_msms_at_every_placement(msm_calls, size):
    # The failed batch check, which is S1, then S2 and one individual check.
    assert size > sigmod.SCAN_SIZE
    for index in range(size):
        items = list(_bisect_pool()[0][:size])
        items[index] = _invalid(index, "other_key" if index % 2 else "bumped_s")
        msm_calls.clear()
        flags = verify_batch(items, random.Random(index))
        assert flags == [i != index for i in range(size)]
        assert len(msm_calls) == 3, (size, index, msm_calls)


def _search_cost(size, bad):
    """MSM calls by the cost rule of ``verify_batch``'s docstring, for
    forgeries at ``bad`` among ``size`` well-formed items."""
    if not bad:
        return 1
    if size <= sigmod.SCAN_SIZE:
        return 1 + size

    def search(lo, hi):
        inside = [i for i in bad if lo <= i < hi]
        if len(inside) == 1:
            return 1
        if hi - lo <= sigmod.SCAN_SIZE:
            return hi - lo
        mid = (lo + hi) // 2
        left = sum(i < mid for i in inside)
        if 0 < left < len(inside):
            return 2 + search(lo, mid) + search(mid, hi)
        return 1 + (search(lo, mid) if left else search(mid, hi))

    return 2 + search(0, size)


def test_several_invalid_items_cost_what_the_rule_says(msm_calls):
    cases = [(size, bad) for size in (3, 4, 5, 8, 13)
             for count in (1, 2) for bad in itertools.combinations(range(size), count)]
    cases += [(25, bad) for count in (2, 3, 4) for bad in _placements(25, count)]
    for size, bad in cases:
        items = [_invalid(i, "bumped_s") if i in bad else item
                 for i, item in enumerate(_bisect_pool()[0][:size])]
        msm_calls.clear()
        assert verify_batch(items, random.Random(size)) == [i not in bad for i in range(size)]
        assert len(msm_calls) == _search_cost(size, bad), (size, bad)


@pytest.mark.parametrize("bad", [(0,), (9,), (2, 20)])
def test_a_failed_batch_is_searched_under_the_checks_own_randomizers(monkeypatch, bad):
    size = 25
    assert size > sigmod.SCAN_SIZE
    items = [_invalid(i, "bumped_s") if i in bad else item
             for i, item in enumerate(_bisect_pool()[0][:size])]
    calls = {"_equation_terms": 0, "_randomizers": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(sigmod, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(sigmod, name, counted)
    rng, alone = random.Random(3), random.Random(3)
    assert verify_batch(items, rng) == [i not in bad for i in range(size)]
    assert calls == {"_equation_terms": 1, "_randomizers": 1}
    # Exactly n randomizers were drawn: the check's, and no fresh ones.
    sigmod._randomizers(size, alone)
    assert rng.getstate() == alone.getstate()


@pytest.mark.parametrize("valid", range(1, sigmod.SCAN_SIZE + 1))
def test_a_malformed_item_beside_few_valid_ones_costs_one_msm(msm_calls, valid):
    # The check runs over the well-formed items alone, and passes.
    for malformed in (0, valid):
        items = list(_bisect_pool()[0][:valid + 1])
        items[malformed] = _invalid(malformed, "s_zero")
        msm_calls.clear()
        assert verify_batch(items, random.Random(valid)) == [i != malformed
                                                             for i in range(valid + 1)]
        assert len(msm_calls) == 1, (valid, malformed, msm_calls)


def _mixed_batch(size, bad, malformed):
    """Forgeries at ``bad``, alternately under another key and with s bumped,
    and an item with s = 0 at ``malformed``."""
    items = list(_bisect_pool()[0][:size])
    for j, index in enumerate(bad):
        items[index] = _invalid(index, ("other_key", "bumped_s")[j % 2])
    items[malformed] = _invalid(malformed, "s_zero")
    return items


@pytest.mark.parametrize("count", [2, 3, 4])
def test_several_forgeries_and_a_malformed_item_flag_like_verify_each(count):
    size = 25
    for bad in _placements(size, count):
        malformed = next(i for i in range(size - 1, -1, -1) if i not in bad)
        items = _mixed_batch(size, bad, malformed)
        flags = verify_batch(items, random.Random(sum(bad)))
        assert flags == verify_each(items)
        assert flags == [i not in bad and i != malformed for i in range(size)], bad


@pytest.mark.parametrize("bad", [(7,), (0, 1), (3, 17, 24)])
def test_a_lone_item_test_that_names_a_valid_item_does_not_settle_the_set(monkeypatch, bad):
    # S2 = (b + 1) * S1 for a valid b happens with probability 2^-64 per
    # set; force it on every set that holds a valid item.
    size = 25
    items = _mixed_batch(size, bad, 12)
    expected = verify_each(items)
    formed = [i for i in range(size) if i != 12]
    named = []

    def wrong(s1, s2, lo, hi):
        b = next((p for p in range(lo, hi) if expected[formed[p]]), None)
        named.append(b)
        return b

    monkeypatch.setattr(sigmod, "_lone_item", wrong)
    assert verify_batch(items, random.Random(5)) == expected
    assert any(b is not None for b in named)


def _tampered(star):
    """The signature, then copies with one bit of s or of R flipped."""
    yield star
    for bit in (0, 1, 100, 255):
        yield StarSignature(star.R, star.s ^ (1 << bit))
    for bit in (0, 7, 200):
        try:
            flipped = point_from_bytes(point_to_bytes(Point(star.R.x ^ (1 << bit), star.R.y)))
        except ValueError:
            continue  # x ^ bit is not an x coordinate on the curve
        yield StarSignature(flipped, star.s)
    yield StarSignature(Point(star.R.x, star.R.y ^ 1), star.s)  # off the curve
    yield StarSignature(Point(star.R.x, P - star.R.y), star.s)  # the parity bit: -R


def test_precomputed_keys_verify_like_plain_points():
    rng = random.Random(28)
    items = make_items(rng, 6)
    keys = precompute([public for _, _, public in items])
    accepted = rejected = 0
    for i, (message, star, public) in enumerate(items):
        for variant in _tampered(star):
            classic = variant.to_classic()
            ok = verify_star(message, variant, public)
            assert verify_star(message, variant, keys[i]) == ok
            assert verify_classic(message, classic, keys[i]) == verify_classic(
                message, classic, public)
            plain = list(items)
            plain[i] = (message, variant, public)
            cached = [(m, sig, key) for (m, sig, _), key in zip(plain, keys)]
            seed = rng.randrange(2 ** 32)
            assert batch_verify(cached, random.Random(seed)) == batch_verify(
                plain, random.Random(seed)) == ok
            assert verify_each(cached) == verify_each(plain)
            accepted += ok
            rejected += not ok
        # Under another key's table, every form refuses.
        other = keys[(i + 1) % len(keys)]
        assert not verify_star(message, star, other)
        assert not verify_classic(message, star.to_classic(), other)
        assert not batch_verify([(message, star, other)], rng)
    assert accepted == len(items) and rejected >= 5 * len(items)


def test_hash_to_scalar_range():
    assert 0 <= hash_to_scalar(b"") < N
    assert hash_to_scalar(b"a") != hash_to_scalar(b"b")


# --- wire formats ---

def test_wire_sizes():
    rng = random.Random(31)
    keypair = generate_keypair(rng)
    star = sign(b"wire", keypair.private, rng)
    assert len(point_to_bytes(keypair.public)) == PUBLIC_KEY_BYTES == 33
    assert len(signature_to_bytes(star)) == SIGNATURE_BYTES == 65
    assert len(private_to_bytes(keypair.private)) == 32


def test_wire_roundtrips():
    rng = random.Random(32)
    for _ in range(10):
        keypair = generate_keypair(rng)
        star = sign(b"roundtrip", keypair.private, rng)
        assert point_from_bytes(point_to_bytes(keypair.public)) == keypair.public
        assert signature_from_bytes(signature_to_bytes(star)) == star
        assert private_from_bytes(private_to_bytes(keypair.private)) == keypair.private


def test_point_decode_rejects_garbage():
    with pytest.raises(ValueError):
        point_from_bytes(b"\x04" + b"\x00" * 32)
    with pytest.raises(ValueError):
        point_from_bytes(b"\x02" + b"\x00" * 31)
    with pytest.raises(ValueError):
        point_from_bytes(b"\x02" + P.to_bytes(32, "big"))
    with pytest.raises(ValueError):
        signature_from_bytes(b"\x00" * 64)


def test_scalar_decoders_reject_out_of_range():
    star = sign(b"range", 7, random.Random(8))
    r_bytes = point_to_bytes(star.R)
    for s in (0, N, 2 ** 256 - 1):
        with pytest.raises(ValueError):
            signature_from_bytes(r_bytes + s.to_bytes(32, "big"))
    for s in (1, N - 1):
        assert signature_from_bytes(r_bytes + s.to_bytes(32, "big")).s == s
    for d in (0, N):
        with pytest.raises(ValueError):
            private_from_bytes(d.to_bytes(32, "big"))
    assert private_from_bytes((N - 1).to_bytes(32, "big")) == N - 1


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=N - 1), st.binary(min_size=0, max_size=64))
def test_roundtrip_property(private, message):
    rng = random.Random(private & 0xFFFF)
    star = sign(message, private, rng)
    public = scalar_mul(private, G)
    assert verify_star(message, star, public)
    assert signature_from_bytes(signature_to_bytes(star)) == star
