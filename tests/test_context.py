"""Context records, the location store, and proof adjudication."""

import dataclasses
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from cloneguard import context
from cloneguard.context import (CI_WIRE_BYTES, PROOF_WIRE_BYTES, TIME_MAX,
                                ContextInformation, LbsStore, LocationProof,
                                ProofPresentation, ProofRejected, Verdict,
                                _digest_matches_store, ci_matches, encode_activity,
                                generate_proof, sense_context, verify_proof_batch)
from cloneguard.ec import N, P, InvalidPointError, Point, PrecomputedPoint
from cloneguard.sig import SCAN_SIZE, StarSignature, generate_keypair, verify_star


def test_sense_context_quantization_example():
    ci = sense_context(7, 0, (1.0, 2.0), "sensing")
    assert (ci.loc_x, ci.loc_y) == (256, 512)
    assert ci.device_id == 7
    assert ci.time == 0
    assert ci.activity == b"sensing\x00"


def test_sense_context_saturates_time():
    ci = sense_context(1, 70000, (0.0, 0.0), "x")
    assert ci.time == TIME_MAX


def test_sense_context_clamps_out_of_area_with_warning():
    with pytest.warns(UserWarning, match="clamping"):
        ci = sense_context(1, 0, (-1.0, 300.0), "x")
    assert (ci.loc_x, ci.loc_y) == (0, 0xFFFF)


def test_sense_context_area_top_edge_saturates_silently():
    # 256.0 quantizes one step past the u16 ceiling; that's the legal top
    # edge of the default area, not a glitch
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ci = sense_context(1, 0, (256.0, 255.998046875), "x")
    assert (ci.loc_x, ci.loc_y) == (0xFFFF, 0xFFFF)


def test_context_wire_format():
    ci = sense_context(0x0102, 0x0304, (5.0, 6.0), "monitor")
    raw = ci.to_bytes()
    assert len(raw) == CI_WIRE_BYTES == 16
    assert raw[:2] == b"\x01\x02"
    assert raw[2:4] == b"\x03\x04"
    assert raw[4:6] == (5 * 256).to_bytes(2, "big")
    assert raw[6:8] == (6 * 256).to_bytes(2, "big")
    assert raw[8:] == b"monitor\x00"
    assert ContextInformation.from_bytes(raw) == ci


def test_context_rejects_malformed_fields():
    with pytest.raises(ValueError):
        ContextInformation(device_id=70000, time=0, loc_x=0, loc_y=0, activity=b"a" * 8)
    with pytest.raises(ValueError):
        ContextInformation(device_id=0, time=0, loc_x=0, loc_y=0, activity=b"short")
    with pytest.raises(ValueError):
        encode_activity("much too long")
    with pytest.raises(ValueError):
        ContextInformation.from_bytes(b"\x00" * 15)


@settings(max_examples=100)
@given(st.integers(0, 0xFFFF), st.integers(0, TIME_MAX), st.integers(0, 0xFFFF),
       st.integers(0, 0xFFFF))
def test_context_roundtrip_property(device_id, time, loc_x, loc_y):
    ci = ContextInformation(device_id=device_id, time=time, loc_x=loc_x,
                            loc_y=loc_y, activity=b"activity")
    assert ContextInformation.from_bytes(ci.to_bytes()) == ci
    assert len(ci.digest()) == 32


def test_ci_matches_rules():
    base = sense_context(4, 10, (8.0, 9.0), "sensing")
    assert ci_matches(base, base)
    assert ci_matches(base, dataclasses.replace(base, time=11))
    assert ci_matches(base, dataclasses.replace(base, time=9))
    assert not ci_matches(base, dataclasses.replace(base, time=12))
    assert not ci_matches(base, dataclasses.replace(base, loc_x=base.loc_x + 1))
    assert not ci_matches(base, dataclasses.replace(base, device_id=5))
    assert not ci_matches(base, dataclasses.replace(base, activity=b"relaying"))


def test_lbs_store_last_write_wins():
    lbs = LbsStore()
    first = sense_context(3, 1, (1.0, 1.0), "a")
    second = sense_context(3, 2, (2.0, 2.0), "a")
    lbs.store_context(first)
    assert lbs.contexts[3] == first
    lbs.store_context(second)
    assert lbs.contexts[3] == second
    assert 99 not in lbs.contexts
    assert len(lbs.contexts) == 1


def test_lbs_store_one_entry_per_device():
    lbs = LbsStore()
    for device_id in range(100):
        lbs.store_context(sense_context(device_id, 0, (1.0, 1.0), "a"))
    assert len(lbs.contexts) == 100


def test_generate_proof_requires_pending_request():
    rng = random.Random(41)
    keypair = generate_keypair(rng)
    ci = sense_context(12, 1, (3.0, 4.0), "sensing")
    with pytest.raises(ProofRejected):
        generate_proof(ci, keypair.private, rng, request_pending=False)
    proof = generate_proof(ci, keypair.private, rng, request_pending=True)
    assert proof.prover_id == 12
    assert proof.ci_digest == ci.digest()
    assert verify_star(proof.ci_digest, proof.signature, keypair.public)


def test_proof_wire_format():
    rng = random.Random(42)
    keypair = generate_keypair(rng)
    ci = sense_context(0x0A0B, 5, (1.0, 2.0), "monitor")
    proof = generate_proof(ci, keypair.private, rng, request_pending=True)
    raw = proof.to_bytes()
    assert len(raw) == PROOF_WIRE_BYTES == 99
    assert raw[:2] == b"\x0a\x0b"
    assert raw[2:34] == ci.digest()
    assert LocationProof.from_bytes(raw) == proof
    with pytest.raises(ValueError):
        LocationProof.from_bytes(raw[:-1])


# --- proof adjudication scenarios ---


class World:
    """A small registered population for adjudication tests."""

    def __init__(self, count, seed=1, tick=1):
        self.rng = random.Random(seed)
        self.lbs = LbsStore()
        self.keypairs = {}
        self.cis = {}
        self.tick = tick
        for device_id in range(count):
            keypair = generate_keypair(self.rng)
            position = (self.rng.uniform(0, 250), self.rng.uniform(0, 250))
            ci = sense_context(device_id, tick, position, "sensing")
            self.keypairs[device_id] = keypair
            self.cis[device_id] = ci
            self.lbs.register_public_key(device_id, keypair.public)
            self.lbs.store_context(ci)

    def honest_presentation(self, device_id):
        ci = self.cis[device_id]
        proof = generate_proof(ci, self.keypairs[device_id].private, self.rng,
                               request_pending=True)
        return ProofPresentation(proof=proof, observed=ci)


def test_all_honest_batch_confirms():
    world = World(30)
    presentations = [world.honest_presentation(i) for i in range(30)]
    verdicts = verify_proof_batch(presentations, world.lbs, world.rng, batch_size=25)
    assert verdicts == [Verdict.CONFIRMED] * 30


@pytest.mark.parametrize("batch_size", [0, -1])
def test_batch_size_below_one_is_refused(batch_size):
    # With a survivor (an honest proof) and without one (only an
    # unregistered prover), so the check does not hinge on stage 2.
    world = World(2)
    ghost_ci = sense_context(77, world.tick, (10.0, 10.0), "sensing")
    ghost = ProofPresentation(generate_proof(ghost_ci, world.keypairs[0].private, world.rng,
                                             request_pending=True), ghost_ci)
    for presentations in ([world.honest_presentation(0)], [ghost]):
        with pytest.raises(ValueError, match="batch_size"):
            verify_proof_batch(presentations, world.lbs, world.rng, batch_size=batch_size)


def test_clone_at_other_position_is_context_compromised():
    world = World(5)
    victim_ci = world.cis[2]
    # The clone holds the victim's copied record and its stolen key, but
    # stands somewhere else; the verifier observes it there.
    clone_pos_ci = dataclasses.replace(victim_ci, loc_x=victim_ci.loc_x + 500)
    proof = generate_proof(victim_ci, world.keypairs[2].private, world.rng,
                           request_pending=True)
    presentation = ProofPresentation(proof=proof, observed=clone_pos_ci)
    verdicts = verify_proof_batch([presentation], world.lbs, world.rng)
    assert verdicts == [Verdict.COMPROMISED_CONTEXT]


def test_stale_copied_record_is_context_compromised():
    world = World(5)
    victim_ci = world.cis[2]
    # The victim has since re-sensed and moved: the store holds fresher
    # context.  The clone presents the stale copy from the victim's old
    # position while standing exactly where the store says the victim is
    # — the digest binding still gives it away.
    fresh = dataclasses.replace(victim_ci, time=victim_ci.time + 5,
                                loc_x=victim_ci.loc_x + 300)
    world.lbs.store_context(fresh)
    proof = generate_proof(victim_ci, world.keypairs[2].private, world.rng,
                           request_pending=True)
    presentation = ProofPresentation(proof=proof, observed=fresh)
    verdicts = verify_proof_batch([presentation], world.lbs, world.rng)
    assert verdicts == [Verdict.COMPROMISED_CONTEXT]


@pytest.mark.parametrize("use_batch", [True, False])
def test_stored_context_without_a_key_is_not_registered(use_batch):
    # The id has a record at the store but no registered key: it must be
    # stopped at the context stage, never reach the signature checks.
    world = World(3)
    keyless_ci = sense_context(77, world.tick, (10.0, 10.0), "sensing")
    world.lbs.store_context(keyless_ci)
    proof = generate_proof(keyless_ci, world.keypairs[0].private, world.rng,
                           request_pending=True)
    presentations = [world.honest_presentation(1), ProofPresentation(proof, keyless_ci)]
    verdicts = verify_proof_batch(presentations, world.lbs, world.rng, use_batch=use_batch)
    assert verdicts == [Verdict.CONFIRMED, Verdict.NOT_REGISTERED]


def test_corrupted_signature_is_signature_compromised():
    world = World(6)
    presentations = [world.honest_presentation(i) for i in range(6)]
    good = presentations[3]
    broken_sig = StarSignature(R=good.proof.signature.R,
                               s=(good.proof.signature.s + 1) % N or 1)
    presentations[3] = ProofPresentation(
        proof=dataclasses.replace(good.proof, signature=broken_sig),
        observed=good.observed)
    verdicts = verify_proof_batch(presentations, world.lbs, world.rng, batch_size=25)
    expected = [Verdict.CONFIRMED] * 6
    expected[3] = Verdict.COMPROMISED_SIGNATURE
    assert verdicts == expected


def test_unregistered_prover_is_flagged():
    world = World(3)
    ghost_key = generate_keypair(world.rng)
    ghost_ci = sense_context(77, world.tick, (10.0, 10.0), "sensing")
    proof = generate_proof(ghost_ci, ghost_key.private, world.rng,
                           request_pending=True)
    verdicts = verify_proof_batch([ProofPresentation(proof, ghost_ci)],
                                  world.lbs, world.rng)
    assert verdicts == [Verdict.NOT_REGISTERED]


def test_one_tick_sensing_skew_still_confirms():
    world = World(3)
    ci = world.cis[1]
    skewed = dataclasses.replace(ci, time=ci.time + 1)
    proof = generate_proof(skewed, world.keypairs[1].private, world.rng,
                          request_pending=True)
    verdicts = verify_proof_batch([ProofPresentation(proof, skewed)],
                                  world.lbs, world.rng)
    assert verdicts == [Verdict.CONFIRMED]


def test_batch_and_individual_paths_agree():
    # Randomized adjudication rounds mixing honest, displaced, corrupted,
    # and unregistered presenters must produce identical verdicts with
    # the batch accelerator on and off.
    rng = random.Random(4242)
    for trial in range(100):
        world = World(6, seed=trial)
        presentations = []
        for device_id in range(6):
            kind = rng.choice(("honest", "honest", "clone", "corrupt", "ghost"))
            if kind == "honest":
                presentations.append(world.honest_presentation(device_id))
            elif kind == "clone":
                ci = world.cis[device_id]
                displaced = dataclasses.replace(ci, loc_y=(ci.loc_y + 700) % 0xFFFF)
                proof = generate_proof(ci, world.keypairs[device_id].private,
                                       world.rng, request_pending=True)
                presentations.append(ProofPresentation(proof, displaced))
            elif kind == "corrupt":
                good = world.honest_presentation(device_id)
                sig = good.proof.signature
                broken = StarSignature(R=sig.R, s=(sig.s + 1) % N or 1)
                presentations.append(ProofPresentation(
                    dataclasses.replace(good.proof, signature=broken),
                    good.observed))
            else:
                ghost_ci = sense_context(1000 + device_id, world.tick,
                                         (20.0, 20.0), "sensing")
                proof = generate_proof(ghost_ci, world.keypairs[device_id].private,
                                       world.rng, request_pending=True)
                presentations.append(ProofPresentation(proof, ghost_ci))
        batched = verify_proof_batch(presentations, world.lbs, random.Random(trial),
                                     batch_size=4, use_batch=True)
        individual = verify_proof_batch(presentations, world.lbs, random.Random(trial),
                                        batch_size=4, use_batch=False)
        assert batched == individual


def test_batch_and_individual_paths_agree_on_full_batches():
    # Chunks of 25 survivors holding 1, 2 or 5 proofs signed with another
    # device's key, among context-stage failures: the bisection of a
    # failed batch must find exactly what the individual path finds.
    rng = random.Random(2525)
    world = World(40, seed=25, tick=10)
    for forged_count in (1, 2, 5):
        for trial in range(2):
            ids = rng.sample(range(40), 40)
            forged, stale, moved = ids[:forged_count], ids[-3:-2], ids[-2:]
            labelled = []
            for device_id in ids[:-3]:
                ci = world.cis[device_id]
                if device_id in forged:
                    other = world.keypairs[(device_id + 1) % 40].private
                    proof = generate_proof(ci, other, world.rng, request_pending=True)
                    labelled.append((ProofPresentation(proof, ci),
                                     Verdict.COMPROMISED_SIGNATURE))
                else:
                    labelled.append((world.honest_presentation(device_id), Verdict.CONFIRMED))
            for device_id in stale:
                ci = world.cis[device_id]
                old = dataclasses.replace(ci, time=ci.time - 5)
                proof = generate_proof(old, world.keypairs[device_id].private, world.rng,
                                       request_pending=True)
                labelled.append((ProofPresentation(proof, ci), Verdict.COMPROMISED_CONTEXT))
            for device_id in moved:
                ci = world.cis[device_id]
                displaced = dataclasses.replace(ci, loc_y=(ci.loc_y + 700) % 0xFFFF)
                proof = generate_proof(ci, world.keypairs[device_id].private, world.rng,
                                       request_pending=True)
                labelled.append((ProofPresentation(proof, displaced),
                                 Verdict.COMPROMISED_CONTEXT))
            ghost_ci = sense_context(1000 + trial, world.tick, (20.0, 20.0), "sensing")
            ghost = generate_proof(ghost_ci, world.keypairs[0].private, world.rng,
                                   request_pending=True)
            labelled.append((ProofPresentation(ghost, ghost_ci), Verdict.NOT_REGISTERED))
            rng.shuffle(labelled)
            presentations = [p for p, _ in labelled]
            batched = verify_proof_batch(presentations, world.lbs, random.Random(trial),
                                         batch_size=25, use_batch=True)
            individual = verify_proof_batch(presentations, world.lbs, random.Random(trial),
                                            batch_size=25, use_batch=False)
            assert batched == individual == [v for _, v in labelled]


def test_digest_check_hashes_the_stored_record_first(monkeypatch):
    hashed = []
    original = ContextInformation.digest

    def counted(ci):
        hashed.append(ci.time)
        return original(ci)

    monkeypatch.setattr(ContextInformation, "digest", counted)
    for time in (0, 7, TIME_MAX):
        stored = ContextInformation(3, time, 10, 20, encode_activity("sensing"))
        hashed.clear()
        assert _digest_matches_store(original(stored), stored)
        assert hashed == [time]  # one hash for an honest survivor
        for skew in (-2, -1, 1, 2):
            if 0 <= time + skew <= TIME_MAX:
                signed = original(dataclasses.replace(stored, time=time + skew))
                assert _digest_matches_store(signed, stored) == (abs(skew) == 1)
        assert not _digest_matches_store(bytes(32), stored)


def _labelled_presentations(world):
    """Presentations of every label, each with the verdict it must draw."""
    rng = world.rng
    labelled = [(world.honest_presentation(i), Verdict.CONFIRMED) for i in range(8)]
    forged_ci = world.cis[1]
    forged = generate_proof(forged_ci, world.keypairs[4].private, rng, request_pending=True)
    labelled.append((ProofPresentation(forged, forged_ci), Verdict.COMPROMISED_SIGNATURE))
    fresh_ci = world.cis[2]
    old_ci = dataclasses.replace(fresh_ci, time=fresh_ci.time - 5)
    stale = generate_proof(old_ci, world.keypairs[2].private, rng, request_pending=True)
    labelled.append((ProofPresentation(stale, fresh_ci), Verdict.COMPROMISED_CONTEXT))
    ci = world.cis[3]
    moved = dataclasses.replace(ci, loc_x=(ci.loc_x + 900) % 0xFFFF)
    proof = generate_proof(ci, world.keypairs[3].private, rng, request_pending=True)
    labelled.append((ProofPresentation(proof, moved), Verdict.COMPROMISED_CONTEXT))
    ghost_ci = sense_context(99, world.tick, (30.0, 30.0), "sensing")
    ghost = generate_proof(ghost_ci, generate_keypair(rng).private, rng, request_pending=True)
    labelled.append((ProofPresentation(ghost, ghost_ci), Verdict.NOT_REGISTERED))
    rng.shuffle(labelled)
    return [p for p, _ in labelled], [v for _, v in labelled]


def test_cached_key_tables_give_the_same_verdicts():
    world = World(8, seed=5, tick=10)
    presentations, expected = _labelled_presentations(world)
    # Only presentations that reach the signature stage build tables.
    stopped = [p for p, v in zip(presentations, expected)
               if v in (Verdict.COMPROMISED_CONTEXT, Verdict.NOT_REGISTERED)]
    verify_proof_batch(stopped, world.lbs, random.Random(1))
    assert world.lbs.key_tables == {}
    # One chunk of 9 survivors, more than SCAN_SIZE, caches every survivor's key.
    verify_proof_batch(presentations, world.lbs, random.Random(1), batch_size=25)
    cached = world.lbs.key_tables
    assert set(cached) == set(range(8))
    assert all(isinstance(t, PrecomputedPoint) and t.point == world.lbs.public_keys[d]
               for d, t in cached.items())
    built = dict(cached)

    fresh = LbsStore()
    for device_id, public in world.lbs.public_keys.items():
        fresh.register_public_key(device_id, public)
        fresh.store_context(world.cis[device_id])
    for batch_size in (1, 4, 25):
        for use_batch in (True, False):
            warm = verify_proof_batch(presentations, world.lbs, random.Random(2),
                                      batch_size=batch_size, use_batch=use_batch)
            cold = verify_proof_batch(presentations, fresh, random.Random(2),
                                      batch_size=batch_size, use_batch=use_batch)
            assert warm == cold == expected
    # Later calls reuse the very same tables rather than rebuilding them.
    assert world.lbs.key_tables == built
    assert all(world.lbs.key_tables[d] is table for d, table in built.items())


def test_calls_of_at_most_scan_size_survivors_build_no_table(monkeypatch):
    world = World(8, seed=9, tick=10)
    presentations, expected = _labelled_presentations(world)
    stopped = [i for i, v in enumerate(expected)
               if v in (Verdict.COMPROMISED_CONTEXT, Verdict.NOT_REGISTERED)]
    forged = expected.index(Verdict.COMPROMISED_SIGNATURE)
    honest = [i for i, v in enumerate(expected) if v is Verdict.CONFIRMED]
    for count in range(1, SCAN_SIZE + 1):
        for survivors in (honest[:count], [forged] + honest[:count - 1]):
            chosen = sorted(stopped + survivors)
            batch = [presentations[i] for i in chosen]
            verdicts = verify_proof_batch(batch, world.lbs, random.Random(count))
            assert verdicts == [expected[i] for i in chosen]
            assert verify_proof_batch(batch, world.lbs, random.Random(count),
                                      use_batch=False) == verdicts
            assert world.lbs.key_tables == {}

    # Once a call above SCAN_SIZE has cached a key's table, a small call
    # still builds nothing and verifies on the plain registered key,
    # whether or not that key has a cached table.
    verify_proof_batch([presentations[i] for i in honest[:SCAN_SIZE + 1]], world.lbs,
                       random.Random(7))
    tables = dict(world.lbs.key_tables)
    assert len(tables) == SCAN_SIZE + 1
    built, seen = [], []
    precompute, verify_batch = context.precompute, context.sigmod.verify_batch
    monkeypatch.setattr(context, "precompute",
                        lambda points: built.append(points) or precompute(points))
    monkeypatch.setattr(context.sigmod, "verify_batch",
                        lambda items, rng: seen.append(items) or verify_batch(items, rng))
    small = [honest[SCAN_SIZE - 1], honest[SCAN_SIZE], honest[SCAN_SIZE + 1], forged]
    verdicts = verify_proof_batch([presentations[i] for i in small], world.lbs,
                                  random.Random(8))
    assert verdicts == [expected[i] for i in small]
    assert built == []
    assert world.lbs.key_tables == tables
    assert all(world.lbs.key_tables[d] is table for d, table in tables.items())
    (items,) = seen
    ids = [presentations[i].proof.prover_id for i in small]
    assert 0 < len(set(ids) & set(tables)) < len(ids)  # ids with a cached table and without
    for device_id, (_, _, key) in zip(ids, items):
        assert key is world.lbs.public_keys[device_id]


def test_a_registered_key_cannot_be_replaced():
    world = World(6, seed=6, tick=10)
    presentations = [world.honest_presentation(i) for i in range(6)]
    assert verify_proof_batch(presentations, world.lbs, world.rng) == [Verdict.CONFIRMED] * 6
    first_key, first_table = world.lbs.public_keys[2], world.lbs.key_tables[2]

    new_key = generate_keypair(world.rng)
    with pytest.raises(ValueError, match="device 2"):
        world.lbs.register_public_key(2, new_key.public)
    under_new = ProofPresentation(
        generate_proof(world.cis[2], new_key.private, world.rng, request_pending=True),
        world.cis[2])
    for use_batch in (True, False):
        verdicts = verify_proof_batch(presentations + [under_new], world.lbs,
                                      random.Random(3), use_batch=use_batch)
        assert verdicts == [Verdict.CONFIRMED] * 6 + [Verdict.COMPROMISED_SIGNATURE]
    assert world.lbs.public_keys[2] is first_key
    assert world.lbs.key_tables[2] is first_table


def test_an_unusable_key_or_a_taken_id_is_refused():
    # More than SCAN_SIZE survivors, so that the call caches their tables.
    count = SCAN_SIZE + 1
    world = World(count, seed=7)
    verify_proof_batch([world.honest_presentation(i) for i in range(count)], world.lbs,
                       world.rng)
    keys, tables = dict(world.lbs.public_keys), dict(world.lbs.key_tables)
    assert sorted(tables) == list(range(count))
    public = world.lbs.public_keys[1]
    with pytest.raises(InvalidPointError):
        Point(public.x, (public.y + 1) % P)  # an off-curve key cannot be built
    for device_id, key in ((count, None),  # infinity
                           (count, (public.x, public.y)),  # not a point
                           (count, world.lbs.key_tables[0]),  # a table, not a Point
                           (1, generate_keypair(world.rng).public)):  # a taken id
        with pytest.raises(ValueError, match=f"device {device_id}"):
            world.lbs.register_public_key(device_id, key)
        assert world.lbs.public_keys == keys
        assert world.lbs.key_tables == tables
        assert all(world.lbs.key_tables[d] is table for d, table in tables.items())


def test_a_presenter_under_a_refused_id_is_not_registered():
    world = World(3, seed=7)
    public = world.lbs.public_keys[1]
    ci = sense_context(5, world.tick, (20.0, 20.0), "sensing")
    world.lbs.store_context(ci)
    proof = generate_proof(ci, generate_keypair(world.rng).private, world.rng,
                           request_pending=True)
    presentations = [world.honest_presentation(0), ProofPresentation(proof, ci)]
    with pytest.raises(InvalidPointError):
        Point(public.x, (public.y + 1) % P)  # an off-curve key cannot be built
    for key in (None, (public.x, public.y)):  # infinity, and not a point
        with pytest.raises(ValueError):
            world.lbs.register_public_key(5, key)
        for use_batch in (True, False):
            assert verify_proof_batch(presentations, world.lbs, random.Random(3),
                                      use_batch=use_batch) == [Verdict.CONFIRMED,
                                                               Verdict.NOT_REGISTERED]


def test_verification_keys_build_only_missing_tables(monkeypatch):
    world = World(2 * SCAN_SIZE + 2, seed=8)
    built = []
    precompute = context.precompute

    def counting_precompute(points):
        built.append(list(points))
        return precompute(points)

    monkeypatch.setattr(context, "precompute", counting_precompute)
    head = list(range(SCAN_SIZE + 1))
    first = world.lbs.verification_keys(head)
    assert built == [[world.lbs.public_keys[d] for d in head]]
    # A repeat call has nothing to build and must not call precompute; a
    # call with one cached key builds the others' tables alone.
    assert world.lbs.verification_keys(head) == first
    assert len(built) == 1
    tail = list(range(SCAN_SIZE, 2 * SCAN_SIZE + 1))
    second = world.lbs.verification_keys(tail)
    assert second[0] is first[SCAN_SIZE]
    assert built[1:] == [[world.lbs.public_keys[d] for d in tail[1:]]]
    # At most SCAN_SIZE ids get their registered Points, whether or not
    # they have cached tables, and nothing is built.
    tables = dict(world.lbs.key_tables)
    uncached = 2 * SCAN_SIZE + 1
    for ids in ([0], head[:SCAN_SIZE], [uncached], [uncached, SCAN_SIZE, 0]):
        keys = world.lbs.verification_keys(ids)
        assert len(keys) == len(ids)
        assert all(key is world.lbs.public_keys[d] for d, key in zip(ids, keys))
    assert len(built) == 2
    assert world.lbs.key_tables == tables


@pytest.mark.parametrize("use_batch", [True, False])
def test_each_chunk_gets_the_keys_its_own_size_calls_for(monkeypatch, use_batch):
    # One call with more than SCAN_SIZE survivors, all honest, so each
    # chunk is exactly one call of the path under test.  Whatever the
    # batch_size, a chunk of at most SCAN_SIZE items verifies on the
    # registered Points and builds nothing.
    count = 2 * SCAN_SIZE + 1
    world = World(count, seed=10, tick=10)
    presentations = [world.honest_presentation(i) for i in range(count)]
    ghost_ci = sense_context(99, world.tick, (30.0, 30.0), "sensing")
    ghost = generate_proof(ghost_ci, world.keypairs[0].private, world.rng, request_pending=True)
    presentations.insert(3, ProofPresentation(ghost, ghost_ci))
    expected = [Verdict.CONFIRMED] * (count + 1)
    expected[3] = Verdict.NOT_REGISTERED
    checks = []
    name = "verify_batch" if use_batch else "verify_each"
    original = getattr(context.sigmod, name)
    monkeypatch.setattr(context.sigmod, name,
                        lambda items, *rng: checks.append(items) or original(items, *rng))

    def keys(items):
        return [key for _, _, key in items]

    for batch_size in (1, SCAN_SIZE):
        checks.clear()
        assert verify_proof_batch(presentations, world.lbs, random.Random(batch_size),
                                  batch_size=batch_size, use_batch=use_batch) == expected
        assert [len(items) for items in checks] == [
            min(batch_size, count - start) for start in range(0, count, batch_size)]
        handed = [key for items in checks for key in keys(items)]
        assert all(key is world.lbs.public_keys[d] for d, key in enumerate(handed))
        assert world.lbs.key_tables == {}

    checks.clear()
    assert verify_proof_batch(presentations, world.lbs, random.Random(0),
                              batch_size=SCAN_SIZE + 1, use_batch=use_batch) == expected
    head, tail = checks
    assert (len(head), len(tail)) == (SCAN_SIZE + 1, SCAN_SIZE)
    assert sorted(world.lbs.key_tables) == list(range(SCAN_SIZE + 1))
    assert all(key is world.lbs.key_tables[d] for d, key in enumerate(keys(head)))
    assert all(key is world.lbs.public_keys[d]
               for d, key in enumerate(keys(tail), SCAN_SIZE + 1))
