"""Context information records, the location store, and location proofs.

A context record pins a device to (id, time, location, activity) and
serializes to exactly 16 bytes:

    device_id  u16 | time  u16 | loc_x  u16 | loc_y  u16 | activity  8 bytes

Locations are fixed point with 1/256 granularity, so the addressable
area is the square [0, 256) x [0, 256).  Time is a saturating u16 tick
counter.  Activity is ASCII, zero padded.

A location proof binds a prover id to the SHA-256 digest of its context
record, signed with ECDSA*; on the wire that is 99 bytes (id 2, digest
32, signature 65).  Verification runs in two stages: the context stage
compares the presented evidence against the record registered at the
location store, the signature stage batch-verifies whatever survived.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
import random
import struct
import warnings
from dataclasses import dataclass
from typing import Sequence

from . import sig as sigmod
from .ec import Point, PrecomputedPoint, precompute, validate_public_key

CI_WIRE_BYTES = 16
PROOF_WIRE_BYTES = 2 + 32 + sigmod.SIGNATURE_BYTES  # 99

ACTIVITY_BYTES = 8
FIXED_POINT_SCALE = 256
COORD_MAX = 0xFFFF
TIME_MAX = 0xFFFF
TIME_TOLERANCE = 1  # ticks of sensing skew tolerated between records

_CI_STRUCT = struct.Struct(">HHHH8s")


@dataclass(frozen=True)
class ContextInformation:
    device_id: int
    time: int
    loc_x: int  # fixed point, 1/256 units
    loc_y: int
    activity: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.device_id <= 0xFFFF:
            raise ValueError("device_id must fit in u16")
        if not 0 <= self.time <= TIME_MAX:
            raise ValueError("time must fit in u16")
        if not (0 <= self.loc_x <= COORD_MAX and 0 <= self.loc_y <= COORD_MAX):
            raise ValueError("location must fit in u16")
        if len(self.activity) != ACTIVITY_BYTES:
            raise ValueError(f"activity must be exactly {ACTIVITY_BYTES} bytes")

    def to_bytes(self) -> bytes:
        return _CI_STRUCT.pack(self.device_id, self.time, self.loc_x, self.loc_y,
                               self.activity)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ContextInformation":
        if len(data) != CI_WIRE_BYTES:
            raise ValueError(f"context record must be {CI_WIRE_BYTES} bytes")
        device_id, time, loc_x, loc_y, activity = _CI_STRUCT.unpack(data)
        return cls(device_id=device_id, time=time, loc_x=loc_x, loc_y=loc_y,
                   activity=activity)

    def digest(self) -> bytes:
        return hashlib.sha256(self.to_bytes()).digest()


def encode_activity(activity: str) -> bytes:
    raw = activity.encode("ascii")
    if len(raw) > ACTIVITY_BYTES:
        raise ValueError(f"activity longer than {ACTIVITY_BYTES} bytes")
    return raw.ljust(ACTIVITY_BYTES, b"\x00")


def sense_context(device_id: int, clock: float, position: tuple[float, float],
                  activity: str) -> ContextInformation:
    """Quantize a physical state into a context record.

    Time saturates at the u16 ceiling; coordinates outside the
    addressable area are clamped with a warning rather than rejected, so
    a sensing glitch degrades instead of crashing a round.  The top edge
    of a 256-unit area lands exactly one quantization step past the u16
    ceiling, so an overshoot of a single step saturates silently.
    """
    time = min(int(clock), TIME_MAX)
    coords = []
    for value in position:
        fixed = round(value * FIXED_POINT_SCALE)
        if fixed < 0 or fixed > COORD_MAX + 1:
            warnings.warn(f"position {value:g} outside the addressable area; clamping",
                          stacklevel=2)
        fixed = min(max(fixed, 0), COORD_MAX)
        coords.append(fixed)
    return ContextInformation(device_id=device_id, time=time,
                              loc_x=coords[0], loc_y=coords[1],
                              activity=encode_activity(activity))


def euclidean_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Plain Euclidean distance between two coordinate sequences."""
    if len(a) != len(b):
        raise ValueError("coordinate dimensions differ")
    return math.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b)))


def ci_matches(stored: ContextInformation, presented: ContextInformation) -> bool:
    """Compare two context records the way a verifier does.

    Identity, location, and activity must agree byte for byte; the time
    fields may differ by at most ``TIME_TOLERANCE`` ticks of sensing
    skew.
    """
    return (stored.device_id == presented.device_id
            and stored.loc_x == presented.loc_x
            and stored.loc_y == presented.loc_y
            and stored.activity == presented.activity
            and abs(stored.time - presented.time) <= TIME_TOLERANCE)


def _digest_matches_store(digest: bytes, stored: ContextInformation) -> bool:
    # An honest prover signed the stored record itself, so that is tried
    # first; the signed record may also sit a tolerated tick away from it.
    if stored.digest() == digest:
        return True
    for delta in range(1, TIME_TOLERANCE + 1):
        for time in (stored.time - delta, stored.time + delta):
            if 0 <= time <= TIME_MAX and dataclasses.replace(stored, time=time).digest() == digest:
                return True
    return False


class Verdict(enum.Enum):
    CONFIRMED = "confirmed"
    COMPROMISED_SIGNATURE = "compromised_signature"
    COMPROMISED_CONTEXT = "compromised_context"
    NOT_REGISTERED = "not_registered"


class ProofRejected(RuntimeError):
    """A prover refused to answer: no proof request was pending."""


@dataclass(frozen=True)
class LocationProof:
    prover_id: int
    ci_digest: bytes
    signature: sigmod.StarSignature

    def to_bytes(self) -> bytes:
        return (self.prover_id.to_bytes(2, "big") + self.ci_digest
                + sigmod.signature_to_bytes(self.signature))

    @classmethod
    def from_bytes(cls, data: bytes) -> "LocationProof":
        if len(data) != PROOF_WIRE_BYTES:
            raise ValueError(f"proof must be {PROOF_WIRE_BYTES} bytes")
        return cls(prover_id=int.from_bytes(data[:2], "big"),
                   ci_digest=data[2:34],
                   signature=sigmod.signature_from_bytes(data[34:]))


def generate_proof(ci: ContextInformation, private: int, rng: random.Random,
                   *, request_pending: bool) -> LocationProof:
    """Build a location proof for a context record.

    Unsolicited proofs are refused: a prover only answers when a
    verifier's request is actually pending.
    """
    if not request_pending:
        raise ProofRejected("no pending proof request")
    digest = ci.digest()
    return LocationProof(prover_id=ci.device_id, ci_digest=digest,
                         signature=sigmod.sign(digest, private, rng))


class LbsStore:
    """The location store: registered keys, latest context, latest proof.

    Context records follow last-write-wins per device id; proofs keep a
    first-come-first-served queue of depth one per device id (the latest
    accepted proof replaces the previous one).

    Next to each registered key the store keeps, once that key has been
    verified, an ``ec.PrecomputedPoint`` in ``key_tables``: the key with
    its odd-multiple table (``ec.PrecomputedPoint`` says how wide and how
    large), which every later verification under that key reuses.  The
    keys missing from one call are built together by one
    ``ec.precompute`` call, whose rounds each share one field inversion
    across all of them.  Registering a key drops
    the id's table, so keys must change through ``register_public_key``.
    The tables are a verifier-side cache and not part of
    ``storage_bytes``.
    """

    def __init__(self) -> None:
        self.contexts: dict[int, ContextInformation] = {}
        self.public_keys: dict[int, Point] = {}
        self.key_tables: dict[int, PrecomputedPoint] = {}
        self.proofs: dict[int, LocationProof] = {}

    def register_public_key(self, device_id: int, public: Point) -> None:
        self.public_keys[device_id] = public
        self.key_tables.pop(device_id, None)

    def verification_keys(self, device_ids: Sequence[int]) -> list[sigmod.PublicKey]:
        """The registered keys of ``device_ids``, as tables where the key is usable.

        Tables missing for these ids are built in one ``precompute`` call
        and kept; when none is missing, nothing is built.  A key that is
        infinite or off the curve gets no table and is returned as
        registered, for the signature checks to refuse.
        """
        missing = {device_id: self.public_keys[device_id] for device_id in device_ids
                   if device_id not in self.key_tables
                   and validate_public_key(self.public_keys[device_id])}
        if missing:
            self.key_tables.update(zip(missing, precompute(list(missing.values()))))
        return [self.key_tables.get(device_id, self.public_keys[device_id])
                for device_id in device_ids]

    def store_context(self, ci: ContextInformation) -> None:
        self.contexts[ci.device_id] = ci

    def get_context(self, device_id: int) -> ContextInformation | None:
        return self.contexts.get(device_id)

    def store_proof(self, proof: LocationProof) -> None:
        self.proofs[proof.prover_id] = proof

    def context_bytes(self) -> int:
        return CI_WIRE_BYTES * len(self.contexts)

    def storage_bytes(self) -> int:
        return (self.context_bytes()
                + sigmod.PUBLIC_KEY_BYTES * len(self.public_keys)
                + PROOF_WIRE_BYTES * len(self.proofs))


@dataclass(frozen=True)
class ProofPresentation:
    """What a verifier holds about one presenting node.

    ``observed`` is the verifier-side sensing of the node that answered
    the request — its actual position and behaviour, under the identity
    it claims.
    """

    proof: LocationProof
    observed: ContextInformation


def verify_proof_batch(presentations: Sequence[ProofPresentation], lbs: LbsStore,
                       rng: random.Random, batch_size: int = 25,
                       use_batch: bool = True) -> list[Verdict]:
    """Adjudicate a round of presented proofs.

    Stage 1 (context): a presenter whose id has no registered record is
    NOT_REGISTERED.  Otherwise the stored record must agree with both
    the verifier's own observation and the digest the prover signed
    (allowing one tick of sensing skew); any disagreement is
    COMPROMISED_CONTEXT.

    Stage 2 (signatures): survivors are verified in chunks of
    ``batch_size`` by ``sig.verify_batch``.  A clean chunk confirms
    everyone in it with one batch check; a dirty one is bisected, and the
    signatures that fail their individual check are
    COMPROMISED_SIGNATURE.  Both paths verify under
    ``lbs.verification_keys``: the first call that verifies a key builds
    its ``ec.PrecomputedPoint`` (one pass for all of a call's new keys),
    and later calls reuse it.  A ``batch_size`` below 1 is a
    ``ValueError``.

    Verdicts come back aligned with the input order, which is what lets
    this handle several presenters claiming the same id in one round.
    ``use_batch=False`` forces the individual path (``sig.verify_each``);
    the verdicts are the same either way, since the batch path flags a
    signature only on a failed individual check and misses an invalid one
    with probability at most 2^-64 per batch check on its path (see
    ``sig.verify_batch``).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    verdicts: list[Verdict | None] = [None] * len(presentations)
    survivors: list[int] = []

    for idx, pres in enumerate(presentations):
        claimed = pres.proof.prover_id
        stored = lbs.get_context(claimed)
        if stored is None or lbs.public_keys.get(claimed) is None:
            verdicts[idx] = Verdict.NOT_REGISTERED
            continue
        if not ci_matches(stored, pres.observed):
            verdicts[idx] = Verdict.COMPROMISED_CONTEXT
            continue
        if not _digest_matches_store(pres.proof.ci_digest, stored):
            verdicts[idx] = Verdict.COMPROMISED_CONTEXT
            continue
        survivors.append(idx)

    keys = lbs.verification_keys([presentations[idx].proof.prover_id for idx in survivors])
    items: list[sigmod.BatchItem] = [
        (presentations[idx].proof.ci_digest, presentations[idx].proof.signature, public)
        for idx, public in zip(survivors, keys)]

    for start in range(0, len(survivors), batch_size):
        chunk = items[start:start + batch_size]
        flags = (sigmod.verify_batch(chunk, rng) if use_batch
                 else sigmod.verify_each(chunk))
        for idx, ok in zip(survivors[start:start + batch_size], flags):
            verdicts[idx] = Verdict.CONFIRMED if ok else Verdict.COMPROMISED_SIGNATURE

    assert all(v is not None for v in verdicts)
    return verdicts  # type: ignore[return-value]
