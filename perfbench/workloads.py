"""The three benchmark workloads.

Every input comes from the benchmark seed: the simulator receives only
network configurations whose seeds are derived from it, and the
``proof-mix`` pool is built from streams derived from it.  Each step's
output is checked against what the inputs say it must be.

* ``dense-rounds``: one dense network (N=500, 50 clones, 30 verifiers,
  batch size 25) driven for many consecutive rounds.
* ``sparse-seeds``: a fresh sparse network (N=100, 20 clones) for each
  of many consecutive seeds, two rounds each.
* ``proof-mix``: ``context.verify_proof_batch`` alone, on batches of 25
  pre-built presentations drawn from a labelled pool.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from cloneguard import context, sig, sim

from harness import Run
from spans import SETUP, STEP


def derive(seed: int, label: str) -> int:
    """A 64-bit seed for one input stream, derived from the benchmark seed."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Workload:
    name: str
    min_steps: int      # steps every run takes, whatever its length
    tail_pct: int       # step_s.tail percentile: min_steps * (1 - pct/100) >= 10
    digest_rounds: int  # rounds the decision digest covers (0: no digest)
    drive: Callable[[Run, int, "Digest"], None]
    expected: dict[str, tuple[str, ...]]  # phase -> layers that must see calls


# === Simulator workloads ===


class Digest:
    """SHA-256 over the decisions of the first ``rounds`` rounds of a run.

    Covers each round's verdicts in target order, the detections with
    their simulated detection times, and each network's message and
    byte totals.  A speed-up must leave it bit-identical.
    """

    def __init__(self, rounds: int):
        self.rounds = rounds
        self.seen = 0
        self._hash = hashlib.sha256()

    @property
    def open(self) -> bool:
        return self.seen < self.rounds

    def add_round(self, state: sim.SimulationState, result: sim.RoundResult) -> None:
        if not self.open:
            return
        lines = [f"round {result.round_no}"]
        lines += [f"{node.idx} {result.verdicts[node.idx].value}" for node in state.targets()]
        lines += [f"detect {d.clone_idx} {d.victim_idx} {d.device_id} {d.case} "
                  f"{d.round_no} {d.detection_time_ms!r}" for d in result.detections]
        self._hash.update(("\n".join(lines) + "\n").encode())
        self.seen += 1

    def add_totals(self, state: sim.SimulationState) -> None:
        sink = state.sink
        self._hash.update(f"totals {sink.total_messages()} {sink.total_bytes()}\n".encode())

    def hexdigest(self) -> str | None:
        return self._hash.hexdigest() if self.seen else None


def build_network(config: sim.NetworkConfig) -> sim.SimulationState:
    state = sim.init_network(config)
    sim.inject_clones(state)
    return state


def advance(state: sim.SimulationState) -> sim.RoundResult:
    """One round as ``run_experiment`` drives it: move (after round 1), detect."""
    if state.round_no > 0:
        sim.mobility_step(state)
    return sim.run_detection_round(state)


def round_ok(state: sim.SimulationState, result: sim.RoundResult) -> bool:
    """Every clone flagged, every honest prover confirmed, nothing else."""
    targets = state.targets()
    if set(result.verdicts) != {node.idx for node in targets}:
        return False
    for node in targets:
        confirmed = result.verdicts[node.idx] is context.Verdict.CONFIRMED
        if confirmed == (node.role == sim.ROLE_CLONE):
            return False
    clones = sum(1 for node in targets if node.role == sim.ROLE_CLONE)
    return result.false_positives == 0 and len(result.detections) == clones


def sim_step(run: Run, state: sim.SimulationState, digest: Digest) -> None:
    def check(result: sim.RoundResult) -> tuple[int, bool]:
        digest.add_round(state, result)
        return len(result.verdicts), round_ok(state, result)

    run.step(lambda: advance(state), check)


DENSE = sim.NetworkConfig(num_devices=500, environment="dense", num_clones=50,
                          num_verifiers=30, batch_size=25)
SPARSE = sim.NetworkConfig(num_devices=100, environment="sparse", num_clones=20,
                           num_verifiers=30, batch_size=25, rounds=2)
DENSE_SETUPS = 9


def drive_dense_rounds(run: Run, seed: int, digest: Digest) -> None:
    config = dataclasses.replace(DENSE, seed=derive(seed, "dense-rounds"))
    for _ in range(DENSE_SETUPS):
        state = None  # one network alive at a time, so peak memory is one network's
        with run.unit():
            state = run.setup(lambda: build_network(config))
    while not run.done():
        with run.unit():
            sim_step(run, state, digest)
        if run.steps == digest.rounds:
            digest.add_totals(state)


def drive_sparse_seeds(run: Run, seed: int, digest: Digest) -> None:
    index = 0
    while not run.done():
        config = dataclasses.replace(SPARSE, seed=derive(seed, f"sparse-seeds:{index}"))
        with run.unit():
            state = run.setup(lambda: build_network(config))
            for _ in range(config.rounds):
                sim_step(run, state, digest)
        if index < digest.rounds // config.rounds:
            digest.add_totals(state)
        index += 1


# === Library workload: proof-mix ===

HONEST = "honest"
FORGED = "forged"              # signed with another device's key
STALE = "stale"                # an older record of the prover, replayed
MOVED = "moved"                # the verifier observes the prover elsewhere
UNREGISTERED = "unregistered"  # an id the store has never seen

EXPECTED_VERDICT = {
    HONEST: context.Verdict.CONFIRMED,
    FORGED: context.Verdict.COMPROMISED_SIGNATURE,
    STALE: context.Verdict.COMPROMISED_CONTEXT,
    MOVED: context.Verdict.COMPROMISED_CONTEXT,
    UNREGISTERED: context.Verdict.NOT_REGISTERED,
}

BATCH = 25
# A block of eight batches in fixed proportions: six clean, one whose
# bad items all fall at the context stage (the batch equation still
# holds), one with a forged signature (the batch fails and every
# survivor is verified on its own).  Order within a block is seeded.
BATCH_KINDS = {
    "clean": {HONEST: BATCH},
    "context-dirty": {HONEST: BATCH - 3, STALE: 1, MOVED: 1, UNREGISTERED: 1},
    "signature-dirty": {HONEST: BATCH - 4, FORGED: 1, STALE: 1, MOVED: 1, UNREGISTERED: 1},
}
BLOCK = ("clean",) * 6 + ("context-dirty", "signature-dirty")

POOL_DEVICES = 200   # registered devices, one honest presentation each
POOL_BAD = 16        # presentations of each bad label
POOL_TICK = 100
POOL_SETUPS = 9


@dataclass(frozen=True)
class Pool:
    lbs: context.LbsStore
    presentations: dict[str, list[context.ProofPresentation]]


def _position(rng: random.Random) -> tuple[float, float]:
    return rng.uniform(0.0, 255.0), rng.uniform(0.0, 255.0)


def build_pool(seed: int) -> Pool:
    """Keys, the location store and a signed presentation of each label."""
    rng = random.Random(derive(seed, "proof-mix:pool"))
    key_rng = random.Random(derive(seed, "proof-mix:keys"))
    nonce_rng = random.Random(derive(seed, "proof-mix:nonces"))
    keys = [sig.generate_keypair(key_rng) for _ in range(POOL_DEVICES + POOL_BAD)]
    lbs = context.LbsStore()
    records = []
    for dev in range(POOL_DEVICES):
        activity = sim.ACTIVITIES[dev % len(sim.ACTIVITIES)]
        ci = context.sense_context(dev, POOL_TICK, _position(rng), activity)
        lbs.register_public_key(dev, keys[dev].public)
        lbs.store_context(ci)
        records.append(ci)

    def proof(ci, dev_key):
        return context.generate_proof(ci, dev_key.private, nonce_rng, request_pending=True)

    pres = context.ProofPresentation
    pool: dict[str, list[context.ProofPresentation]] = {
        HONEST: [pres(proof(ci, keys[dev]), ci) for dev, ci in enumerate(records)],
        FORGED: [], STALE: [], MOVED: [], UNREGISTERED: []}
    for j in range(POOL_BAD):
        dev = rng.randrange(POOL_DEVICES)
        ci = records[dev]
        other = keys[(dev + 1 + rng.randrange(POOL_DEVICES - 1)) % POOL_DEVICES]
        forged = context.LocationProof(prover_id=dev, ci_digest=ci.digest(),
                                       signature=sig.sign(ci.digest(), other.private, nonce_rng))
        pool[FORGED].append(pres(forged, ci))

        dev = rng.randrange(POOL_DEVICES)
        ci = records[dev]
        old_time = POOL_TICK - context.TIME_TOLERANCE - 1 - rng.randrange(50)
        old = context.ContextInformation(dev, old_time, ci.loc_x, ci.loc_y, ci.activity)
        pool[STALE].append(pres(proof(old, keys[dev]), ci))

        dev = rng.randrange(POOL_DEVICES)
        ci = records[dev]
        elsewhere = ci
        while (elsewhere.loc_x, elsewhere.loc_y) == (ci.loc_x, ci.loc_y):
            activity = sim.ACTIVITIES[dev % len(sim.ACTIVITIES)]
            elsewhere = context.sense_context(dev, POOL_TICK, _position(rng), activity)
        pool[MOVED].append(pres(proof(ci, keys[dev]), elsewhere))

        dev = POOL_DEVICES + j
        ci = context.sense_context(dev, POOL_TICK, _position(rng), "sensing")
        pool[UNREGISTERED].append(pres(proof(ci, keys[dev]), ci))
    return Pool(lbs=lbs, presentations=pool)


def make_batch(pool: Pool, kind: str, rng: random.Random
               ) -> tuple[list[context.ProofPresentation], list[context.Verdict]]:
    """A shuffled batch of one kind and the verdict each item must get."""
    picked: list[tuple[context.ProofPresentation, str]] = []
    for label, count in BATCH_KINDS[kind].items():
        picked += [(p, label) for p in rng.sample(pool.presentations[label], count)]
    rng.shuffle(picked)
    return [p for p, _ in picked], [EXPECTED_VERDICT[label] for _, label in picked]


def drive_proof_mix(run: Run, seed: int, digest: Digest) -> None:
    for _ in range(POOL_SETUPS):
        pool = None
        with run.unit():
            pool = run.setup(lambda: build_pool(seed))
    batch_rng = random.Random(derive(seed, "proof-mix:batches"))
    randomizers = random.Random(derive(seed, "proof-mix:randomizers"))
    while not run.done():
        kinds = list(BLOCK)
        batch_rng.shuffle(kinds)
        with run.unit():
            for kind in kinds:
                batch, labels = make_batch(pool, kind, batch_rng)
                run.step(lambda: context.verify_proof_batch(batch, pool.lbs, randomizers,
                                                            batch_size=BATCH),
                         lambda verdicts: (len(batch), verdicts == labels))


# === Registry ===

SIM_STEP_LAYERS = ("ec.multi_scalar_mul", "ec.scalar_mul", "sig.sign", "sig.batch_verify",
                   "context.verify_proof_batch", "context.sense_context",
                   "context.generate_proof", "trust.finish_round",
                   "trust.record_interaction", "sim.build_graph", "sim.mobility_step",
                   "sim.run_detection_round", "metrics.log")
SIM_SETUP_LAYERS = ("sim.init_network", "sim.inject_clones", "sig.generate_keypair",
                    "ec.scalar_mul", "context.sense_context", "metrics.log")

WORKLOADS = {
    "dense-rounds": Workload(
        "dense-rounds", min_steps=25, tail_pct=60, digest_rounds=10, drive=drive_dense_rounds,
        expected={STEP: SIM_STEP_LAYERS, SETUP: SIM_SETUP_LAYERS}),
    "sparse-seeds": Workload(
        "sparse-seeds", min_steps=100, tail_pct=90, digest_rounds=20, drive=drive_sparse_seeds,
        expected={STEP: SIM_STEP_LAYERS, SETUP: SIM_SETUP_LAYERS}),
    "proof-mix": Workload(
        "proof-mix", min_steps=504, tail_pct=98, digest_rounds=0, drive=drive_proof_mix,
        expected={STEP: ("ec.multi_scalar_mul", "sig.batch_verify", "sig.verify_each",
                         "context.verify_proof_batch"),
                  SETUP: ("sig.generate_keypair", "ec.scalar_mul", "sig.sign",
                          "context.generate_proof", "context.sense_context")}),
}

