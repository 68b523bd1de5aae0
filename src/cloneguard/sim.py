"""Deterministic network simulator for clone-node detection rounds.

A run builds a population of devices on a square area, hands each a
P-256 keypair, registers everything with the location store, injects
clone nodes that replay a victim's copied context with its stolen keys,
and then drives detection rounds: devices sense and store fresh context,
the verifier cohort (the lowest device ids, picked once at set-up)
requests location proofs, checks them against the store, and
batch-verifies the signatures.

Determinism contract: the same (config, seed) produces the same report
byte for byte.  All randomness flows through named streams derived from
the seed; every loop runs in a fixed order; the simulated clock advances
only through logged messages.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from . import context as ctx
from . import metrics as met
from . import sig as sigmod
from .rng import RngHub
from .trust import TrustState

ROLE_PROVER = "prover"
ROLE_VERIFIER = "verifier"
ROLE_CLONE = "clone"
ROLE_IDLE = "idle"
ROLE_LBS = "lbs"

# Devices rotate through a tiny fixed repertoire; what matters to
# detection is that a clone inherits its victim's activity tag.
ACTIVITIES = ("sensing", "relaying", "monitor", "actuate")

TRUST_ZONE_SIZE = 32.0  # side of a coarse location bucket for trust history


class ConfigError(ValueError):
    """A network configuration violates its constraints."""


@dataclass(frozen=True)
class NetworkConfig:
    """Experiment configuration, concrete and valid once it exists.

    ``num_provers`` defaults to 70% of the population (rounded), and
    ``num_clones`` to the environment's nominal load: 20 when sparse,
    50 when dense.  ``num_clones = 0`` is always allowed as the
    clone-free baseline.  Construction fills these defaults and checks
    every constraint, raising ``ConfigError`` that names all violations.
    A derived value is then a field like any other, so
    ``dataclasses.replace`` keeps it: replacing ``num_devices`` or
    ``environment`` does not re-derive ``num_provers`` or ``num_clones``.
    """

    num_devices: int = 100
    num_provers: int | None = None  # None: derived at construction
    num_verifiers: int = 30
    num_clones: int | None = None  # None: derived at construction
    environment: str = "sparse"
    area_side: float = 256.0
    rwp_speed_min: float = 1.0
    rwp_speed_max: float = 5.0
    rwp_pause_min: float = 0.0
    rwp_pause_max: float = 2.0
    rounds: int = 2
    seed: int = 1
    # A verifier sends all of its requests in one wave; batch_size only
    # chunks the signature check in verify_proof_batch.
    batch_size: int = 25
    latency_ms: float = 1.0

    def __post_init__(self) -> None:
        if self.num_provers is None:
            object.__setattr__(self, "num_provers", round(0.7 * self.num_devices))
        if self.num_clones is None:
            object.__setattr__(self, "num_clones", 20 if self.environment == "sparse" else 50)
        problems = [f"{name} ({value}) must be finite"
                    for name, value in dataclasses.asdict(self).items()
                    if isinstance(value, float) and not math.isfinite(value)]
        if not 100 <= self.num_devices <= 500:
            problems.append(f"num_devices ({self.num_devices}) must be within [100, 500]")
        if self.environment not in ("sparse", "dense"):
            problems.append(f"environment ({self.environment!r}) must be 'sparse' or 'dense'")
        if self.num_verifiers < 1:
            problems.append("num_verifiers must be at least 1")
        if self.num_verifiers >= self.num_devices:
            problems.append(f"num_verifiers ({self.num_verifiers}) must be smaller than "
                            f"num_devices ({self.num_devices})")
        if self.num_provers < 1:
            problems.append("num_provers must be at least 1")
        if self.num_provers + self.num_verifiers > self.num_devices:
            problems.append(f"num_provers + num_verifiers ({self.num_provers} + "
                            f"{self.num_verifiers}) must not exceed num_devices "
                            f"({self.num_devices})")
        if self.num_clones != 0:
            if self.environment == "sparse" and self.num_clones != 20:
                problems.append(f"num_clones ({self.num_clones}) must be 20 in a sparse "
                                "environment (or 0 for a clone-free baseline)")
            if self.environment == "dense" and not 25 <= self.num_clones <= 50:
                problems.append(f"num_clones ({self.num_clones}) must be within [25, 50] "
                                "in a dense environment (or 0 for a clone-free baseline)")
        if self.num_clones > self.num_provers:
            problems.append(f"num_clones ({self.num_clones}) must not exceed num_provers "
                            f"({self.num_provers}): every clone needs a distinct victim")
        if not 1 / ctx.FIXED_POINT_SCALE <= self.area_side <= 256.0:
            # Below one quantisation step every position shares the
            # victim's cell, and inject_clones could never place a clone.
            problems.append(f"area_side ({self.area_side}) must be in "
                            f"[{1 / ctx.FIXED_POINT_SCALE}, 256] to span at least one "
                            "quantisation step and stay addressable by the context "
                            "fixed-point encoding")
        if not 0.0 <= self.rwp_speed_min <= self.rwp_speed_max:
            problems.append("rwp speed range must satisfy 0 <= min <= max")
        if not 0.0 <= self.rwp_pause_min <= self.rwp_pause_max:
            problems.append("rwp pause range must satisfy 0 <= min <= max")
        if not 1 <= self.rounds <= ctx.TIME_MAX:
            problems.append(f"rounds ({self.rounds}) must be within [1, {ctx.TIME_MAX}]")
        if self.batch_size < 1:
            problems.append("batch_size must be at least 1")
        if self.latency_ms <= 0.0:
            problems.append("latency_ms must be positive")
        if problems:
            raise ConfigError("; ".join(problems))


@dataclass
class Node:
    idx: int            # physical node index; stable across the run
    device_id: int      # claimed identity; clones share their victim's
    role: str
    x: float
    y: float
    activity: str
    keypair: sigmod.KeyPair
    target_x: float = 0.0
    target_y: float = 0.0
    speed: float = 0.0
    pause_left: float = 0.0
    current_ci: ctx.ContextInformation | None = None  # clones: the copied record
    victim_idx: int | None = None

    def position(self) -> tuple[float, float]:
        return self.x, self.y


@dataclass
class RoundResult:
    round_no: int
    verdicts: dict[int, ctx.Verdict]  # target node idx -> verdict
    detections: list[met.DetectionRecord]
    false_positives: int


@dataclass
class SimulationState:
    config: NetworkConfig
    rngs: RngHub
    nodes: list[Node]
    lbs: ctx.LbsStore
    trust: TrustState
    sink: met.MetricsSink
    round_no: int = 0

    def targets(self) -> list[Node]:
        """Prover-role physical nodes, clones included, in index order."""
        return [n for n in self.nodes if n.role in (ROLE_PROVER, ROLE_CLONE)]

    def verifiers(self) -> list[Node]:
        return [n for n in self.nodes if n.role == ROLE_VERIFIER]


def _zone(x: float, y: float) -> str:
    return f"z{int(x // TRUST_ZONE_SIZE)}_{int(y // TRUST_ZONE_SIZE)}"


def init_network(config: NetworkConfig) -> SimulationState:
    """Build the device population and run the registration phase.

    The verifier cohort is chosen here, once, by trust ranking, and
    keeps its role for the whole run.  With no history yet every device
    scores the neutral default, so the cohort is the lowest device ids —
    reproducible by construction.  Every device then senses its initial
    context, registers its public key, and stores the record with the
    location store.
    """
    hub = RngHub(config.seed)
    place_rng = hub.stream("placement")
    key_rng = hub.stream("keys")
    mob_rng = hub.stream("mobility")

    trust_state = TrustState(range(config.num_devices))
    verifier_ids = set(trust_state.select(config.num_verifiers))
    prover_ids = set(sorted(set(range(config.num_devices)) - verifier_ids)[:config.num_provers])

    sink = met.MetricsSink(config.latency_ms)
    lbs = ctx.LbsStore()

    nodes = []
    keypairs = [sigmod.generate_keypair(key_rng) for _ in range(config.num_devices)]
    for device_id in range(config.num_devices):
        if device_id in verifier_ids:
            role = ROLE_VERIFIER
        elif device_id in prover_ids:
            role = ROLE_PROVER
        else:
            role = ROLE_IDLE
        node = Node(idx=device_id, device_id=device_id, role=role,
                    x=place_rng.uniform(0.0, config.area_side),
                    y=place_rng.uniform(0.0, config.area_side),
                    activity=ACTIVITIES[device_id % len(ACTIVITIES)],
                    keypair=keypairs[device_id])
        _sample_waypoint(node, config, mob_rng)
        nodes.append(node)

    state = SimulationState(config=config, rngs=hub, nodes=nodes, lbs=lbs,
                            trust=trust_state, sink=sink)

    # Registration: enrol the key, then sense at tick 0 and store the record.
    for node in nodes:
        lbs.register_public_key(node.device_id, node.keypair.public)
        sink.log(node.role, "register")
        _sense_and_store(state, node, 0)
    return state


def _sense_and_store(state: SimulationState, node: Node, tick: int) -> None:
    """The node senses its context at ``tick`` and stores it with the location store."""
    ci = ctx.sense_context(node.device_id, tick, node.position(), node.activity)
    node.current_ci = ci
    state.sink.log(node.role, "sense")
    state.lbs.store_context(ci)
    state.sink.log(node.role, "store")
    state.sink.log(ROLE_LBS, "ack")


def _sample_waypoint(node: Node, cfg: NetworkConfig, rng) -> None:
    node.target_x = rng.uniform(0.0, cfg.area_side)
    node.target_y = rng.uniform(0.0, cfg.area_side)
    node.speed = rng.uniform(cfg.rwp_speed_min, cfg.rwp_speed_max)


def mobility_step(state: SimulationState) -> None:
    """Advance every node one random-waypoint tick, in index order."""
    cfg = state.config
    rng = state.rngs.stream("mobility")
    for node in state.nodes:
        if node.pause_left > 0.0:
            node.pause_left -= 1.0
            if node.pause_left <= 0.0:
                node.pause_left = 0.0
                _sample_waypoint(node, cfg, rng)
            continue
        dx = node.target_x - node.x
        dy = node.target_y - node.y
        dist = math.hypot(dx, dy)
        if dist <= node.speed:
            node.x, node.y = node.target_x, node.target_y
            pause = rng.uniform(cfg.rwp_pause_min, cfg.rwp_pause_max)
            if pause > 0.0:
                node.pause_left = pause
            else:
                _sample_waypoint(node, cfg, rng)  # zero pause: retarget now
        else:
            node.x += dx / dist * node.speed
            node.y += dy / dist * node.speed


def inject_clones(state: SimulationState) -> list[Node]:
    """Clone ``num_clones`` distinct victim provers into new physical nodes.

    Each clone copies its victim's identity, key material, and current
    context record, but stands somewhere else: placement is resampled
    until the quantized position differs from the victim's, so a clone
    can never be context-indistinguishable at injection time.
    """
    cfg = state.config
    rng = state.rngs.stream("clones")
    provers = [n for n in state.nodes if n.role == ROLE_PROVER]
    victims = rng.sample(provers, cfg.num_clones)
    clones = []
    for victim in victims:
        assert victim.current_ci is not None
        while True:
            x = rng.uniform(0.0, cfg.area_side)
            y = rng.uniform(0.0, cfg.area_side)
            if (ctx.quantize(x), ctx.quantize(y)) != (victim.current_ci.loc_x,
                                                      victim.current_ci.loc_y):
                break
        clone = Node(idx=len(state.nodes), device_id=victim.device_id,
                     role=ROLE_CLONE, x=x, y=y, activity=victim.activity,
                     keypair=victim.keypair, current_ci=victim.current_ci,
                     victim_idx=victim.idx)
        _sample_waypoint(clone, cfg, rng)
        state.nodes.append(clone)
        clones.append(clone)
    return clones


def run_detection_round(state: SimulationState) -> RoundResult:
    """Execute one detection round: sense, collect, adjudicate, account.

    Every honest device senses fresh context and stores it (clones stay
    passive — they only ever answer, with the record they copied at
    injection).  Targets are split round-robin across the verifier
    cohort, and each verifier sends all of its requests in one wave,
    takes every answer, observes every target and adjudicates them in
    one ``verify_proof_batch`` call: ``batch_size`` only chunks that
    call's signature check, and detection time counts message hops only.
    Each confirmed honest prover records an interaction with, and
    feedback about, its verifier in the trust state.
    """
    state.round_no += 1
    tick = state.round_no
    result = RoundResult(round_no=tick, verdicts={}, detections=[], false_positives=0)

    for node in state.nodes:
        if node.role != ROLE_CLONE:
            _sense_and_store(state, node, tick)

    targets = state.targets()
    verifiers = state.verifiers()
    for pos, verifier in enumerate(verifiers):
        assigned = targets[pos::len(verifiers)]
        if not assigned:
            continue
        requested_ms, presentations = _collect(state, assigned)
        verdicts = ctx.verify_proof_batch(presentations, state.lbs, state.rngs.stream("batch"),
                                          batch_size=state.config.batch_size)
        _account(state, result, verifier, assigned, requested_ms, verdicts)
    return result


def _collect(state: SimulationState, assigned: list[Node]
             ) -> tuple[list[float], list[ctx.ProofPresentation]]:
    """Request every assigned target's proof, take each answer, observe each target.

    Returns the request times and the presentations, aligned with ``assigned``.
    """
    sink = state.sink
    nonce_rng = state.rngs.stream("nonces")
    requested_ms = [sink.log(ROLE_VERIFIER, "proof_request") for _ in assigned]
    proofs = []
    for target in assigned:
        proofs.append(ctx.generate_proof(target.current_ci, target.keypair.private,
                                         nonce_rng, request_pending=True))
        sink.log(target.role, "proof_response")
    presentations = []
    for target, proof in zip(assigned, proofs):
        observed = ctx.sense_context(target.device_id, state.round_no,
                                     target.position(), target.activity)
        sink.log(ROLE_VERIFIER, "sense")
        sink.log(ROLE_VERIFIER, "ci_check")
        sink.log(ROLE_LBS, "ack")
        presentations.append(ctx.ProofPresentation(proof=proof, observed=observed))
    return requested_ms, presentations


def _account(state: SimulationState, result: RoundResult, verifier: Node,
             assigned: list[Node], requested_ms: list[float],
             verdicts: list[ctx.Verdict]) -> None:
    """Record one verifier's verdicts: messages, detections, false positives and trust."""
    sink = state.sink
    zone = _zone(verifier.x, verifier.y)
    for target, sent_ms, verdict in zip(assigned, requested_ms, verdicts):
        result.verdicts[target.idx] = verdict
        if verdict is ctx.Verdict.CONFIRMED:
            sink.log(ROLE_VERIFIER, "verify_confirm")
            if target.role == ROLE_PROVER:
                state.trust.record_interaction(target.device_id, verifier.device_id, zone, 1.0)
                state.trust.record_feedback(target.device_id, verifier.device_id, 1.0)
        else:
            reported_ms = sink.log(ROLE_VERIFIER, "compromise_report")
            if target.role == ROLE_CLONE:
                result.detections.append(met.DetectionRecord(
                    clone_idx=target.idx, victim_idx=target.victim_idx,
                    device_id=target.device_id, case=verdict.value, round_no=result.round_no,
                    detection_time_ms=reported_ms - sent_ms))
            else:
                result.false_positives += 1


def run_experiment(config: NetworkConfig) -> met.SimulationReport:
    """Initialize, inject clones, run the configured rounds, aggregate.

    A clone counts as detected from the first round that flags it; the
    detection probability is detected / injected (trivially 1.0 for a
    clone-free baseline).  Trust is scored once, after the last round:
    the report carries each verifier's implicit, explicit and total
    confidence.

    It also builds the storage table.  The ``lbs`` row counts the store's
    contexts and registered keys, plus one wire proof for each device id
    that any round confirmed; those proofs are counted from the
    verdicts, not held.
    """
    state = init_network(config)
    cfg = state.config
    clones = inject_clones(state)

    first_detection: dict[int, met.DetectionRecord] = {}
    false_positives = 0
    verdict_counts: dict[str, int] = {v.value: 0 for v in ctx.Verdict}
    confirmed: set[int] = set()
    for _ in range(cfg.rounds):
        if state.round_no > 0:
            mobility_step(state)
        result = run_detection_round(state)
        false_positives += result.false_positives
        for idx, verdict in result.verdicts.items():
            verdict_counts[verdict.value] += 1
            if verdict is ctx.Verdict.CONFIRMED:
                confirmed.add(state.nodes[idx].device_id)
        for rec in result.detections:
            first_detection.setdefault(rec.clone_idx, rec)

    detected = sorted(first_detection.values(), key=lambda rec: rec.clone_idx)
    probability = 1.0 if not clones else len(detected) / len(clones)

    tracked = math.ceil(len(state.targets()) / cfg.num_verifiers)
    idle = cfg.num_devices - cfg.num_provers - cfg.num_verifiers
    storage = {
        "device_each": met.DEVICE_STORAGE_BYTES,
        "prover": cfg.num_provers * met.DEVICE_STORAGE_BYTES,
        "verifier": cfg.num_verifiers * (met.DEVICE_STORAGE_BYTES
                                         + tracked * met.VERIFIER_TRACK_BYTES),
        "clone": len(clones) * met.DEVICE_STORAGE_BYTES,
        "idle": idle * met.DEVICE_STORAGE_BYTES,
        "lbs": (ctx.CI_WIRE_BYTES * len(state.lbs.contexts)
                + sigmod.PUBLIC_KEY_BYTES * len(state.lbs.public_keys)
                + ctx.PROOF_WIRE_BYTES * len(confirmed)),
        "verifier_tracked_provers": tracked,
    }
    confidence = state.trust.snapshot()
    cohort = [confidence[node.device_id] for node in state.verifiers()]
    verifier_confidence = {
        str(rec.device_id): {"implicit": rec.implicit, "explicit": rec.explicit,
                             "total": rec.total}
        for rec in cohort
    }

    return met.SimulationReport(
        config=dataclasses.asdict(cfg),
        seed=cfg.seed,
        detection_probability=probability,
        detections=detected,
        false_positives=false_positives,
        verdict_counts=verdict_counts,
        message_counts=state.sink.message_counts(),
        storage_bytes=storage,
        verifier_confidence=verifier_confidence,
    )
