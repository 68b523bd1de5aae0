"""Deterministic network simulator for clone-node detection rounds.

A run builds a population of devices on a square area, hands each a
P-256 keypair, registers everything with the location store, injects
clone nodes that replay a victim's copied context with its stolen keys,
and then drives detection rounds: devices sense and store fresh context,
trust-selected verifiers request location proofs, check them against
the store, and batch-verify the signatures.

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
    """Experiment configuration.  ``None`` fields resolve to defaults.

    ``num_provers`` defaults to 70% of the population (rounded), and
    ``num_clones`` to the environment's nominal load: 20 when sparse,
    50 when dense.  ``num_clones = 0`` is always allowed as the
    clone-free baseline.
    """

    num_devices: int = 100
    num_provers: int | None = None
    num_verifiers: int = 30
    num_clones: int | None = None
    environment: str = "sparse"
    area_side: float = 256.0
    rwp_speed_min: float = 1.0
    rwp_speed_max: float = 5.0
    rwp_pause_min: float = 0.0
    rwp_pause_max: float = 2.0
    rounds: int = 2
    seed: int = 1
    batch_size: int = 25
    randomizer_bits: int = 64
    latency_ms: float = 1.0
    trust_alpha: float = 0.5
    trust_beta: float = 0.5

    def resolve(self) -> "NetworkConfig":
        """Fill the derived defaults; returns a fully concrete config."""
        provers = self.num_provers
        if provers is None:
            provers = round(0.7 * self.num_devices)
        clones = self.num_clones
        if clones is None:
            clones = 20 if self.environment == "sparse" else 50
        return dataclasses.replace(self, num_provers=provers, num_clones=clones)

    def validate(self) -> None:
        """Check every constraint; raises ConfigError naming all violations."""
        cfg = self.resolve()
        problems = []
        if not 100 <= cfg.num_devices <= 500:
            problems.append(f"num_devices ({cfg.num_devices}) must be within [100, 500]")
        if cfg.environment not in ("sparse", "dense"):
            problems.append(f"environment ({cfg.environment!r}) must be 'sparse' or 'dense'")
        if cfg.num_verifiers < 1:
            problems.append("num_verifiers must be at least 1")
        if cfg.num_verifiers >= cfg.num_devices:
            problems.append(f"num_verifiers ({cfg.num_verifiers}) must be smaller than "
                            f"num_devices ({cfg.num_devices})")
        if cfg.num_provers < 1:
            problems.append("num_provers must be at least 1")
        if cfg.num_provers + cfg.num_verifiers > cfg.num_devices:
            problems.append(f"num_provers + num_verifiers ({cfg.num_provers} + "
                            f"{cfg.num_verifiers}) must not exceed num_devices "
                            f"({cfg.num_devices})")
        if cfg.num_clones != 0:
            if cfg.environment == "sparse" and cfg.num_clones != 20:
                problems.append(f"num_clones ({cfg.num_clones}) must be 20 in a sparse "
                                "environment (or 0 for a clone-free baseline)")
            if cfg.environment == "dense" and not 25 <= cfg.num_clones <= 50:
                problems.append(f"num_clones ({cfg.num_clones}) must be within [25, 50] "
                                "in a dense environment (or 0 for a clone-free baseline)")
        if cfg.num_clones > cfg.num_provers:
            problems.append(f"num_clones ({cfg.num_clones}) must not exceed num_provers "
                            f"({cfg.num_provers}): every clone needs a distinct victim")
        if not 0.0 < cfg.area_side <= 256.0:
            problems.append(f"area_side ({cfg.area_side}) must be in (0, 256] to stay "
                            "addressable by the context fixed-point encoding")
        if not 0.0 <= cfg.rwp_speed_min <= cfg.rwp_speed_max:
            problems.append("rwp speed range must satisfy 0 <= min <= max")
        if not 0.0 <= cfg.rwp_pause_min <= cfg.rwp_pause_max:
            problems.append("rwp pause range must satisfy 0 <= min <= max")
        if not 1 <= cfg.rounds <= ctx.TIME_MAX:
            problems.append(f"rounds ({cfg.rounds}) must be within [1, {ctx.TIME_MAX}]")
        if cfg.batch_size < 1:
            problems.append("batch_size must be at least 1")
        if cfg.randomizer_bits < 64:
            problems.append(f"randomizer_bits ({cfg.randomizer_bits}) must be at least 64")
        if cfg.latency_ms <= 0.0:
            problems.append("latency_ms must be positive")
        if cfg.trust_alpha < 0.0 or cfg.trust_beta < 0.0:
            problems.append("trust_alpha and trust_beta must be non-negative")
        if cfg.trust_alpha + cfg.trust_beta > 1.0 + 1e-9:
            problems.append(f"trust_alpha + trust_beta ({cfg.trust_alpha} + "
                            f"{cfg.trust_beta}) must not exceed 1")
        if problems:
            raise ConfigError("; ".join(problems))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self.resolve())


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
    verdicts: dict[int, ctx.Verdict]                 # target node idx -> verdict
    presentations: dict[int, ctx.ProofPresentation]  # target node idx -> evidence
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
    config.validate()
    cfg = config.resolve()
    hub = RngHub(cfg.seed)
    place_rng = hub.stream("placement")
    key_rng = hub.stream("keys")
    mob_rng = hub.stream("mobility")

    trust_state = TrustState(range(cfg.num_devices), cfg.trust_alpha, cfg.trust_beta)
    verifier_ids = set(trust_state.select(cfg.num_verifiers))
    prover_ids = set(sorted(set(range(cfg.num_devices)) - verifier_ids)[:cfg.num_provers])

    sink = met.MetricsSink(cfg.latency_ms)
    lbs = ctx.LbsStore()

    nodes = []
    keypairs = [sigmod.generate_keypair(key_rng) for _ in range(cfg.num_devices)]
    for device_id in range(cfg.num_devices):
        if device_id in verifier_ids:
            role = ROLE_VERIFIER
        elif device_id in prover_ids:
            role = ROLE_PROVER
        else:
            role = ROLE_IDLE
        node = Node(idx=device_id, device_id=device_id, role=role,
                    x=place_rng.uniform(0.0, cfg.area_side),
                    y=place_rng.uniform(0.0, cfg.area_side),
                    activity=ACTIVITIES[device_id % len(ACTIVITIES)],
                    keypair=keypairs[device_id])
        _sample_waypoint(node, cfg, mob_rng)
        nodes.append(node)

    state = SimulationState(config=cfg, rngs=hub, nodes=nodes, lbs=lbs,
                            trust=trust_state, sink=sink)

    # Registration: sense at tick 0, enrol the key, store the record.
    for node in nodes:
        ci = ctx.sense_context(node.device_id, 0, node.position(), node.activity)
        node.current_ci = ci
        sink.log(node.role, "sense")
        lbs.register_public_key(node.device_id, node.keypair.public)
        sink.log(node.role, "register")
        lbs.store_context(ci)
        sink.log(node.role, "store")
        sink.log(ROLE_LBS, "ack")
    return state


def _sample_waypoint(node: Node, cfg: NetworkConfig, rng) -> None:
    node.target_x = rng.uniform(0.0, cfg.area_side)
    node.target_y = rng.uniform(0.0, cfg.area_side)
    node.speed = rng.uniform(cfg.rwp_speed_min, cfg.rwp_speed_max)


def mobility_step(state: SimulationState) -> None:
    """Advance every node one random-waypoint tick, in index order."""
    cfg = state.config
    rng = state.rngs.stream("mobility")
    if cfg.rwp_speed_max == 0.0:
        return  # immobile population; positions stay put by contract
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


def inject_clones(state: SimulationState, count: int | None = None) -> list[Node]:
    """Clone ``count`` distinct victim provers into new physical nodes.

    Each clone copies its victim's identity, key material, and current
    context record, but stands somewhere else: placement is resampled
    until the quantized position differs from the victim's, so a clone
    can never be context-indistinguishable at injection time.
    """
    cfg = state.config
    if count is None:
        count = cfg.num_clones
    if count == 0:
        return []
    rng = state.rngs.stream("clones")
    provers = [n for n in state.nodes if n.role == ROLE_PROVER]
    if count > len(provers):
        raise ConfigError(f"cannot inject {count} clones: only {len(provers)} provers")
    victims = rng.sample(provers, count)
    clones = []
    for victim in victims:
        assert victim.current_ci is not None
        while True:
            x = rng.uniform(0.0, cfg.area_side)
            y = rng.uniform(0.0, cfg.area_side)
            moved = (round(x * ctx.FIXED_POINT_SCALE) != victim.current_ci.loc_x
                     or round(y * ctx.FIXED_POINT_SCALE) != victim.current_ci.loc_y)
            if moved:
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
    """Execute one full detection round.

    Phase A: every honest device senses fresh context and stores it with
    the location store (clones stay passive — they only ever answer, with
    the record they copied at injection).
    Phase B: targets are split round-robin across the verifier cohort
    and handled in proof batches: request, response, verifier-side
    observation, store lookup, then the two-stage proof verification.
    Each confirmed honest prover records an interaction with, and
    feedback about, its verifier in the trust state.
    """
    cfg = state.config
    sink = state.sink
    state.round_no += 1
    tick = state.round_no

    # Phase A — sensing and storing.
    for node in state.nodes:
        if node.role == ROLE_CLONE:
            continue
        ci = ctx.sense_context(node.device_id, tick, node.position(), node.activity)
        node.current_ci = ci
        sink.log(node.role, "sense")
        state.lbs.store_context(ci)
        sink.log(node.role, "store")
        sink.log(ROLE_LBS, "ack")

    # Phase B — proof collection and verification, per verifier batch.
    targets = state.targets()
    verifiers = state.verifiers()

    verdicts: dict[int, ctx.Verdict] = {}
    presentations: dict[int, ctx.ProofPresentation] = {}
    detections: list[met.DetectionRecord] = []
    false_positives = 0
    nonce_rng = state.rngs.stream("nonces")
    batch_rng = state.rngs.stream("batch")

    for pos, verifier in enumerate(verifiers):
        assigned = targets[pos::len(verifiers)]
        for start in range(0, len(assigned), cfg.batch_size):
            batch = assigned[start:start + cfg.batch_size]

            request_ts = {}
            for target in batch:
                request_ts[target.idx] = sink.log(ROLE_VERIFIER, "proof_request")

            proofs = {}
            for target in batch:
                proofs[target.idx] = ctx.generate_proof(
                    target.current_ci, target.keypair.private, nonce_rng,
                    request_pending=True)
                sink.log(target.role, "proof_response")

            batch_pres = []
            for target in batch:
                observed = ctx.sense_context(target.device_id, tick,
                                             target.position(), target.activity)
                sink.log(ROLE_VERIFIER, "sense")
                sink.log(ROLE_VERIFIER, "ci_check")
                sink.log(ROLE_LBS, "ack")
                pres = ctx.ProofPresentation(proof=proofs[target.idx], observed=observed)
                batch_pres.append(pres)
                presentations[target.idx] = pres

            batch_verdicts = ctx.verify_proof_batch(
                batch_pres, state.lbs, batch_rng,
                batch_size=cfg.batch_size,
                randomizer_bits=cfg.randomizer_bits)

            for target, verdict in zip(batch, batch_verdicts):
                verdicts[target.idx] = verdict
                if verdict is ctx.Verdict.CONFIRMED:
                    sink.log(ROLE_VERIFIER, "verify_confirm")
                    state.lbs.store_proof(proofs[target.idx])
                    if target.role == ROLE_PROVER:
                        zone = _zone(verifier.x, verifier.y)
                        state.trust.record_interaction(target.device_id,
                                                       verifier.device_id, zone, 1.0)
                        state.trust.record_feedback(target.device_id,
                                                    verifier.device_id, 1.0)
                else:
                    reported_ms = sink.log(ROLE_VERIFIER, "compromise_report")
                    if target.role == ROLE_CLONE:
                        detections.append(met.DetectionRecord(
                            clone_idx=target.idx,
                            victim_idx=target.victim_idx,
                            device_id=target.device_id,
                            case=verdict.value,
                            round_no=tick,
                            detection_time_ms=reported_ms - request_ts[target.idx]))
                    else:
                        false_positives += 1

    return RoundResult(round_no=tick, verdicts=verdicts, presentations=presentations,
                       detections=detections, false_positives=false_positives)


def run_experiment(config: NetworkConfig) -> met.SimulationReport:
    """Initialize, inject clones, run the configured rounds, aggregate.

    A clone counts as detected from the first round that flags it; the
    detection probability is detected / injected (trivially 1.0 for a
    clone-free baseline).  Trust is scored once, after the last round:
    the report carries each verifier's implicit, explicit and total
    confidence.
    """
    state = init_network(config)
    cfg = state.config
    clones = inject_clones(state)

    first_detection: dict[int, met.DetectionRecord] = {}
    false_positives = 0
    verdict_counts: dict[str, int] = {v.value: 0 for v in ctx.Verdict}
    for _ in range(cfg.rounds):
        if state.round_no > 0:
            mobility_step(state)
        result = run_detection_round(state)
        false_positives += result.false_positives
        for verdict in result.verdicts.values():
            verdict_counts[verdict.value] += 1
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
        "lbs": state.lbs.storage_bytes(),
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
        config=cfg.to_dict(),
        seed=cfg.seed,
        detection_probability=probability,
        detections=detected,
        false_positives=false_positives,
        verdict_counts=verdict_counts,
        message_counts=state.sink.message_counts(),
        byte_counts=state.sink.byte_counts(),
        total_messages=state.sink.total_messages(),
        total_bytes=state.sink.total_bytes(),
        storage_bytes=storage,
        verifier_confidence=verifier_confidence,
    )
