"""Network simulation: config, mobility, clone injection, detection rounds."""

import dataclasses
import hashlib
import json
import math
import random

import pytest

from cloneguard import context as ctx
from cloneguard.context import ContextInformation, Verdict, ci_matches
from cloneguard.rng import derive_seed
from cloneguard.sim import (ConfigError, NetworkConfig, init_network, inject_clones,
                            mobility_step, run_detection_round, run_experiment)
from cloneguard.sig import SCAN_SIZE, verify_star

AREA_SIDE = 256.0


# --- configuration ---


def test_config_defaults_resolve():
    cfg = NetworkConfig()
    assert cfg.num_devices == 100
    assert cfg.num_provers == 70
    assert cfg.num_verifiers == 30
    assert cfg.num_clones == 20  # sparse default


def test_config_dense_defaults():
    cfg = NetworkConfig(environment="dense")
    assert cfg.num_clones == 50


def test_config_prover_fraction_scales():
    for n in (100, 200, 300, 400, 500):
        cfg = NetworkConfig(num_devices=n)
        assert cfg.num_provers == round(0.7 * n)


def test_config_validation_collects_all_problems():
    with pytest.raises(ConfigError) as exc:
        NetworkConfig(num_devices=50, environment="urban")
    text = str(exc.value)
    assert "num_devices" in text
    assert "environment" in text
    assert text.count(";") >= 1


@pytest.mark.parametrize("kwargs", [
    dict(num_devices=99),
    dict(num_devices=501),
    dict(num_verifiers=0),
    dict(num_verifiers=100),
    dict(num_clones=19),  # sparse band is exactly 20 (or 0)
    dict(environment="dense", num_clones=24),
    dict(environment="dense", num_clones=51),
    dict(num_clones=80),  # exceeds prover count
    dict(rounds=0),
    dict(batch_size=0),
    dict(latency_ms=0.0),
    dict(area_side=300.0),
    dict(latency_ms=float("nan")),
    dict(latency_ms=float("inf")),
    dict(rwp_speed_max=float("inf")),
    dict(rwp_pause_max=float("inf")),
    dict(area_side=0.001),  # below one quantisation step, 1/256
    dict(area_side=0.0039),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        NetworkConfig(**kwargs)


def test_config_names_every_non_finite_float():
    names = [f.name for f in dataclasses.fields(NetworkConfig) if isinstance(f.default, float)]
    with pytest.raises(ConfigError) as exc:
        NetworkConfig(**{name: math.nan for name in names})
    for name in names:
        assert f"{name} (nan) must be finite" in str(exc.value)


def test_config_zero_clones_is_a_valid_baseline():
    NetworkConfig(num_clones=0)
    NetworkConfig(environment="dense", num_clones=0)


def test_config_asdict_is_concrete_and_serializable():
    cfg = NetworkConfig(num_devices=200, seed=9)
    d = dataclasses.asdict(cfg)
    assert d["num_devices"] == 200
    assert d["num_provers"] == 140
    assert json.dumps(d)  # JSON-serializable


def test_config_replace_keeps_derived_values_and_checks_them():
    cfg = dataclasses.replace(NetworkConfig(), seed=3)
    assert (cfg.num_provers, cfg.num_clones, cfg.seed) == (70, 20, 3)
    # The sparse default of 20 clones is kept, not re-derived, and a dense
    # network with 20 clones is out of range.
    with pytest.raises(ConfigError, match=r"num_clones \(20\) must be within \[25, 50\]"):
        dataclasses.replace(NetworkConfig(), environment="dense")


# --- network initialization ---


def test_init_assigns_roles_and_registers_everyone():
    cfg = NetworkConfig(seed=2)
    state = init_network(cfg)
    assert len(state.nodes) == 100
    verifier_ids = [n.idx for n in state.verifiers()]
    target_ids = [n.idx for n in state.targets()]
    assert verifier_ids == list(range(30))
    assert target_ids == list(range(30, 100))
    for node in state.nodes:
        assert state.lbs.public_keys[node.device_id] == node.keypair.public
        stored = state.lbs.contexts[node.device_id]
        assert stored is not None
        assert stored.device_id == node.device_id
        assert 0.0 <= node.x <= AREA_SIDE and 0.0 <= node.y <= AREA_SIDE


def test_init_logs_registration_traffic():
    cfg = NetworkConfig(seed=2)
    state = init_network(cfg)
    counts = state.sink.message_counts()
    registers = sum(per_role.get("register", 0) for per_role in counts.values())
    stores = sum(per_role.get("store", 0) for per_role in counts.values())
    assert registers == 100
    assert stores == 100


def test_init_is_deterministic_per_seed():
    a = init_network(NetworkConfig(seed=5))
    b = init_network(NetworkConfig(seed=5))
    c = init_network(NetworkConfig(seed=6))
    assert [(n.x, n.y) for n in a.nodes] == [(n.x, n.y) for n in b.nodes]
    assert [(n.x, n.y) for n in a.nodes] != [(n.x, n.y) for n in c.nodes]
    assert [n.keypair.private for n in a.nodes] == [n.keypair.private for n in b.nodes]


# --- mobility ---


def test_mobility_stays_in_bounds():
    state = init_network(NetworkConfig(seed=4))
    for _ in range(200):
        mobility_step(state)
        for node in state.nodes:
            assert 0.0 <= node.x <= AREA_SIDE
            assert 0.0 <= node.y <= AREA_SIDE


def test_mobility_moves_nodes():
    state = init_network(NetworkConfig(seed=4))
    before = [(n.x, n.y) for n in state.nodes]
    mobility_step(state)
    after = [(n.x, n.y) for n in state.nodes]
    moved = sum(1 for b, a in zip(before, after) if b != a)
    assert moved > 50  # almost everyone is between waypoints at step 1


def test_mobility_zero_speed_freezes_positions():
    cfg = NetworkConfig(seed=4, rwp_speed_min=0.0, rwp_speed_max=0.0)
    state = init_network(cfg)
    before = [(n.x, n.y) for n in state.nodes]
    stream_before = state.rngs.stream("mobility").getstate()
    for _ in range(10):
        mobility_step(state)
    assert [(n.x, n.y) for n in state.nodes] == before
    # A zero-speed node moves by 0.0 and draws nothing.
    assert state.rngs.stream("mobility").getstate() == stream_before


def test_mobility_exhibits_waypoint_center_bias():
    # Long-run random-waypoint density concentrates toward the middle of
    # the area: mean distance from the centre drops well below the
    # uniform-placement expectation (~0.3826 * side = 97.9 for side 256).
    # Empirically the statistic settles near 71-78; 90 splits the two
    # regimes with wide margin either way.
    for seed in (1, 2, 3):
        state = init_network(NetworkConfig(seed=seed))
        for _ in range(300):
            mobility_step(state)
        centre = AREA_SIDE / 2
        mean_dist = sum(math.hypot(n.x - centre, n.y - centre)
                        for n in state.nodes) / len(state.nodes)
        assert mean_dist < 90.0


# --- clone injection ---


def test_inject_clones_marks_provers_with_distinct_positions():
    state = init_network(NetworkConfig(seed=8))
    clones = inject_clones(state)
    assert len(clones) == 20
    prover_idxs = {n.idx for n in state.targets()}
    for clone in clones:
        assert clone.idx in prover_idxs
        victim = state.nodes[clone.victim_idx]
        assert clone.keypair.private == victim.keypair.private
        assert clone.current_ci is not None
        # the copied record never quantizes to the clone's own position
        own_view = dataclasses.replace(
            clone.current_ci,
            loc_x=min(round(clone.x * 256), 0xFFFF),
            loc_y=min(round(clone.y * 256), 0xFFFF))
        assert (own_view.loc_x, own_view.loc_y) != (clone.current_ci.loc_x,
                                                    clone.current_ci.loc_y)


def test_inject_clone_count_follows_config():
    state = init_network(NetworkConfig(environment="dense", seed=8,
                                       num_clones=30))
    assert len(inject_clones(state)) == 30


def test_inject_no_clones_draws_nothing():
    state = init_network(NetworkConfig(seed=7, num_clones=0))
    assert inject_clones(state) == []
    fresh = random.Random(derive_seed(7, "clones"))
    assert state.rngs.stream("clones").getstate() == fresh.getstate()


class ScriptedUniform(random.Random):
    """A seeded stream whose first ``uniform`` draws come from a script."""

    def __init__(self, seed, script):
        super().__init__(seed)
        self.script = list(script)

    def uniform(self, a, b):
        return self.script.pop(0) if self.script else super().uniform(a, b)


def test_clone_placement_quantizes_like_sensing(monkeypatch):
    # Every prover stands at (255.999, 255.999), which sensing clamps into
    # the top cell (65535, 65535).  The first clone draw, (256.0, 256.0),
    # clamps into the same cell, so it is no move: the clone must be
    # resampled, or round 1 confirms it.
    state = init_network(NetworkConfig(seed=1))
    for node in state.targets():
        node.x = node.y = 255.999
        node.current_ci = ctx.sense_context(node.device_id, 0, node.position(), node.activity)
    assert {node.current_ci.loc_x for node in state.targets()} == {0xFFFF}
    scripted = ScriptedUniform(1, [256.0, 256.0])
    real_stream = state.rngs.stream
    monkeypatch.setattr(state.rngs, "stream",
                        lambda name: scripted if name == "clones" else real_stream(name))
    clones = inject_clones(state)
    assert not scripted.script
    first = clones[0]
    assert (first.x, first.y) != (256.0, 256.0)
    assert ctx.sense_context(first.device_id, 0, first.position(), first.activity) != \
        first.current_ci
    result = run_detection_round(state)
    assert {d.clone_idx for d in result.detections} == {c.idx for c in clones}
    assert result.verdicts[first.idx] is not Verdict.CONFIRMED


# --- detection rounds ---


def _oracle_verdict(presentation, lbs):
    """Recompute the expected verdict for one presentation from scratch."""
    proof, observed = presentation.proof, presentation.observed
    stored = lbs.contexts.get(proof.prover_id)
    public = lbs.public_keys.get(proof.prover_id)
    if stored is None or public is None:
        return Verdict.NOT_REGISTERED
    if not ci_matches(stored, observed):
        return Verdict.COMPROMISED_CONTEXT
    digest_ok = False
    for dt in (-1, 0, 1):
        t = stored.time + dt
        if 0 <= t <= 0xFFFF:
            if dataclasses.replace(stored, time=t).digest() == proof.ci_digest:
                digest_ok = True
    if not digest_ok:
        return Verdict.COMPROMISED_CONTEXT
    if not verify_star(proof.ci_digest, proof.signature, public):
        return Verdict.COMPROMISED_SIGNATURE
    return Verdict.CONFIRMED


def test_round_verdicts_match_independent_oracle(monkeypatch):
    adjudicated = []  # (presentation, verdict) of every proof the round verifies
    original = ctx.verify_proof_batch

    def recording(presentations, *args, **kwargs):
        verdicts = original(presentations, *args, **kwargs)
        adjudicated.extend(zip(presentations, verdicts))
        return verdicts

    monkeypatch.setattr(ctx, "verify_proof_batch", recording)
    for seed in (3, 11):
        state = init_network(NetworkConfig(seed=seed))
        inject_clones(state)
        for _ in range(2):
            adjudicated.clear()
            result = run_detection_round(state)
            # A verifier observes each target where it stands, so the
            # observed record names the target it was taken from.
            by_observation = {
                ctx.sense_context(t.device_id, state.round_no, t.position(), t.activity): t
                for t in state.targets()}
            assert len(by_observation) == len(state.targets())
            seen = [by_observation[pres.observed].idx for pres, _ in adjudicated]
            # one pair per target, and a verdict for each
            assert sorted(seen) == [t.idx for t in state.targets()] == sorted(result.verdicts)
            for (pres, verdict), idx in zip(adjudicated, seen):
                assert verdict == result.verdicts[idx]
                assert verdict == _oracle_verdict(pres, state.lbs), idx


def test_first_round_detects_every_clone():
    state = init_network(NetworkConfig(seed=13))
    clones = inject_clones(state)
    result = run_detection_round(state)
    detected = {d.clone_idx for d in result.detections}
    assert detected == {c.idx for c in clones}
    assert result.false_positives == 0


def test_experiment_complete_and_sound_sparse_and_dense():
    for env in ("sparse", "dense"):
        for seed in (1, 2):
            report = run_experiment(NetworkConfig(environment=env, seed=seed,
                                                  rounds=1))
            assert report.detection_probability == 1.0, (env, seed)
            assert report.false_positives == 0, (env, seed)


def test_experiment_zero_clone_baseline_all_confirmed():
    report = run_experiment(NetworkConfig(seed=2, num_clones=0, rounds=2))
    assert report.detection_probability == 1.0
    assert not report.detections
    assert report.false_positives == 0
    assert report.verdict_counts["confirmed"] == 140
    assert report.verdict_counts["compromised_context"] == 0
    assert report.verdict_counts["compromised_signature"] == 0


def test_detection_times_scale_linearly_with_latency():
    # Doubling the per-hop latency doubles every detection time exactly
    # (the values are small dyadic rationals, so == is safe).
    base = run_experiment(NetworkConfig(seed=5, rounds=1, latency_ms=1.0))
    slow = run_experiment(NetworkConfig(seed=5, rounds=1, latency_ms=2.0))
    t_base = sorted(d.detection_time_ms for d in base.detections)
    t_slow = sorted(d.detection_time_ms for d in slow.detections)
    assert len(t_base) == len(t_slow) == 20
    assert all(b > 0 for b in t_base)
    assert t_slow == [2 * t for t in t_base]
    assert base.total_messages == slow.total_messages
    assert base.total_bytes == slow.total_bytes


@pytest.mark.parametrize("config", [
    NetworkConfig(environment="sparse", seed=1, rounds=2),
    NetworkConfig(num_devices=500, environment="dense", seed=1, rounds=1),
], ids=["sparse-seed1-2rounds", "dense-seed1-1round"])
def test_batch_size_only_chunks_verification(config):
    # A verifier requests all of its targets in one wave, whatever the
    # batch size, so verdicts, detections (their times included) and
    # messages are the same; only the reported config differs.
    reports = []
    for batch_size in (1, 2, 25):
        data = run_experiment(dataclasses.replace(config, batch_size=batch_size)
                              ).to_canonical_dict()
        assert data["config"].pop("batch_size") == batch_size
        reports.append(data)
    assert reports[0]["detections"]
    assert reports[0] == reports[1] == reports[2]


def test_more_verifiers_than_targets(monkeypatch):
    sizes = []
    original = ctx.verify_proof_batch

    def recording(presentations, *args, **kwargs):
        assert presentations, "a verifier with no targets must not adjudicate"
        sizes.append(len(presentations))
        return original(presentations, *args, **kwargs)

    monkeypatch.setattr(ctx, "verify_proof_batch", recording)
    config = NetworkConfig(num_clones=0, num_provers=10, rounds=2)
    assert config.num_verifiers == 30
    report = run_experiment(config)
    # 10 targets over 2 rounds, each adjudicated once, by one verifier of its own
    assert sizes == [1] * 20
    assert report.verdict_counts == {v.value: 0 for v in Verdict} | {"confirmed": 20}
    assert report.false_positives == 0


def test_experiment_reports_are_reproducible():
    a = run_experiment(NetworkConfig(seed=21, rounds=2))
    b = run_experiment(NetworkConfig(seed=21, rounds=2))
    assert a.to_canonical_json() == b.to_canonical_json()
    c = run_experiment(NetworkConfig(seed=22, rounds=2))
    assert a.to_canonical_json() != c.to_canonical_json()


def test_experiment_reports_verifier_confidence():
    report = run_experiment(NetworkConfig(seed=7, rounds=2))
    assert list(report.verifier_confidence) == [str(dev) for dev in range(30)]
    for record in report.verifier_confidence.values():
        assert set(record) == {"implicit", "explicit", "total"}
        assert 0.0 <= record["total"] <= 1.0
    # every verifier confirmed honest provers, so each has evidence
    # above the neutral default
    assert all(record["total"] > 0.5 for record in report.verifier_confidence.values())
    data = json.loads(report.to_canonical_json())
    assert data["verifier_confidence"] == report.verifier_confidence
    assert "confidence_rounds" not in data


def test_experiment_message_accounting_is_consistent():
    report = run_experiment(NetworkConfig(seed=7, rounds=2))
    assert report.total_messages == sum(
        c for per_role in report.message_counts.values() for c in per_role.values())
    assert report.total_bytes == sum(
        c for per_role in report.byte_counts.values() for c in per_role.values())
    # every category seen in messages also accrues bytes (ack and friends
    # have nonzero wire size)
    for role, per_role in report.message_counts.items():
        assert set(per_role) == set(report.byte_counts[role])
        for cat in per_role:
            assert report.byte_counts[role][cat] > 0


# Verdicts, detections and traffic of two fixed runs, as a SHA-256 over
# their canonical JSON.  Work that feeds no decision can be removed or
# reorganized freely; these hashes must not move when it is.
DECISION_KEYS = ("detections", "verdict_counts", "message_counts", "byte_counts",
                 "total_messages", "total_bytes")


@pytest.mark.parametrize("config, expected", [
    (NetworkConfig(environment="sparse", seed=1, rounds=2),
     "f09f89fa814ec92e23ba454da518017c160412f8471c32e5c672e5f7daaae8cc"),
    (NetworkConfig(num_devices=500, environment="dense", seed=1, rounds=1),
     "41d215e371908e675cd68a4625674f805f880633b6dad7c301bec1ccf201f522"),
], ids=["sparse-seed1-2rounds", "dense-seed1-1round"])
def test_decisions_are_pinned(config, expected):
    data = run_experiment(config).to_canonical_dict()
    blob = json.dumps({key: data[key] for key in DECISION_KEYS}, sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == expected


# The whole canonical report of six fixed runs, as a SHA-256: the
# decisions above and every other key, ``config``, ``verifier_confidence``
# and ``storage_reference`` among them.  A change that is meant to keep
# every report byte-identical keeps these.
@pytest.mark.parametrize("config, expected", [
    (NetworkConfig(environment="sparse", seed=1, rounds=2),
     "e803dac50d7ca36adcd1f1bd37879174624859bd8edb8ae62b98c2b6220dde97"),
    (NetworkConfig(environment="sparse", seed=2, rounds=2),
     "6202c98527403668f1e8d48dd81350e92aabdaaaa28b973c4841855875b36493"),
    (NetworkConfig(seed=7, rounds=3, batch_size=2),
     "af360dc51c94810ff39a6544cafe8aaf75a8dcdf4bdfe77bf00d2d7d6c227b3e"),
    (NetworkConfig(num_devices=500, environment="dense", seed=1, rounds=1),
     "0e5d738e6ff3d087f74873c93c9d8dd7c2af18032c297a14ea4ccd8481315eaa"),
    (NetworkConfig(seed=7, num_clones=0, rounds=3),
     "062310ce2b2466e75a0d1259c2bc6aabeb1a06e70d7ad0b977203addb9177bd8"),
    (NetworkConfig(seed=3, num_provers=20, num_verifiers=60, rounds=2),
     "3a284239f9c14335c50d6f1027474a7b9bcd131ff7e1d73eee5d92dcbc0ebc9c"),
], ids=["sparse-seed1-2rounds", "sparse-seed2-2rounds", "seed7-batch2-3rounds",
        "dense-seed1-1round", "seed7-no-clones-3rounds", "seed3-20provers-60verifiers"])
def test_canonical_reports_are_pinned(config, expected):
    blob = run_experiment(config).to_canonical_json()
    assert hashlib.sha256(blob.encode()).hexdigest() == expected


@pytest.mark.parametrize("config, expected", [
    (NetworkConfig(environment="sparse", seed=1, rounds=2),
     {"device_each": 81, "prover": 5670, "verifier": 3330, "clone": 1620, "idle": 0,
      "lbs": 11830, "verifier_tracked_provers": 3}),
    (NetworkConfig(num_devices=500, environment="dense", seed=1, rounds=1),
     {"device_each": 81, "prover": 28350, "verifier": 6630, "clone": 4050, "idle": 9720,
      "lbs": 59150, "verifier_tracked_provers": 14}),
], ids=["sparse-seed1-2rounds", "dense-seed1-1round"])
def test_storage_is_pinned(config, expected):
    assert run_experiment(config).storage_bytes == expected


def test_only_checks_above_scan_size_cache_key_tables():
    # A sparse round's checks hold 2 or 3 survivors, at most SCAN_SIZE,
    # so its keys stay plain; at the default batch_size a dense round's
    # hold 11 or 12, so each key that reaches the signature stage gets
    # one cached table.
    sparse = init_network(NetworkConfig(seed=1))
    inject_clones(sparse)
    run_detection_round(sparse)
    mobility_step(sparse)
    run_detection_round(sparse)
    assert sparse.lbs.key_tables == {}

    dense = init_network(NetworkConfig(num_devices=500, environment="dense", seed=1))
    inject_clones(dense)
    result = run_detection_round(dense)
    confirmed = {dense.nodes[idx].device_id for idx, verdict in result.verdicts.items()
                 if verdict is Verdict.CONFIRMED}
    assert set(dense.lbs.key_tables) == confirmed
    assert all(table.point == dense.lbs.public_keys[device_id]
               for device_id, table in dense.lbs.key_tables.items())

    # At batch_size SCAN_SIZE every check of a dense round is small too.
    small = init_network(NetworkConfig(num_devices=500, environment="dense", seed=1,
                                       batch_size=SCAN_SIZE))
    inject_clones(small)
    run_detection_round(small)
    assert small.lbs.key_tables == {}
