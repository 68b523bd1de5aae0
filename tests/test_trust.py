"""Confidence equations against frozen arithmetic fixtures, plus selection."""

import pytest
from hypothesis import given, settings, strategies as st

from cloneguard.trust import (DEFAULT_CONFIDENCE, ConfidenceRecord, FeedbackEntry,
                              LocationObservation, SelectionError, TrustState,
                              clamp01, explicit_confidence, implicit_confidence,
                              select_verifiers, total_confidence)

TOL = 1e-12

# Fixture values computed independently with exact rational arithmetic
# and frozen here.
IC_FIXTURE = [
    LocationObservation("home", previous=0.8, recent=0.6,
                        weight_simple=0.7, weight_trusted=0.9),
    LocationObservation("depot", previous=0.4, recent=0.9,
                        weight_simple=0.3, weight_trusted=0.5),
]
IC_EXPECTED = 359 / 520  # = 0.690384615384...

EC_FIXTURE = [
    FeedbackEntry(rater=1, subject=9, score=1.0, level_weight=0.5),
    FeedbackEntry(rater=2, subject=9, score=0.5, level_weight=0.3),
    FeedbackEntry(rater=3, subject=9, score=0.8, level_weight=0.2),
]
EC_EXPECTED = 621 / 1000  # beta_p = 0.81, mean = 2.3/3

EC_UNNORMALIZED = [
    FeedbackEntry(rater=1, subject=4, score=0.2, level_weight=2.0),
    FeedbackEntry(rater=2, subject=4, score=0.9, level_weight=3.0),
]
EC_UNNORMALIZED_EXPECTED = 341 / 1000  # beta_p = 0.62, mean = 0.55

CHAIN_EXPECTED = 2131 / 3250  # total(IC_EXPECTED, EC_EXPECTED, 0.5, 0.5)


def test_implicit_confidence_fixture():
    assert implicit_confidence(IC_FIXTURE) == pytest.approx(IC_EXPECTED, abs=TOL)


def test_implicit_confidence_defaults_and_clamp():
    assert implicit_confidence([]) == DEFAULT_CONFIDENCE
    saturated = [LocationObservation("x", previous=0.9, recent=1.3)]
    assert implicit_confidence(saturated) == 1.0
    floor = [LocationObservation("x", previous=-0.5, recent=-0.1)]
    assert implicit_confidence(floor) == 0.0


def test_implicit_confidence_rejects_zero_weight_mass():
    with pytest.raises(ValueError):
        implicit_confidence([LocationObservation("x", 0.5, 0.5,
                                                 weight_simple=0.0,
                                                 weight_trusted=0.0)])


def test_explicit_confidence_fixture():
    assert explicit_confidence(EC_FIXTURE) == pytest.approx(EC_EXPECTED, abs=TOL)


def test_explicit_confidence_normalizes_level_weights():
    assert explicit_confidence(EC_UNNORMALIZED) == pytest.approx(
        EC_UNNORMALIZED_EXPECTED, abs=TOL)


def test_explicit_confidence_defaults_and_guards():
    assert explicit_confidence([]) == DEFAULT_CONFIDENCE
    full = [FeedbackEntry(rater=1, subject=2, score=1.0, level_weight=1.0)]
    assert explicit_confidence(full) == 1.0
    mixed = [FeedbackEntry(rater=1, subject=2, score=1.0),
             FeedbackEntry(rater=1, subject=3, score=1.0)]
    with pytest.raises(ValueError):
        explicit_confidence(mixed)


def test_total_confidence_fixtures():
    assert total_confidence(0.6, 0.8, 0.4, 0.6) == pytest.approx(0.72, abs=TOL)
    assert total_confidence(0.5, 0.5, 0.5, 0.5) == pytest.approx(0.5, abs=TOL)
    assert total_confidence(1.0, 0.0, 1.0, 0.0) == pytest.approx(1.0, abs=TOL)
    assert total_confidence(IC_EXPECTED, EC_EXPECTED) == pytest.approx(
        CHAIN_EXPECTED, abs=TOL)


def test_total_confidence_rescales_with_warning():
    with pytest.warns(UserWarning, match="rescaling"):
        value = total_confidence(0.4, 0.8, 0.9, 0.9)
    assert value == pytest.approx(0.5 * 0.4 + 0.5 * 0.8, abs=TOL)


def test_total_confidence_rejects_negative_weights():
    with pytest.raises(ValueError):
        total_confidence(0.5, 0.5, -0.1, 0.5)


def records(totals):
    return [ConfidenceRecord(device_id=i, implicit=t, explicit=t, total=t)
            for i, t in enumerate(totals)]


def test_select_verifiers_orders_by_confidence_then_id():
    pool = records([0.4, 0.9, 0.9, 0.1, 0.7])
    assert select_verifiers(pool, 3) == [1, 2, 4]


def test_select_verifiers_tie_breaks_toward_low_id():
    pool = records([0.5] * 6)
    assert select_verifiers(pool, 4) == [0, 1, 2, 3]


def test_select_verifiers_rejects_degenerate_cohorts():
    pool = records([0.5] * 5)
    with pytest.raises(SelectionError):
        select_verifiers(pool, 5)
    with pytest.raises(SelectionError):
        select_verifiers(pool, 6)
    with pytest.raises(SelectionError):
        select_verifiers(pool, 0)


def test_selection_monotone_in_confidence():
    pool = records([0.6, 0.5, 0.4, 0.3])
    chosen = select_verifiers(pool, 2)
    assert chosen == [0, 1]
    boosted = pool[:1] + [ConfidenceRecord(1, 0.9, 0.9, 0.9)] + pool[2:]
    assert 1 in select_verifiers(boosted, 2)


scores = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=200)
@given(st.lists(st.tuples(scores, scores, st.floats(min_value=0.01, max_value=5.0),
                          st.floats(min_value=0.01, max_value=5.0)),
                min_size=0, max_size=6))
def test_implicit_confidence_always_in_unit_interval(cases):
    obs = [LocationObservation(f"loc{i}", prev, rec, ws, wt)
           for i, (prev, rec, ws, wt) in enumerate(cases)]
    assert 0.0 <= implicit_confidence(obs) <= 1.0


@settings(max_examples=200)
@given(st.lists(st.tuples(scores, st.floats(min_value=0.01, max_value=5.0)),
                min_size=0, max_size=6))
def test_explicit_confidence_always_in_unit_interval(cases):
    entries = [FeedbackEntry(rater=i, subject=7, score=score, level_weight=weight)
               for i, (score, weight) in enumerate(cases)]
    assert 0.0 <= explicit_confidence(entries) <= 1.0


@settings(max_examples=200)
@given(scores, scores, scores)
def test_total_confidence_always_in_unit_interval(implicit, explicit, alpha):
    beta = 1.0 - alpha
    assert 0.0 <= total_confidence(implicit, explicit, alpha, beta) <= 1.0


def test_clamp01():
    assert clamp01(-0.5) == 0.0
    assert clamp01(0.25) == 0.25
    assert clamp01(1.5) == 1.0


def test_trust_state_accumulates_evidence():
    state = TrustState(range(5))
    baseline = state.snapshot()
    assert all(rec.total == DEFAULT_CONFIDENCE for rec in baseline.values())

    state.record_interaction(rater=3, subject=0, location="z0_0", score=1.0)
    state.record_feedback(rater=3, subject=0, score=1.0)
    snap = state.snapshot()
    assert snap[0].total > DEFAULT_CONFIDENCE
    assert snap[1].total == DEFAULT_CONFIDENCE

    assert state.select(2) == [0, 1]


def test_trust_state_recent_shifts_to_previous():
    state = TrustState(range(3))
    state.record_interaction(1, 0, "z", 1.0)
    first = state.snapshot()[0].implicit
    # previous=default, recent=1.0 -> (0.5 + 1.0) / 2
    assert first == pytest.approx((DEFAULT_CONFIDENCE + 1.0) / 2, abs=TOL)
    state.record_interaction(1, 0, "z", 1.0)
    second = state.snapshot()[0].implicit
    assert second == pytest.approx(1.0, abs=TOL)


def test_trust_state_fifty_rounds_stays_bounded():
    state = TrustState(range(8))
    for round_no in range(50):
        for rater in range(3, 8):
            for subject in range(3):
                state.record_interaction(rater, subject, f"z{round_no % 4}", 1.0)
                state.record_feedback(rater, subject, 1.0)
        snap = state.snapshot()
        assert all(0.0 <= rec.implicit <= 1.0 for rec in snap.values())
        assert all(0.0 <= rec.explicit <= 1.0 for rec in snap.values())
        assert all(0.0 <= rec.total <= 1.0 for rec in snap.values())
    final = state.snapshot()
    assert final[0].total == pytest.approx(1.0, abs=1e-9)


def oracle_snapshot(device_ids, interactions, feedback, alpha, beta):
    """Brute force, one subject at a time: replay that subject's evidence
    from scratch and score it with the public formulas."""
    out = {}
    for dev in device_ids:
        per_rater = []
        for rater in sorted({r for r, subject, _, _ in interactions if subject == dev}):
            slots: dict[str, list[float]] = {}
            for r, subject, location, score in interactions:
                if (r, subject) == (rater, dev):
                    slot = slots.setdefault(location, [DEFAULT_CONFIDENCE, DEFAULT_CONFIDENCE])
                    slot[:] = [slot[1], clamp01(score)]
            per_rater.append(implicit_confidence(
                [LocationObservation(loc, *slots[loc]) for loc in sorted(slots)]))
        implicit = sum(per_rater) / len(per_rater) if per_rater else DEFAULT_CONFIDENCE
        explicit = explicit_confidence(
            [FeedbackEntry(rater, subject, clamp01(score), weight)
             for rater, subject, score, weight in feedback if subject == dev])
        out[dev] = ConfidenceRecord(dev, implicit, explicit,
                                    total_confidence(implicit, explicit, alpha, beta))
    return out


def check_against_oracle(interactions, feedback, alpha, beta):
    state = TrustState(range(6), alpha, beta)
    for rater, subject, location, score in interactions:
        state.record_interaction(rater, subject, location, score)
    for rater, subject, score, weight in feedback:
        state.record_feedback(rater, subject, score, weight)
    expected = oracle_snapshot(range(6), interactions, feedback, alpha, beta)
    assert state.snapshot() == expected  # float equality: bit for bit
    assert state.select(3) == select_verifiers(expected.values(), 3)


LOCATIONS = ["z0_0", "z0_1", "z1_0", "z3_2", "z7_7"]
WEIGHTS = [(0.5, 0.5), (0.3, 0.6), (1.0, 0.0), (0.0, 1.0)]
raters = st.integers(min_value=0, max_value=7)
subjects = st.integers(min_value=0, max_value=7)  # 6 and 7 are not scored devices
raw_scores = st.floats(min_value=-0.25, max_value=1.25, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(raters, subjects, st.sampled_from(LOCATIONS), raw_scores),
                max_size=40),
       st.lists(st.tuples(raters, subjects, raw_scores,
                          st.floats(min_value=0.01, max_value=5.0)), max_size=20),
       st.sampled_from(WEIGHTS))
def test_snapshot_matches_per_subject_oracle(interactions, feedback, weights):
    check_against_oracle(interactions, feedback, *weights)


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=True), st.sampled_from(WEIGHTS))
def test_snapshot_matches_oracle_on_dense_histories(rng, weights):
    # Every pair collects several interactions over several locations in
    # arbitrary order, so summing in any other order than the oracle's
    # would show in the low bits.
    interactions = [(rng.randrange(8), rng.randrange(8), rng.choice(LOCATIONS),
                     rng.uniform(-0.25, 1.25)) for _ in range(300)]
    feedback = [(rng.randrange(8), rng.randrange(8), rng.uniform(-0.25, 1.25),
                 rng.uniform(0.01, 5.0)) for _ in range(60)]
    check_against_oracle(interactions, feedback, *weights)
