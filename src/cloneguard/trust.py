"""Confidence scoring and verifier selection.

A device's willingness to trust a candidate verifier combines two
signals:

* implicit confidence — its own interaction history with the candidate,
  kept per location and weighted by how much both sides trust that
  location;
* explicit confidence — location feedback other devices have reported
  about the candidate, blended through per-trust-level weights.

Both land in [0, 1], with 0.5 as the no-evidence default, and the total
is the convex combination alpha * implicit + beta * explicit.  Verifier
selection simply takes the top-p devices by total confidence.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

DEFAULT_CONFIDENCE = 0.5
DEFAULT_ALPHA = 0.5
DEFAULT_BETA = 0.5


class SelectionError(ValueError):
    """Raised when a verifier cohort cannot be formed."""


def clamp01(value: float) -> float:
    return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value


@dataclass(frozen=True)
class LocationObservation:
    """One location's interaction history between a device pair.

    ``previous`` and ``recent`` are the older and the newer interaction
    scores for that location; ``weight_simple`` / ``weight_trusted`` are
    the location-trust weights of the scoring device and of the device
    being scored.
    """

    location: str
    previous: float
    recent: float
    weight_simple: float = 1.0
    weight_trusted: float = 1.0


@dataclass(frozen=True, slots=True)
class FeedbackEntry:
    """Location feedback one device reported about another."""

    rater: int
    subject: int
    score: float  # in [0, 1]
    level_weight: float = 1.0  # relative weight of the rater's trust level


@dataclass(frozen=True)
class ConfidenceRecord:
    device_id: int
    implicit: float
    explicit: float
    total: float


def implicit_confidence(observations: Sequence[LocationObservation]) -> float:
    """Weighted per-location history score.

    Each location contributes the average of its previous and recent
    scores, clamped into [0, 1]; the per-location weights are the
    products weight_simple * weight_trusted, normalized to sum to one.
    No observations means no history, which scores the neutral 0.5.
    """
    if not observations:
        return DEFAULT_CONFIDENCE
    weights = [obs.weight_simple * obs.weight_trusted for obs in observations]
    total_weight = sum(weights)
    if total_weight <= 0.0:
        raise ValueError("location weights must have positive mass")
    acc = 0.0
    for weight, obs in zip(weights, observations):
        pair_score = clamp01((obs.previous + obs.recent) / 2.0)
        acc += (weight / total_weight) * pair_score
    return clamp01(acc)


def explicit_confidence(entries: Sequence[FeedbackEntry]) -> float:
    """Feedback-pool score for one subject.

    The per-level weights are normalized to sum to one and folded with
    the feedback values into a composite weight beta_p; each feedback
    entry then contributes score * beta_p, averaged over the pool.  An
    empty pool scores the neutral 0.5.
    """
    if not entries:
        return DEFAULT_CONFIDENCE
    subjects = {entry.subject for entry in entries}
    if len(subjects) != 1:
        raise ValueError("feedback pool must concern a single subject")
    total_level = sum(entry.level_weight for entry in entries)
    if total_level <= 0.0:
        raise ValueError("level weights must have positive mass")
    beta_p = sum(entry.level_weight / total_level * entry.score for entry in entries)
    mean_score = sum(entry.score for entry in entries) / len(entries)
    return clamp01(beta_p * mean_score)


def total_confidence(implicit: float, explicit: float,
                     alpha: float = DEFAULT_ALPHA, beta: float = DEFAULT_BETA) -> float:
    """Convex combination alpha * implicit + beta * explicit.

    alpha and beta must be non-negative; if they sum to more than one
    they are rescaled to a convex combination, with a warning, so the
    result stays inside [0, 1].
    """
    if alpha < 0.0 or beta < 0.0:
        raise ValueError("alpha and beta must be non-negative")
    total = alpha + beta
    if total > 1.0:
        warnings.warn(
            f"alpha + beta = {total:g} exceeds 1; rescaling to a convex combination",
            stacklevel=2,
        )
        alpha, beta = alpha / total, beta / total
    return clamp01(alpha * implicit + beta * explicit)


def select_verifiers(records: Iterable[ConfidenceRecord], count: int) -> list[int]:
    """Pick the top-``count`` devices by total confidence.

    Ties break toward the lower device id, which keeps the cohort
    reproducible.  Selecting every device (or more) is refused: with no
    provers left there is nobody to verify.
    """
    pool = sorted(records, key=lambda rec: (-rec.total, rec.device_id))
    if count < 1:
        raise SelectionError("verifier count must be at least 1")
    if count >= len(pool):
        raise SelectionError(
            f"verifier count {count} must be smaller than the device count {len(pool)}")
    return [rec.device_id for rec in pool[:count]]


class TrustState:
    """Confidence bookkeeping for a device population.

    The simulator feeds it two kinds of evidence after each detection
    round: direct interactions (rater worked with subject at a location
    and scored the outcome) and explicit feedback entries.  Nothing is
    scored until asked: ``snapshot`` computes every device's record from
    the full history on demand, and ``select`` ranks that snapshot.
    """

    def __init__(self, device_ids: Sequence[int],
                 alpha: float = DEFAULT_ALPHA, beta: float = DEFAULT_BETA):
        self.alpha = alpha
        self.beta = beta
        self.device_ids = sorted(device_ids)
        # (rater, subject) -> location -> [previous, recent]
        self._history: dict[tuple[int, int], dict[str, list[float]]] = {}
        # subject -> accumulated feedback entries
        self._feedback: dict[int, list[FeedbackEntry]] = {}

    def record_interaction(self, rater: int, subject: int, location: str, score: float) -> None:
        """Log a direct interaction; the location's recent score shifts to previous."""
        slot = self._history.setdefault((rater, subject), {}).setdefault(
            location, [DEFAULT_CONFIDENCE, DEFAULT_CONFIDENCE])
        slot[0] = slot[1]
        slot[1] = clamp01(score)

    def record_feedback(self, rater: int, subject: int, score: float,
                        level_weight: float = 1.0) -> None:
        self._feedback.setdefault(subject, []).append(
            FeedbackEntry(rater=rater, subject=subject, score=clamp01(score),
                          level_weight=level_weight))

    def snapshot(self) -> dict[int, ConfidenceRecord]:
        """Every device's record, computed from the full history.

        Implicit confidence is the mean, over raters in ascending id
        order, of each rater's per-location score for the subject; a
        subject nobody has rated scores the neutral default.
        """
        rater_scores: dict[int, list[float]] = {}  # subject -> one score per rater
        for (_, subject), locations in sorted(self._history.items()):
            observations = [
                LocationObservation(location=loc, previous=slot[0], recent=slot[1])
                for loc, slot in sorted(locations.items())
            ]
            rater_scores.setdefault(subject, []).append(implicit_confidence(observations))
        records = {}
        for dev in self.device_ids:
            scores = rater_scores.get(dev)
            implicit = sum(scores) / len(scores) if scores else DEFAULT_CONFIDENCE
            explicit = explicit_confidence(self._feedback.get(dev, []))
            records[dev] = ConfidenceRecord(
                device_id=dev, implicit=implicit, explicit=explicit,
                total=total_confidence(implicit, explicit, self.alpha, self.beta))
        return records

    def select(self, count: int) -> list[int]:
        return select_verifiers(self.snapshot().values(), count)
