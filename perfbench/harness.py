"""Closed-loop measurement: set-ups, timed steps, checks and metrics.

One process, one thread: a step starts only after the previous one has
finished and been checked.  Work is grouped into units (a set-up, a
round, a seed, a block of batches).  In the traced run every other unit
runs with the span wrappers installed, so the traced and the untraced
halves see the same mix of work and their throughput ratio is the
tracing overhead.

Times are scaled to a reference speed.  The host this runs on shares
its cores, and its speed drifts by a third and more over tens of
seconds, for every process alike.  So right before each set-up and step
the harness times a fixed piece of pure-Python work that belongs to the
benchmark (``reference_work``), and multiplies the host seconds of each
set-up or step by ``REFERENCE_S`` over the median reference time taken
just before and just after it.  The program's own speed is untouched by
this: it scales only how fast the host happened to be at that moment.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from spans import SETUP, STEP, Tracer

REFERENCE_S = 0.0003        # seconds the reference work takes at reference speed
REFERENCE_SAMPLES = 3       # reference timings before every set-up and step
_REFERENCE_MODULUS = 2**256 - 2**224 + 2**192 + 2**96 - 1


def reference_work() -> int:
    """Fixed work in the style of the package's hot paths: 256-bit
    modular products, small tuples and dictionary updates."""
    x = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
    y = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5
    slots: dict[int, tuple[int, int]] = {}
    for i in range(250):
        x = x * y % _REFERENCE_MODULUS
        y = (y * y + i) % _REFERENCE_MODULUS
        slots[i & 63] = (x >> 192, i)
    return x ^ y ^ len(slots)


def reference_times(samples: int = REFERENCE_SAMPLES) -> list[float]:
    out = []
    for _ in range(samples):
        start = time.perf_counter()
        reference_work()
        out.append(time.perf_counter() - start)
    return out


def tail_rank(n: int, pct: float) -> int:
    """1-based nearest rank of the pct-th percentile of n samples."""
    return max(1, math.ceil(pct / 100.0 * n))


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: n - tail_rank(n, pct) samples lie above it."""
    ordered = sorted(values)
    return ordered[tail_rank(len(ordered), pct) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Timed:
    """One set-up or step, with the reference timings taken right before it."""

    phase: str
    host_s: float
    reference: list[float]
    traced: bool
    proofs: int = 0
    ok: bool = True
    scaled_s: float = 0.0


class Run:
    """Timings and check results of one benchmark run.

    The measured window opens at the first step and the run goes on
    until it has lasted ``seconds`` and taken at least ``min_steps``
    steps.  Peak memory is read right after step ``min_steps``, so it
    always covers the same work however fast the steps are.
    """

    def __init__(self, seconds: float, min_steps: int, tracer: Tracer | None = None):
        self.seconds = seconds
        self.min_steps = min_steps
        self.tracer = tracer
        self.timed: list[Timed] = []
        self.peak_rss_mb: float | None = None
        self._units = 0
        self._tracing = False
        self._start: float | None = None
        self.steps = 0

    @contextmanager
    def unit(self):
        """A unit of work; in a traced run every other one is traced."""
        self._tracing = self.tracer is not None and self._units % 2 == 0
        if self._tracing:
            self.tracer.install()
        try:
            yield
        finally:
            if self._tracing:
                self.tracer.uninstall()
            self._tracing = False
            self._units += 1

    def _time(self, phase: str, work: Callable[[], object]) -> tuple[object, Timed]:
        reference = reference_times()
        if self.tracer is not None:
            self.tracer.phase = phase
            self.tracer.record = len(self.timed)
        start = time.perf_counter()
        out = work()
        record = Timed(phase, time.perf_counter() - start, reference, self._tracing)
        self.timed.append(record)
        return out, record

    def setup(self, build: Callable[[], object]) -> object:
        return self._time(SETUP, build)[0]

    def step(self, work: Callable[[], object],
             check: Callable[[object], tuple[int, bool]]) -> object:
        """Time ``work``, then let ``check`` return (proofs adjudicated, ok)."""
        if self._start is None:
            self._start = time.perf_counter()
        out, record = self._time(STEP, work)
        record.proofs, record.ok = check(out)
        self.steps += 1
        if self.steps == self.min_steps:
            self.peak_rss_mb = peak_rss_mb()
        return out

    def done(self) -> bool:
        if self._start is None or self.steps < self.min_steps:
            return False
        return time.perf_counter() - self._start >= self.seconds

    def finish(self) -> None:
        """Scale every host time by the reference timings on both sides of it."""
        after = reference_times()
        for i, record in enumerate(self.timed):
            following = self.timed[i + 1].reference if i + 1 < len(self.timed) else after
            speed = REFERENCE_S / statistics.median(record.reference + following)
            record.scaled_s = record.host_s * speed

    def scale(self) -> list[float]:
        """Per timing record, scaled over host seconds."""
        return [r.scaled_s / r.host_s if r.host_s else 1.0 for r in self.timed]

    def of(self, phase: str, traced: bool | None = None) -> list[Timed]:
        return [r for r in self.timed
                if r.phase == phase and (traced is None or r.traced == traced)]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.of(STEP) if not r.ok)

    def end_to_end(self, tail_pct: int) -> dict[str, tuple[float, str]]:
        times = [r.scaled_s for r in self.of(STEP)]
        return {
            "setup_s": (statistics.median(r.scaled_s for r in self.of(SETUP)), "s"),
            "step_s.p50": (statistics.median(times), "s"),
            "step_s.tail": (percentile(times, tail_pct), "s"),
            "proofs_per_s": (self.throughput(), "proofs/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def host_seconds(self) -> dict[str, float]:
        """The same timings in unscaled host seconds, for the record."""
        steps = [r.host_s for r in self.of(STEP)]
        return {"setup_s": statistics.median(r.host_s for r in self.of(SETUP)),
                "step_s.p50": statistics.median(steps),
                "proofs_per_s": sum(r.proofs for r in self.of(STEP)) / sum(steps),
                "reference_s": statistics.median(t for r in self.timed for t in r.reference)}

    def throughput(self, traced: bool | None = None) -> float:
        picked = self.of(STEP, traced)
        return sum(r.proofs for r in picked) / sum(r.scaled_s for r in picked)


# Per-layer metrics of the traced run.  Each row: metric name, unit, the
# phase it counts, the span name, the field ("calls", "s" or "self_s" of
# that span's totals, or "#counter" for a counter the wrappers bump) and
# what it is divided by: the number of traced steps or set-ups, or the
# span's calls.
PER_STEP = "step"
PER_SETUP = "setup"
PER_CALL = "call"

LAYER_METRICS = (
    # name, unit, phase, span, field, divide by
    ("ec.multi_scalar_mul.calls", "calls/step", STEP, "ec.multi_scalar_mul", "calls", PER_STEP),
    ("ec.multi_scalar_mul.terms", "terms/call", STEP, "ec.multi_scalar_mul", "#ec.multi_scalar_mul.terms", PER_CALL),
    ("ec.multi_scalar_mul.s", "s/step", STEP, "ec.multi_scalar_mul", "s", PER_STEP),
    ("ec.scalar_mul.calls", "calls/step", STEP, "ec.scalar_mul", "calls", PER_STEP),
    ("ec.scalar_mul.s", "s/step", STEP, "ec.scalar_mul", "s", PER_STEP),
    ("ec.scalar_mul.setup_calls", "calls/setup", SETUP, "ec.scalar_mul", "calls", PER_SETUP),
    ("ec.scalar_mul.setup_s", "s/setup", SETUP, "ec.scalar_mul", "s", PER_SETUP),
    ("sig.generate_keypair.calls", "calls/setup", SETUP, "sig.generate_keypair", "calls", PER_SETUP),
    ("sig.generate_keypair.s", "s/setup", SETUP, "sig.generate_keypair", "s", PER_SETUP),
    ("sig.sign.calls", "calls/step", STEP, "sig.sign", "calls", PER_STEP),
    ("sig.sign.self_s", "s/step", STEP, "sig.sign", "self_s", PER_STEP),
    ("sig.sign.setup_calls", "calls/setup", SETUP, "sig.sign", "calls", PER_SETUP),
    ("sig.sign.setup_self_s", "s/setup", SETUP, "sig.sign", "self_s", PER_SETUP),
    ("sig.batch_verify.calls", "calls/step", STEP, "sig.batch_verify", "calls", PER_STEP),
    ("sig.batch_verify.items", "items/call", STEP, "sig.batch_verify", "#sig.batch_verify.items", PER_CALL),
    ("sig.batch_verify.accepted", "calls/step", STEP, "sig.batch_verify", "#sig.batch_verify.accepted", PER_STEP),
    ("sig.batch_verify.accept_ratio", "ratio", STEP, "sig.batch_verify", "#sig.batch_verify.accepted", PER_CALL),
    ("sig.batch_verify.self_s", "s/step", STEP, "sig.batch_verify", "self_s", PER_STEP),
    ("sig.verify_each.calls", "calls/step", STEP, "sig.verify_each", "calls", PER_STEP),
    ("sig.verify_each.items", "items/call", STEP, "sig.verify_each", "#sig.verify_each.items", PER_CALL),
    ("sig.verify_each.s", "s/step", STEP, "sig.verify_each", "s", PER_STEP),
    ("context.verify_proof_batch.calls", "calls/step", STEP, "context.verify_proof_batch", "calls", PER_STEP),
    ("context.verify_proof_batch.items", "items/call", STEP, "context.verify_proof_batch", "#context.verify_proof_batch.items", PER_CALL),
    ("context.verify_proof_batch.self_s", "s/step", STEP, "context.verify_proof_batch", "self_s", PER_STEP),
    ("context.verdict.confirmed", "verdicts/step", STEP, "context.verify_proof_batch", "#context.verdict.confirmed", PER_STEP),
    ("context.verdict.compromised_signature", "verdicts/step", STEP, "context.verify_proof_batch", "#context.verdict.compromised_signature", PER_STEP),
    ("context.verdict.compromised_context", "verdicts/step", STEP, "context.verify_proof_batch", "#context.verdict.compromised_context", PER_STEP),
    ("context.verdict.not_registered", "verdicts/step", STEP, "context.verify_proof_batch", "#context.verdict.not_registered", PER_STEP),
    ("context.sense_context.calls", "calls/step", STEP, "context.sense_context", "calls", PER_STEP),
    ("context.sense_context.s", "s/step", STEP, "context.sense_context", "s", PER_STEP),
    ("context.generate_proof.self_s", "s/step", STEP, "context.generate_proof", "self_s", PER_STEP),
    ("trust.finish_round.calls", "calls/step", STEP, "trust.finish_round", "calls", PER_STEP),
    ("trust.finish_round.s", "s/step", STEP, "trust.finish_round", "s", PER_STEP),
    ("trust.record_interaction.calls", "calls/step", STEP, "trust.record_interaction", "calls", PER_STEP),
    ("sim.init_network.s", "s/setup", SETUP, "sim.init_network", "s", PER_SETUP),
    ("sim.inject_clones.s", "s/setup", SETUP, "sim.inject_clones", "s", PER_SETUP),
    ("sim.build_graph.s", "s/step", STEP, "sim.build_graph", "s", PER_STEP),
    ("sim.mobility_step.s", "s/step", STEP, "sim.mobility_step", "s", PER_STEP),
    ("sim.run_detection_round.self_s", "s/step", STEP, "sim.run_detection_round", "self_s", PER_STEP),
    ("metrics.log.calls", "calls/step", STEP, "metrics.log", "calls", PER_STEP),
    ("metrics.log.s", "s/step", STEP, "metrics.log", "s", PER_STEP),
)


def layer_metrics(run: Run, totals: dict[tuple[str, str], dict[str, float]]
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, plus the tracing overhead."""
    tracer = run.tracer
    assert tracer is not None
    denominators = {
        PER_STEP: len(run.of(STEP, traced=True)),
        PER_SETUP: len(run.of(SETUP, traced=True)),
    }
    out: dict[str, tuple[float, str]] = {}
    for name, unit, phase, span, field, per in LAYER_METRICS:
        layer = totals.get((phase, span), {"calls": 0, "s": 0.0, "self_s": 0.0})
        if field.startswith("#"):
            value = tracer.counts[phase][field[1:]]
        else:
            value = layer[field]
        base = layer["calls"] if per == PER_CALL else denominators[per]
        out[name] = (value / base if base else 0.0, unit)
    items = tracer.counts[STEP]["context.verify_proof_batch.items"]
    survivors = tracer.counts[STEP]["context.verify_proof_batch.survivors"]
    out["context.verify_proof_batch.survivor_ratio"] = (survivors / items if items else 0.0,
                                                        "ratio")
    traced_pps = run.throughput(traced=True)
    untraced_pps = run.throughput(traced=False)
    out["trace.steps"] = (float(denominators[PER_STEP]), "count")
    out["trace.setups"] = (float(denominators[PER_SETUP]), "count")
    out["trace.proofs_per_s"] = (traced_pps, "proofs/s")
    out["trace.untraced_proofs_per_s"] = (untraced_pps, "proofs/s")
    out["trace.overhead"] = (untraced_pps / traced_pps - 1.0, "ratio")
    return out


class TraceGuardError(RuntimeError):
    """A layer that should work on this workload saw no calls."""


def guard(totals: dict[tuple[str, str], dict[str, float]], absent: list[str],
          expected: dict[str, tuple[str, ...]]) -> None:
    """Fail loudly when an expected layer recorded no call in its phase."""
    missing = [f"{name} ({phase})" for phase, names in expected.items() for name in names
               if name not in absent and (phase, name) not in totals]
    if missing:
        raise TraceGuardError("no calls recorded for: " + ", ".join(missing))
