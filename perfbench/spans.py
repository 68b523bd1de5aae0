"""Span tracing for the benchmark's traced run.

The traced run wraps public functions of the package from the outside:
each wrapper records a span (name, start, end, parent span, and the
set-up or step it ran in) in memory and bumps the counters of its
layer.  Nothing inside the package changes; uninstalling puts the
original objects back.

Every name is patched where its caller looks it up.  ``sig`` binds
``multi_scalar_mul`` and ``scalar_mul`` from ``ec`` by name, so the
wrapper goes on ``cloneguard.sig``; ``context`` and ``sim`` call through
module attributes (``sigmod.sign``, ``ctx.sense_context``), so those
wrappers go on the defining module; ``TrustState`` and ``MetricsSink``
methods are patched on the class.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

SETUP = "setup"
STEP = "step"


@dataclass(frozen=True)
class Layer:
    """One wrapped function: the span name and where its caller finds it."""

    name: str    # span name, e.g. "sig.batch_verify"
    owner: str   # module path, optionally ".Class", holding the attribute
    attr: str
    count: Callable[["Tracer", tuple, object], None] | None = None


def _count_terms(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.bump("ec.multi_scalar_mul.terms", len(args[0]))


def _count_batch(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.bump("sig.batch_verify.items", len(args[0]))
    tracer.bump("sig.batch_verify.accepted", int(bool(result)))


def _count_each(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.bump("sig.verify_each.items", len(args[0]))


def _count_verdicts(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.bump("context.verify_proof_batch.items", len(args[0]))
    for verdict in result:  # type: ignore[attr-defined]
        tracer.bump(f"context.verdict.{verdict.value}")
        # Only the signature stage gives these two verdicts, so they
        # count exactly the items that survived the context stage.
        if verdict.value in ("confirmed", "compromised_signature"):
            tracer.bump("context.verify_proof_batch.survivors")


LAYERS = (
    Layer("ec.multi_scalar_mul", "cloneguard.sig", "multi_scalar_mul", _count_terms),
    Layer("ec.scalar_mul", "cloneguard.sig", "scalar_mul"),
    Layer("sig.generate_keypair", "cloneguard.sig", "generate_keypair"),
    Layer("sig.sign", "cloneguard.sig", "sign"),
    Layer("sig.batch_verify", "cloneguard.sig", "batch_verify", _count_batch),
    Layer("sig.verify_each", "cloneguard.sig", "verify_each", _count_each),
    Layer("context.verify_proof_batch", "cloneguard.context", "verify_proof_batch",
          _count_verdicts),
    Layer("context.sense_context", "cloneguard.context", "sense_context"),
    Layer("context.generate_proof", "cloneguard.context", "generate_proof"),
    Layer("trust.finish_round", "cloneguard.trust.TrustState", "finish_round"),
    Layer("trust.record_interaction", "cloneguard.trust.TrustState", "record_interaction"),
    Layer("sim.init_network", "cloneguard.sim", "init_network"),
    Layer("sim.inject_clones", "cloneguard.sim", "inject_clones"),
    Layer("sim.build_graph", "cloneguard.sim", "build_graph"),
    Layer("sim.mobility_step", "cloneguard.sim", "mobility_step"),
    Layer("sim.run_detection_round", "cloneguard.sim", "run_detection_round"),
    Layer("metrics.log", "cloneguard.metrics.MetricsSink", "log"),
)


def resolve_owner(path: str) -> object:
    """The module, or the class inside a module, named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "record")

    def __init__(self, name: str, start: float, end: float, parent: int | None,
                 phase: str, record: int):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.phase = phase
        self.record = record


class Tracer:
    """Spans and counters of one traced run, kept in memory.

    ``phase`` and ``record`` say what the benchmark is doing (a set-up
    or a step, and the index of its timing record); spans carry both and
    counters are filed by phase.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = {SETUP: Counter(), STEP: Counter()}
        self.phase = SETUP
        self.record = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # --- spans ---

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.phase, self.record))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        assert popped == idx, "spans must close in the order they opened"

    def bump(self, key: str, n: int = 1) -> None:
        self.counts[self.phase][key] += n

    # --- wrappers ---

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(layer.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if layer.count is not None:
                layer.count(tracer, args, result)
            return result

        return traced

    def install(self, layers=LAYERS) -> None:
        """Put a wrapper around every layer's function where it is looked up.

        A layer whose attribute no longer exists is noted in ``absent``
        and skipped, so a deleted function reads as absent, not as 0 s.
        """
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        self.absent = []
        for layer in layers:
            owner = resolve_owner(layer.owner)
            original = vars(owner).get(layer.attr)
            if original is None:
                self.absent.append(layer.name)
                continue
            self._saved.append((owner, layer.attr, original))
            setattr(owner, layer.attr, self.wrap(layer, original))

    def uninstall(self) -> None:
        """Restore every patched attribute to the object it held before."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(idx, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def layer_totals(spans: list[Span], scale: list[float] | None = None
                 ) -> dict[tuple[str, str], dict[str, float]]:
    """(phase, span name) -> call count, total seconds and total self seconds.

    ``scale[r]``, when given, multiplies the seconds of spans in record r.
    """
    totals: dict[tuple[str, str], dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        factor = 1.0 if scale is None else scale[span.record]
        slot = totals.setdefault((span.phase, span.name), {"calls": 0, "s": 0.0, "self_s": 0.0})
        slot["calls"] += 1
        slot["s"] += (span.end - span.start) * factor
        slot["self_s"] += own * factor
    return totals


def write_spans(spans: list[Span], path) -> None:
    """One tab-separated line per span: name, start, end, parent, phase, record."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("name\tstart\tend\tparent\tphase\trecord\n")
        for span in spans:
            parent = "" if span.parent is None else span.parent
            out.write(f"{span.name}\t{span.start:.9f}\t{span.end:.9f}\t{parent}\t"
                      f"{span.phase}\t{span.record}\n")
