"""Span bookkeeping: self time, wrapper install and uninstall, the guard."""

import importlib

import pytest

from cloneguard import context, ec, sig, trust
from harness import TraceGuardError, guard, percentile, tail_rank
from spans import LAYERS, SETUP, STEP, Layer, Span, Tracer, layer_totals, resolve_owner, self_times
from workloads import WORKLOADS


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # parent [0, 10] holds a [1, 4] and b [5, 6]; b holds c [5.2, 5.8].
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 4.0, 5.0, 5.2, 5.8, 6.0, 10.0))
    parent = tracer.open("parent")
    a = tracer.open("a")
    tracer.close(a)
    b = tracer.open("b")
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(b)
    tracer.close(parent)
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 2]
    own = self_times(tracer.spans)
    assert own == pytest.approx([6.0, 3.0, 0.4, 0.6])
    totals = layer_totals(tracer.spans)
    assert totals[(SETUP, "parent")] == pytest.approx({"calls": 1, "s": 10.0, "self_s": 6.0})


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0, None, STEP, 0),
             Span("x", 1.0, 4.0, 0, STEP, 0),
             Span("y", 3.0, 6.0, 0, STEP, 0),
             Span("z", 9.0, 12.0, 0, STEP, 0)]  # runs past its parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def _originals():
    return {(layer.owner, layer.attr): vars(resolve_owner(layer.owner))[layer.attr]
            for layer in LAYERS}


def test_install_wraps_where_callers_look_and_uninstall_restores():
    before = _originals()
    tracer = Tracer()
    tracer.install()
    try:
        for layer in LAYERS:
            current = vars(resolve_owner(layer.owner))[layer.attr]
            assert current is not before[(layer.owner, layer.attr)]
            assert current.__wrapped__ is before[(layer.owner, layer.attr)]
        with pytest.raises(RuntimeError):
            tracer.install()
        import random
        rng = random.Random(5)
        key = sig.generate_keypair(rng)
        ci = context.sense_context(7, 3, (10.0, 20.0), "sensing")
        context.generate_proof(ci, key.private, rng, request_pending=True)
        state = trust.TrustState([1, 2])
        state.finish_round()
    finally:
        tracer.uninstall()
    assert _originals() == before
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("sig.generate_keypair", None), ("ec.scalar_mul", 0),
                     ("context.sense_context", None),
                     ("context.generate_proof", None), ("sig.sign", 3), ("ec.scalar_mul", 4),
                     ("trust.finish_round", None)]
    # The package's own module attribute is never touched: sig reaches
    # ec through names it bound at import.
    assert ec.multi_scalar_mul is importlib.import_module("cloneguard.ec").multi_scalar_mul


def test_wrapped_counters_record_terms_and_items():
    import random
    rng = random.Random(9)
    keys = [sig.generate_keypair(rng) for _ in range(3)]
    items = [(b"m%d" % i, sig.sign(b"m%d" % i, k.private, rng), k.public)
             for i, k in enumerate(keys)]
    tracer = Tracer()
    tracer.phase = STEP
    tracer.install()
    try:
        assert sig.batch_verify(items, rng)
        assert sig.verify_each(items) == [True] * 3
    finally:
        tracer.uninstall()
    counts = tracer.counts[STEP]
    assert counts["sig.batch_verify.items"] == 3
    assert counts["sig.batch_verify.accepted"] == 1
    assert counts["sig.verify_each.items"] == 3
    # one 7-term batch equation, then three 2-term individual checks
    assert counts["ec.multi_scalar_mul.terms"] == 7 + 3 * 2


def test_absent_layer_is_skipped_and_noted():
    tracer = Tracer()
    tracer.install([Layer("sig.gone", "cloneguard.sig", "no_such_function")])
    tracer.uninstall()
    assert tracer.absent == ["sig.gone"]
    assert not hasattr(sig, "no_such_function")


def test_guard_fails_on_expected_layer_without_calls():
    spans = [Span("sig.batch_verify", 0.0, 1.0, None, STEP, 0)]
    totals = layer_totals(spans)
    guard(totals, [], {STEP: ("sig.batch_verify",)})
    with pytest.raises(TraceGuardError, match="sig.verify_each"):
        guard(totals, [], {STEP: ("sig.batch_verify", "sig.verify_each")})
    guard(totals, ["sig.verify_each"], {STEP: ("sig.verify_each",)})


def test_tail_percentile_keeps_ten_samples_above_it():
    for workload in WORKLOADS.values():
        n = workload.min_steps
        assert n - tail_rank(n, workload.tail_pct) >= 10, workload.name
    values = [float(v) for v in range(1, 26)]
    assert percentile(values, 60) == 15.0
