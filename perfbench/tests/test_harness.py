"""Scaling to the reference speed and the end-to-end arithmetic."""

import pytest

import harness
from harness import REFERENCE_S, Run, Timed
from spans import SETUP, STEP


def test_finish_scales_by_reference_timings_on_both_sides(monkeypatch):
    run = Run(seconds=0.0, min_steps=1)
    run.timed = [Timed(SETUP, 2.0, [0.001] * 3, False),
                 Timed(STEP, 1.0, [0.002] * 3, False, proofs=10)]
    monkeypatch.setattr(harness, "reference_times", lambda: [0.004] * 3)
    run.finish()
    # set-up: median of its own and the step's reference timings
    assert run.timed[0].scaled_s == pytest.approx(2.0 * REFERENCE_S / 0.0015)
    # step: median of its own and the closing reference timings
    assert run.timed[1].scaled_s == pytest.approx(1.0 * REFERENCE_S / 0.003)
    assert run.throughput() == pytest.approx(10 / run.timed[1].scaled_s)
    assert run.scale() == pytest.approx([REFERENCE_S / 0.0015, REFERENCE_S / 0.003])


def test_run_takes_min_steps_and_reads_memory_there():
    run = Run(seconds=0.0, min_steps=3)
    while not run.done():
        run.step(lambda: None, lambda out: (1, True))
    assert run.steps == 3 and run.failed == 0
    assert run.peak_rss_mb > 0


def test_benchmark_json_lists_exactly_the_metrics_the_runs_print():
    import json
    from pathlib import Path

    from harness import layer_metrics
    from spans import Tracer, layer_totals

    declared = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    run = Run(seconds=0.0, min_steps=2, tracer=Tracer())
    while not run.done():
        with run.unit():
            run.setup(lambda: None)
            run.step(lambda: None, lambda out: (1, True))
    run.finish()
    assert [m["name"] for m in declared["end_to_end"]] == list(run.end_to_end(tail_pct=50))
    traced = layer_metrics(run, layer_totals(run.tracer.spans, run.scale()))
    assert [m["name"] for m in declared["per_layer"]] == list(traced)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name, (_, unit) in {**run.end_to_end(tail_pct=50), **traced}.items():
        assert units[name] == unit, name
