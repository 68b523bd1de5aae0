"""The benchmark's workloads run against this package, traced, and check out.

``perfbench/run.py`` exits non-zero when a workload calls a name the
package no longer has, when a step's output is wrong, or, traced, when
a layer a workload relies on records no call.  This runs each workload
for a few steps the same way, so such a break fails here first.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's harness, spans and workloads modules, for this test only.

    ``perfbench/`` is on the path, and its modules in ``sys.modules``,
    only while the test runs, so their generic names reach no other test.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("harness", "spans", "workloads")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    modules = [importlib.import_module(name) for name in names]
    yield modules
    for name in names:
        sys.modules.pop(name, None)


# Every other unit of work is traced, and each workload's set-ups come
# first, so these step counts are the fewest that trace at least one step.
@pytest.mark.parametrize("name, steps", [("dense-rounds", 2), ("sparse-seeds", 2),
                                         ("proof-mix", 16)])
def test_workload_runs_traced(perfbench, name, steps):
    harness, spans, workloads = perfbench
    workload = workloads.WORKLOADS[name]
    tracer = spans.Tracer()
    run = harness.Run(0.0, steps, tracer)
    workload.drive(run, 1, workloads.Digest(workload.digest_rounds))
    run.finish()
    assert run.steps >= steps
    assert run.failed == 0
    # Only the two layers whose functions are gone from the package may be
    # absent: the guard skips an absent layer, so a renamed one would
    # otherwise read 0 without failing.
    assert tracer.absent == ["trust.finish_round", "sim.build_graph"]
    harness.guard(spans.layer_totals(tracer.spans, run.scale()), tracer.absent,
                  workload.expected)
