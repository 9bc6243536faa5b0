"""The benchmark's tracer wraps package functions by name from outside.

If a cleanup renames or moves one of them, ``perfbench/run.py --trace 1``
would fail at install time; this test fails first.
"""

import sys
from pathlib import Path

import pytest

from retrograph import numerics, planner, policygnn, searchgraph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    yield tracing
    sys.modules.pop("tracing", None)


def test_traced_install_and_uninstall(tracing):
    originals = (planner.plan, policygnn.score, searchgraph.SearchGraph.snapshot,
                 numerics.Tensor.__init__)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, traced=True)
        assert planner.plan is not originals[0]
        assert searchgraph.SearchGraph.snapshot is not originals[2]
    finally:
        tracer.uninstall()
    assert (planner.plan, policygnn.score, searchgraph.SearchGraph.snapshot,
            numerics.Tensor.__init__) == originals
