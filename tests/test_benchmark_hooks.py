"""The benchmark's tracer wraps package functions by name from outside.

If a cleanup renames or moves one of them, ``perfbench/run.py --trace 1``
would fail at install time; this test fails first.
"""

import json
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


def test_traced_gnn_plan_scores_once_per_iteration(tracing, tmp_path):
    # planning must reach the network through the wrapped policygnn.score,
    # once per iteration, and pass the score hook's open-node checks
    from test_golden_outputs import GNN_HYPER

    from retrograph import cli
    from retrograph.policygnn import GnnParameters

    GnnParameters(GNN_HYPER, seed=0).save(tmp_path / "gnn.bin")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cost": "gnn", "lam": 0.5,
                                  "checkpoint": str(tmp_path / "gnn.bin")}))
    targets = tmp_path / "targets.txt"
    targets.write_text("97\n64\n")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, traced=True)
        first = tracer.begin_pass()
        rc = cli.main(["plan", "--domain", "additive-split", "--budget", "20",
                       "--k", "6", "--seed", "0", "--targets", str(targets),
                       "--config", str(config), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert rc in (0, 1)
    plans = tracer.spans_named("planner.plan", first)
    iterations = sum(tracer.results[i].iterations for i in plans)
    assert len(plans) == 2 and iterations > 0
    assert len(tracer.spans_named("policygnn.score", first)) == iterations
    assert tracer.check_errors == []


def test_traced_train_runs_through_the_wrapped_layers(tracing, tmp_path):
    # training must reach the network through the wrapped example_loss (one
    # span per example per epoch: train and validation) and meta_layer, and
    # hash each distinct molecule of the dataset once
    from retrograph import cli, traindata

    config = tmp_path / "net.json"
    config.write_text(json.dumps({
        "hidden": 8, "rbf_n": 4, "layers": 2, "bits": 32, "epochs": 2,
        "lr": 1e-3, "train_batch": 4, "val_n": 2, "drop_rate": 0.0,
        "full_k": True}))
    targets = tmp_path / "targets.txt"
    targets.write_text("9\n12\n")
    assert cli.main(["gen-data", "--config", str(config), "--domain",
                     "additive-split", "--targets", str(targets), "--budget", "20",
                     "--k", "6", "--seed", "0", "--out", str(tmp_path / "data")]) == 0
    dataset = traindata.load_dataset(tmp_path / "data" / "dataset.jsonl")
    molecules = {nd["key"] for ex in dataset for nd in ex.snapshot["nodes"]
                 if nd["kind"] == "molecule"}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, traced=True)
        first = tracer.begin_pass()
        rc = cli.main(["train", "--config", str(config), "--targets",
                       str(tmp_path / "data" / "dataset.jsonl"), "--seed", "0",
                       "--out", str(tmp_path / "model")])
    finally:
        tracer.uninstall()
    assert rc == 0 and len(dataset) >= 4
    assert len(tracer.spans_named("policygnn.example_loss", first)) == 2 * len(dataset)
    assert len(tracer.spans_named("policygnn.meta_layer", first)) > 0
    assert len(tracer.spans_named("molspace.features", first)) == len(molecules)
    assert tracer.check_errors == []


def test_traced_value_net_fit_spans_each_backward(tracing):
    # numerics.backward times the value net's gradient step: one span per
    # epoch of a fit
    from retrograph.costmodel import train_value_net
    from retrograph.planner import RouteReaction, RouteTree

    route = RouteTree("T", RouteReaction(1.0, [RouteTree("I")]))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, traced=True)
        first = tracer.begin_pass()
        train_value_net([route], bits=16, hidden=4, epochs=3)
    finally:
        tracer.uninstall()
    assert len(tracer.spans_named("numerics.backward", first)) == 3
    assert tracer.check_errors == []
