"""Each output check must pass on real CLI output and fail once that output
is corrupted. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from retrograph.cli import main  # noqa: E402

TARGETS = ["19", "23", "40"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Real outputs of plan, batch-plan, gen-data and train on tiny inputs."""
    tmp = tmp_path_factory.mktemp("runs")
    targets = tmp / "targets.txt"
    targets.write_text("\n".join(TARGETS) + "\n", encoding="utf-8")
    base = ["--targets", str(targets), "--budget", "40", "--k", "6", "--seed", "0"]
    assert main(["plan", *base, "--out", str(tmp / "plan")]) in (0, 1)
    assert main(["batch-plan", *base, "--batch-size", "2", "--out",
                 str(tmp / "batch")]) in (0, 1)
    gen = tmp / "gen.json"
    gen.write_text(json.dumps({"full_k": True}), encoding="utf-8")
    assert main(["gen-data", *base, "--config", str(gen), "--out",
                 str(tmp / "data")]) == 0
    train = tmp / "train.json"
    train.write_text(json.dumps({"hidden": 8, "rbf_n": 4, "layers": 1, "bits": 32,
                                 "drop_rate": 0.0, "epochs": 2, "val_n": 4,
                                 "lr": 1e-2}), encoding="utf-8")
    assert main(["train", "--config", str(train), "--seed", "0", "--targets",
                 str(tmp / "data" / "dataset.jsonl"), "--out", str(tmp / "model")]) == 0
    read = lambda *p: tmp.joinpath(*p).read_text(encoding="utf-8")
    return {
        "plan": json.loads(read("plan", "result.json")),
        "plan_trace": read("plan", "trace.csv"),
        "batch": json.loads(read("batch", "result.json")),
        "batch_trace": read("batch", "trace.csv"),
        "dataset": read("data", "dataset.jsonl"),
        "train_log": read("model", "train_log.csv"),
        "model_dir": tmp / "model",
    }


def _solved_route(payload: dict) -> dict:
    return next(t["route"] for r in payload["results"] for t in r["targets"]
                if t["route"] is not None and t["route"]["reaction"] is not None)


# -- result.json and routes -------------------------------------------------------

def test_real_outputs_pass(runs):
    assert checks.check_result(runs["plan"], TARGETS, 40) == []
    assert checks.check_trace(runs["plan_trace"], runs["plan"], 40) == []
    assert checks.check_result(runs["batch"], TARGETS, 40, batch_size=2) == []
    assert checks.check_trace(runs["batch_trace"], runs["batch"], 40, batched=True) == []
    assert checks.check_dataset(runs["dataset"])[0] == []
    assert checks.check_train_log(runs["train_log"], 2) == []


def _first_leaf(tree: dict) -> dict:
    while tree["reaction"] is not None:
        tree = tree["reaction"]["children"][0]
    return tree


@pytest.mark.parametrize("corrupt", [
    "leaf_outside_inventory", "not_a_split", "zero_cost", "infinite_cost",
])
def test_corrupted_route_fails(runs, corrupt):
    payload = copy.deepcopy(runs["plan"])
    route = _solved_route(payload)
    rxn = route["reaction"]
    if corrupt == "leaf_outside_inventory":
        _first_leaf(route)["molecule"] = "4"
    elif corrupt == "not_a_split":
        rxn["children"][0]["molecule"] = str(int(rxn["children"][0]["molecule"]) + 1)
    elif corrupt == "zero_cost":
        rxn["cost"] = 0.0
    else:
        rxn["cost"] = float("inf")
    assert checks.check_result(payload, TARGETS, 40) != []


def test_repeat_on_path_fails():
    leaf = {"molecule": "2", "reaction": None}
    route = {"molecule": "4", "reaction": {"cost": 1.0, "children": [
        {"molecule": "2", "reaction": {"cost": 1.0, "children": [
            {"molecule": "1", "reaction": None}]}}]}}
    assert checks.check_route(route, "x") == []
    route["reaction"]["children"][0]["reaction"]["children"] = [leaf]
    assert any("repeats" in e for e in checks.check_route(route, "x"))


def test_batches_must_partition_targets(runs):
    payload = copy.deepcopy(runs["batch"])
    payload["results"][0]["targets"].append(copy.deepcopy(
        payload["results"][-1]["targets"][0]))
    assert checks.check_result(payload, TARGETS, 40, batch_size=8) != []
    payload = copy.deepcopy(runs["batch"])
    payload["results"][-1]["targets"].pop()
    assert checks.check_result(payload, TARGETS, 40, batch_size=2) != []


def test_over_budget_result_fails(runs):
    payload = copy.deepcopy(runs["plan"])
    payload["results"][0]["totals"]["iterations"] = 41
    assert checks.check_result(payload, TARGETS, 40) != []


# -- trace.csv ------------------------------------------------------------------

def _edit_trace(text: str, row: int, col: int, value: str) -> str:
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("corrupt", ["skip_iteration", "count_drop", "re_expand",
                                     "row_missing", "over_budget"])
def test_corrupted_trace_fails(runs, corrupt):
    text, payload = runs["plan_trace"], runs["plan"]
    if corrupt == "skip_iteration":
        text = _edit_trace(text, 2, 1, "3")
    elif corrupt == "count_drop":
        text = _edit_trace(text, 2, 3, "0")
    elif corrupt == "re_expand":
        text = _edit_trace(text, 2, 2, text.splitlines()[1].split(",")[2])
    elif corrupt == "row_missing":
        lines = text.splitlines()
        text = "\n".join(lines[:2] + lines[3:]) + "\n"
    else:
        assert checks.check_trace(text, payload, 2) != []
        return
    assert checks.check_trace(text, payload, 40) != []


# -- dataset and training log ----------------------------------------------------

def _edit_example(text: str, edit) -> str:
    lines = text.splitlines()
    rec = json.loads(lines[1])
    edit(rec)
    lines[1] = json.dumps(rec)
    return "\n".join(lines) + "\n"


def _drop_label(rec):
    rec["labels"].pop(next(iter(rec["labels"])))


def _no_positive(rec):
    rec["labels"] = {k: 0 for k in rec["labels"]}


def _molecule_edge(rec):
    mols = [i for i, n in enumerate(rec["nodes"]) if n["kind"] == "molecule"]
    rec["edges"].append([mols[0], mols[-1]])


def _two_products(rec):
    rxn = next(i for i, n in enumerate(rec["nodes"]) if n["kind"] == "reaction")
    mol = next(i for i, n in enumerate(rec["nodes"]) if n["kind"] == "molecule"
               and [i, rxn] not in rec["edges"])
    rec["edges"].append([mol, rxn])


@pytest.mark.parametrize("edit", [_drop_label, _no_positive, _molecule_edge,
                                  _two_products])
def test_corrupted_dataset_fails(runs, edit):
    text = runs["dataset"]
    # the second example already has a reaction node and several molecules
    lines = text.splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    text = _edit_example("\n".join(lines) + "\n", edit)
    assert checks.check_dataset(text)[0] != []


@pytest.mark.parametrize("corrupt", ["nan", "no_drop", "missing_epoch"])
def test_corrupted_train_log_fails(runs, corrupt):
    lines = runs["train_log"].splitlines()
    if corrupt == "nan":
        lines[1] = lines[1].rsplit(",", 1)[0] + ",nan"
    elif corrupt == "no_drop":
        fields = lines[2].split(",")
        fields[3] = "1e9"
        lines[2] = ",".join(fields)
    else:
        lines = lines[:2]
    assert checks.check_train_log("\n".join(lines) + "\n", 2) != []


# -- reruns, normalized scores and span arithmetic ----------------------------------

def test_rerun_digest_mismatch_fails(runs, tmp_path):
    first = checks.digest_tree(runs["model_dir"])
    assert checks.compare_digests(first, dict(first)) == []
    changed = dict(first)
    changed["gnn.bin"] = "0" * 64
    assert checks.compare_digests(first, changed) != []
    missing = dict(first)
    missing.pop("train_log.csv")
    assert checks.compare_digests(first, missing) != []


def test_score_check_recounts_open_nodes():
    tracer = tracing.Tracer()
    snap = {"nodes": [{"kind": "molecule", "open": False},
                      {"kind": "reaction"},
                      {"kind": "molecule", "open": True},
                      {"kind": "molecule", "open": True}]}
    hook = tracing._score_hook(tracer)
    hook((snap,), {})(SimpleNamespace(normalized={2: 0.25, 3: 0.75}))
    assert tracer.check_errors == []
    hook((snap,), {})(SimpleNamespace(normalized={2: 0.25, 3: 0.7}))
    hook((snap,), {})(SimpleNamespace(normalized={0: 0.25, 3: 0.75}))
    assert len(tracer.check_errors) == 2


def test_self_and_total_time():
    tracer = tracing.Tracer()
    # planner.plan [0, 10] > costmodel.open_costs [1, 4] > searchgraph.open_nodes [2, 3]
    #                      > planner.select_next [5, 6]
    for name, start, end, parent in [("planner.plan", 0, 10, -1),
                                     ("costmodel.open_costs", 1, 4, 0),
                                     ("searchgraph.open_nodes", 2, 3, 1),
                                     ("planner.select_next", 5, 6, 0)]:
        tracer.names.append(name)
        tracer.starts.append(float(start))
        tracer.ends.append(float(end))
        tracer.parents.append(parent)
    tracer.results[0] = SimpleNamespace(iterations=3)
    m = tracing.layer_metrics(tracer, 0, 0)
    assert m["planner.total_s"] == 10.0
    assert m["planner.self_s"] == 10.0 - 3.0 - 1.0 + 1.0
    assert m["costmodel.self_s"] == 2.0
    assert m["searchgraph.scan_s"] == 1.0
    assert m["planner.expansions"] == 3


# -- what run.py promises -------------------------------------------------------------

def test_benchmark_json_names_what_run_prints():
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in spec["end_to_end"])
    layer_names = list(tracing.layer_metrics(tracing.Tracer(), 0, 0))
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert all(m["unit"] == tracing.unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    import shutil
    import subprocess
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "plan-gnn",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench"]
