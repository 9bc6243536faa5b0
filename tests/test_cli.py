"""End-to-end command-line tests.

Every test drives cli.main(argv) directly and checks the documented exit
codes: 0 all targets solved, 1 some target failed, 2 config or IO problems,
3 invariant violations. Determinism tests compare output bytes across
reruns with the same seed.
"""

import json
import math

import numpy as np
import pytest

from retrograph import cli
from retrograph.molspace import Inventory
from retrograph.numerics import save_weights
from retrograph.policygnn import GnnHyper, GnnParameters
from retrograph.searchgraph import SearchGraph
from retrograph.traindata import TrainingExample, save_dataset


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def ws(tmp_path):
    return tmp_path


def targets_file(ws, names, fname="targets.txt"):
    return write(ws / fname, "".join(f"{n}\n" for n in names))


def run(*argv):
    return cli.main(list(argv))


def plan_small(ws, names, out, *extra):
    return run("plan", "--domain", "additive-split",
               "--targets", targets_file(ws, names),
               "--budget", "30", "--k", "5", "--seed", "0",
               "--out", str(ws / out), *extra)


class TestPlan:
    def test_solvable_targets_exit_zero(self, ws):
        assert plan_small(ws, ["9", "7"], "out") == 0
        payload = json.loads((ws / "out" / "result.json").read_text())
        assert payload["command"] == "plan"
        solved = [t["success"] for r in payload["results"] for t in r["targets"]]
        assert solved == [True, True]
        trace = (ws / "out" / "trace.csv").read_text()
        assert trace.startswith("run,iteration,expanded")
        assert ",9," in trace

    def test_unsolvable_target_exit_one(self, ws):
        rc = run("plan", "--domain", "factor-split",
                 "--targets", targets_file(ws, ["97"]),
                 "--budget", "20", "--k", "5", "--seed", "0",
                 "--out", str(ws / "out"))
        assert rc == 1
        payload = json.loads((ws / "out" / "result.json").read_text())
        assert payload["results"][0]["targets"][0]["success"] is False

    def test_reruns_are_byte_identical(self, ws):
        assert plan_small(ws, ["9", "8"], "a") == 0
        assert plan_small(ws, ["9", "8"], "b") == 0
        for name in ("result.json", "trace.csv"):
            assert (ws / "a" / name).read_bytes() == (ws / "b" / name).read_bytes()

    def test_table_domain_requires_inventory(self, ws):
        table = write(ws / "rxn.jsonl",
                      '{"product": "T", "reactants": ["I"], "cost": 1.0}\n')
        args = ["plan", "--domain", table,
                "--targets", targets_file(ws, ["T"]),
                "--out", str(ws / "out")]
        assert run(*args) == 2
        inv = write(ws / "inv.txt", "I\n")
        assert run(*args, "--inventory", inv) == 0

    def test_string_reactants_are_a_config_error(self, ws, capsys):
        table = write(ws / "rxn.jsonl",
                      '{"product": "T", "reactants": "AB", "cost": 1.0}\n')
        rc = run("plan", "--domain", table, "--inventory", write(ws / "inv.txt", "A\nB\n"),
                 "--targets", targets_file(ws, ["T"]), "--out", str(ws / "out"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "rxn.jsonl:1:" in err
        assert not (ws / "out").exists()


def value_net_file(path, arrays, **hyper):
    tensors = [(n, np.zeros(shape)) for n, shape in arrays]
    save_weights(path, tensors, {"variant": "value_net", **hyper})


def gnn_file(path, drop=(), **header):
    """A small policy-network checkpoint whose header is overridden by
    *header* and lacks the keys in *drop*."""
    params = GnnParameters(GnnHyper(hidden=8, rbf_n=4, layers=2, feature_bits=64))
    hyper = dict(params.hyper.to_dict(), variant="gnn", **header)
    for key in drop:
        del hyper[key]
    save_weights(path, [(n, t.data) for n, t in params.named_tensors()], hyper)


VALUE_NET_ARRAYS = [("w1", (64, 4)), ("b1", (4,)), ("w2", (4, 1)), ("b2", (1,))]


@pytest.mark.parametrize("cost, make", [
    ("value_net", lambda p: value_net_file(
        p, [a for a in VALUE_NET_ARRAYS if a[0] != "w2"], bits=64, hidden=4)),
    ("value_net", lambda p: value_net_file(p, VALUE_NET_ARRAYS, hidden=4)),
    ("value_net", lambda p: value_net_file(
        p, [("w1", (32, 4))] + VALUE_NET_ARRAYS[1:], bits=64, hidden=4)),
    ("gnn", lambda p: gnn_file(p, drop=("margin",))),
    ("gnn", lambda p: p.write_bytes(b"[1, 2]\n")),
    ("gnn", lambda p: gnn_file(p, hidden="8")),
    ("gnn", lambda p: gnn_file(p, hidden=True)),
    ("gnn", lambda p: gnn_file(p, rbf_low=10.0)),
    ("gnn", lambda p: gnn_file(p, layers=0)),
    ("gnn", lambda p: gnn_file(p, margin=10**400)),
    ("gnn", lambda p: gnn_file(p, rbf_high=10**400)),
    ("gnn", lambda p: gnn_file(p, rbf_low=-10**400)),
    ("gnn", lambda p: gnn_file(p, hidden=10**400)),
    ("gnn", lambda p: gnn_file(p, feature_bits=2**20, rbf_n=64)),
], ids=["value-net-no-w2", "value-net-no-bits", "value-net-w1-vs-bits",
        "gnn-no-margin", "header-is-a-list", "gnn-hidden-string", "gnn-hidden-bool",
        "gnn-empty-rbf-range", "gnn-zero-layers", "gnn-margin-beyond-float",
        "gnn-rbf-high-beyond-float", "gnn-rbf-low-beyond-float",
        "gnn-hidden-beyond-cap", "gnn-fingerprint-projection-beyond-cap"])
def test_malformed_checkpoint_is_config_error(ws, capsys, cost, make):
    ckpt = ws / "bad.bin"
    make(ckpt)
    rc = plan_small(ws, ["9"], "out", "--cost", cost, "--checkpoint", str(ckpt))
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (ws / "out").exists()


def one_node_record(**changes):
    g = SearchGraph()
    g.add_target("9", Inventory.integer_range(3))
    return dict(TrainingExample(g.snapshot(), {0: 1}).to_record(), **changes)


MOLECULE_WITHOUT_KEY = {k: v for k, v in one_node_record()["nodes"][0].items() if k != "key"}


@pytest.mark.parametrize("bad", [
    one_node_record(labels=None), [1, 2], one_node_record(nodes=[MOLECULE_WITHOUT_KEY]),
    one_node_record(edges=[[0, 7]]),
    one_node_record(nodes=[dict(one_node_record()["nodes"][0], hist_cost=10**400)]),
], ids=["labels-null", "record-is-a-list", "molecule-without-key", "edge-out-of-range",
        "cost-beyond-float"])
def test_malformed_dataset_record_is_config_error(ws, capsys, bad):
    # two good records, then the bad one on line 4
    data = ws / "data.jsonl"
    example = TrainingExample.from_record(one_node_record())
    save_dataset(data, [example, example])
    data.write_text(data.read_text() + json.dumps(bad) + "\n")
    rc = run("train", "--targets", str(data), "--seed", "0", "--out", str(ws / "model"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "data.jsonl:4:" in err
    assert not (ws / "model" / "gnn.bin").exists()


class TestConfigHandling:
    def test_config_file_supplies_values(self, ws):
        cfg = write(ws / "cfg.json", json.dumps(
            {"domain": "additive-split", "budget": 30, "k": 5, "seed": 0,
             "targets": targets_file(ws, ["9"]), "out": str(ws / "out")}))
        assert run("plan", "--config", cfg) == 0

    def test_flags_override_config(self, ws):
        # budget 1 in the config cannot solve 9; the flag rescues it
        cfg = write(ws / "cfg.json", json.dumps(
            {"domain": "additive-split", "budget": 1, "k": 5, "seed": 0,
             "targets": targets_file(ws, ["9"]), "out": str(ws / "out")}))
        assert run("plan", "--config", cfg) == 1
        assert run("plan", "--config", cfg, "--budget", "30",
                   "--out", str(ws / "out2")) == 0

    def test_env_seed_fallback(self, ws, monkeypatch):
        monkeypatch.setenv(cli.ENV_SEED, "7")
        rc = run("plan", "--domain", "additive-split",
                 "--targets", targets_file(ws, ["6"]),
                 "--budget", "30", "--k", "5", "--out", str(ws / "env"))
        assert rc == 0
        assert json.loads((ws / "env" / "result.json").read_text())["seed"] == 7

    def test_seed_flag_beats_env(self, ws, monkeypatch):
        monkeypatch.setenv(cli.ENV_SEED, "7")
        assert plan_small(ws, ["6"], "out") == 0
        assert json.loads((ws / "out" / "result.json").read_text())["seed"] == 0

    def test_bad_env_seed_is_config_error(self, ws, monkeypatch, capsys):
        monkeypatch.setenv(cli.ENV_SEED, "not-a-number")
        rc = run("plan", "--domain", "additive-split",
                 "--targets", targets_file(ws, ["6"]), "--out", str(ws / "o"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate", [
        {"budgett": 5},                     # unknown key
        {"budget": 0},                      # fails plan-config validation
        {"mode": "forest"},
    ])
    def test_bad_config_values(self, ws, mutate):
        base = {"domain": "additive-split", "seed": 0,
                "targets": targets_file(ws, ["6"]), "out": str(ws / "out")}
        cfg = write(ws / "cfg.json", json.dumps({**base, **mutate}))
        assert run("plan", "--config", cfg) == 2

    def test_unreadable_config_and_targets(self, ws):
        assert run("plan", "--config", str(ws / "missing.json")) == 2
        assert run("plan", "--config", write(ws / "list.json", '["budget"]')) == 2
        assert run("plan", "--domain", "additive-split", "--seed", "0",
                   "--targets", str(ws / "missing.txt"),
                   "--out", str(ws / "out")) == 2

    def test_missing_and_empty_targets(self, ws):
        empty = write(ws / "none.txt", "\n   \n")
        for command in ("plan", "batch-plan", "gen-data", "study-redundancy"):
            args = [command, "--domain", "additive-split", "--seed", "0",
                    "--out", str(ws / command)]
            assert run(*args) == 2, command
            assert run(*args, "--targets", empty) == 2, command

    @pytest.mark.parametrize("command",
                             ["plan", "batch-plan", "gen-data", "study-redundancy"])
    def test_malformed_target_line(self, ws, capsys, command):
        bad = write(ws / "bad.txt", "6\n\nabc\n7\n")
        rc = run(command, "--domain", "additive-split", "--targets", bad,
                 "--seed", "0", "--out", str(ws / "out"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "bad.txt line 3" in err and "'abc'" in err
        assert not (ws / "out").exists() or not any((ws / "out").iterdir())

    def test_gnn_without_checkpoint(self, ws):
        assert run("plan", "--domain", "additive-split", "--cost", "gnn",
                   "--targets", targets_file(ws, ["6"]), "--seed", "0",
                   "--out", str(ws / "out")) == 2

    def test_unknown_command_is_argparse_error(self):
        with pytest.raises(SystemExit):
            run("frobnicate")


class TestBatchPlan:
    def test_batched_run(self, ws):
        rc = run("batch-plan", "--domain", "additive-split",
                 "--targets", targets_file(ws, ["6", "7", "8", "9"]),
                 "--budget", "30", "--k", "5", "--batch-size", "2",
                 "--clusters", "2", "--seed", "0", "--out", str(ws / "out"))
        assert rc == 0
        payload = json.loads((ws / "out" / "result.json").read_text())
        assert payload["command"] == "batch-plan"
        assert payload["batch_size"] == 2
        solved = [t["molecule"]
                  for r in payload["results"] for t in r["targets"]]
        assert sorted(solved) == ["6", "7", "8", "9"]
        assert "batch0" in (ws / "out" / "trace.csv").read_text()


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    """Shared gen-data + train artifacts for the model-based tests."""
    root = tmp_path_factory.mktemp("workflow")
    targets = write(root / "targets.txt", "".join(f"{n}\n" for n in range(5, 13)))
    cfg = write(root / "train.json", json.dumps({
        "hidden": 8, "rbf_n": 4, "layers": 2, "bits": 64, "epochs": 2,
        "lr": 1e-3, "train_batch": 4, "val_n": 2, "drop_rate": 0.0,
        "full_k": True,
    }))
    rc = run("gen-data", "--config", cfg, "--domain", "additive-split",
             "--targets", targets, "--budget", "30", "--k", "5",
             "--seed", "0", "--out", str(root / "data"))
    assert rc == 0
    rc = run("train", "--config", cfg,
             "--targets", str(root / "data" / "dataset.jsonl"),
             "--seed", "0", "--out", str(root / "model"))
    assert rc == 0
    return root


class TestWorkflow:
    def test_dataset_file_shape(self, workflow):
        lines = (workflow / "data" / "dataset.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "header"
        assert len(lines) > 4
        record = json.loads(lines[1])
        assert set(record["labels"].values()) <= {0, 1}

    def test_train_artifacts(self, workflow):
        summary = json.loads((workflow / "model" / "train_summary.json").read_text())
        assert summary["command"] == "train"
        assert 1 <= summary["best_epoch"] <= 2
        log = (workflow / "model" / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,bce,rank,total,val_rank"
        assert len(log) == 3
        assert (workflow / "model" / "gnn.bin").stat().st_size > 0

    def test_train_is_deterministic(self, workflow):
        rc = run("train", "--config", str(workflow / "train.json"),
                 "--targets", str(workflow / "data" / "dataset.jsonl"),
                 "--seed", "0", "--out", str(workflow / "model2"))
        assert rc == 0
        assert ((workflow / "model" / "gnn.bin").read_bytes()
                == (workflow / "model2" / "gnn.bin").read_bytes())

    @pytest.mark.parametrize("bad", [
        {"drop_rate": 1.5}, {"drop_rate": -0.5}, {"drop_rate": 1.0},
        {"train_batch": 0}, {"epochs": 0}, {"lr": -1}, {"hidden": 0},
        {"lr": math.nan}, {"lr": math.inf}, {"margin": math.nan}, {"layers": 0},
        {"lr": 10**400}, {"margin": 10**400}, {"hidden": 10**400}, {"hidden": 10**9},
        {"rbf_n": 10**9}, {"bits": 10**9}, {"layers": 10**9},
        # these two diverge mid-training, which must not reach stderr as
        # numpy's overflow warning
        *(pytest.param(bad, marks=pytest.mark.filterwarnings("error::RuntimeWarning"))
          for bad in ({"lr": 1e308}, {"margin": 1e308})),
    ])
    def test_bad_training_values_are_config_errors(self, workflow, tmp_path, capsys,
                                                   bad):
        cfg = json.loads((workflow / "train.json").read_text())
        path = write(tmp_path / "bad.json", json.dumps({**cfg, **bad}))
        rc = run("train", "--config", path,
                 "--targets", str(workflow / "data" / "dataset.jsonl"),
                 "--seed", "0", "--out", str(tmp_path / "model"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "model" / "gnn.bin").exists()

    @pytest.mark.parametrize("command, bad", [
        ("plan", {"batch_size": "2"}), ("plan", {"clusters": None}),
        ("batch-plan", {"bits": "64"}), ("train", {"hidden": "16"}),
        ("train", {"epochs": "1"}), ("plan", {"cost": "gnn", "lam": "0.5"}),
        ("plan", {"inventory_max": 0}),
        ("plan", {"cost": "gnn", "lam": math.nan}), ("plan", {"cost": "gnn", "lam": math.inf}),
        ("plan", {"cost": "gnn", "lam": 10**400}), ("batch-plan", {"bits": 10**9}),
    ])
    def test_wrong_type_or_non_finite_config_values(self, workflow, tmp_path, capsys,
                                                     command, bad):
        if command == "train":
            base = json.loads((workflow / "train.json").read_text())
            targets = workflow / "data" / "dataset.jsonl"
        else:
            base = {"domain": "additive-split", "budget": 10, "k": 5,
                    "checkpoint": str(workflow / "model" / "gnn.bin")}
            targets = workflow / "targets.txt"
        path = write(tmp_path / "bad.json", json.dumps({**base, **bad}))
        rc = run(command, "--config", path, "--targets", str(targets),
                 "--seed", "0", "--out", str(tmp_path / "out"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_plan_with_trained_model(self, workflow, tmp_path):
        rc = run("plan", "--domain", "additive-split",
                 "--targets", str(workflow / "targets.txt"),
                 "--cost", "gnn",
                 "--checkpoint", str(workflow / "model" / "gnn.bin"),
                 "--budget", "30", "--k", "5", "--seed", "0",
                 "--out", str(tmp_path / "out"))
        assert rc == 0

    def test_plan_with_zero_value_net(self, ws):
        from retrograph.costmodel import ValueNetCost
        ckpt = ws / "vn.bin"
        ValueNetCost.zeros(bits=64, hidden=8).save(ckpt)
        assert plan_small(ws, ["9"], "vn", "--cost", "value_net",
                          "--checkpoint", str(ckpt)) == 0

    def test_value_net_requires_checkpoint(self, ws):
        assert plan_small(ws, ["9"], "vn", "--cost", "value_net") == 2

    def test_underflowing_gnn_scores_still_plan(self, ws):
        # logits far apart make some softmax scores exactly 0.0
        params = GnnParameters(
            GnnHyper(hidden=16, rbf_n=32, layers=2, feature_bits=256), seed=0)
        params.out_w.data *= 1e4
        ckpt = ws / "sharp.bin"
        params.save(ckpt)
        rc = run("plan", "--domain", "additive-split",
                 "--targets", targets_file(ws, ["97"]),
                 "--cost", "gnn", "--checkpoint", str(ckpt),
                 "--budget", "50", "--k", "6", "--seed", "0",
                 "--out", str(ws / "out"))
        assert rc in (0, 1)
        assert (ws / "out" / "result.json").exists()

    def test_nan_checkpoint_is_invariant_violation(self, ws, capsys):
        params = GnnParameters(
            GnnHyper(hidden=8, rbf_n=4, layers=2, feature_bits=64), seed=0)
        params.ffn_w.data[:] = np.nan
        bad = ws / "nan.bin"
        params.save(bad)
        rc = run("plan", "--domain", "additive-split",
                 "--targets", targets_file(ws, ["6"]),
                 "--cost", "gnn", "--checkpoint", str(bad),
                 "--budget", "10", "--k", "5", "--seed", "0",
                 "--out", str(ws / "out"))
        assert rc == 3
        assert "invariant violation" in capsys.readouterr().err


class TestEval:
    def test_curve_and_reuse_outputs(self, ws):
        assert plan_small(ws, ["6", "7", "8", "9"], "runs") == 0
        cfg = write(ws / "cfg.json", json.dumps({"limits": [1, 2, 50]}))
        rc = run("eval", "--config", cfg, "--seed", "0",
                 "--out", str(ws / "eval"), str(ws / "runs" / "result.json"))
        assert rc == 0
        summary = json.loads((ws / "eval" / "summary.json").read_text())
        assert list(summary["curve"]["limits"]) == ["1", "2", "50"]
        assert summary["curve"]["limits"]["50"] == 1.0
        assert summary["curve"]["n_targets"] == 4
        assert summary["reuse"]["mean"] >= 1.0
        assert (ws / "eval" / "curve.csv").exists()
        assert (ws / "eval" / "reuse.csv").exists()

    def test_bad_results_file(self, ws):
        bad = write(ws / "bad.json", "{not json")
        assert run("eval", "--seed", "0", "--out", str(ws / "e"), bad) == 2


class TestStudyRedundancy:
    # diamond: T1 needs A and B, both made from the shared intermediate C.
    # the tree run must expand C once per parent (T1: 5 expansions over 4
    # molecules), the dedup run never repeats (4 over 4); the chain target
    # T2 -> A -> C adds the variation the fit needs.
    TABLE = [
        {"product": "T1", "reactants": ["A", "B"], "cost": 1.0},
        {"product": "A", "reactants": ["C"], "cost": 1.0},
        {"product": "B", "reactants": ["C"], "cost": 1.0},
        {"product": "T2", "reactants": ["A"], "cost": 1.0},
        {"product": "C", "reactants": ["I"], "cost": 1.0},
    ]

    def study_args(self, ws, targets):
        table = write(ws / "rxn.jsonl",
                      "".join(json.dumps(r) + "\n" for r in self.TABLE))
        inv = write(ws / "inv.txt", "I\n")
        return ["study-redundancy", "--domain", table, "--inventory", inv,
                "--targets", targets_file(ws, targets),
                "--budget", "20", "--k", "5", "--seed", "0",
                "--out", str(ws / "study")]

    def test_two_mode_study(self, ws):
        assert run(*self.study_args(ws, ["T1", "T2"])) == 0
        summary = json.loads((ws / "study" / "summary.json").read_text())
        assert summary["graph"] == {
            "slope": 1.0, "intercept": 0.0, "r_squared": 1.0,
            "mean_ratio": 1.0, "runs": 2,
        }
        tree = summary["tree"]
        assert tree["runs"] == 2
        assert tree["mean_ratio"] == pytest.approx(0.9)   # (4/5 + 3/3) / 2
        assert tree["slope"] == pytest.approx(0.5)
        assert tree["intercept"] == pytest.approx(1.5)
        rows = (ws / "study" / "redundancy.csv").read_text().splitlines()
        assert rows[0] == "target,mode,expanded,unique"
        assert "T1,tree,5,4" in rows
        assert "T1,graph,4,4" in rows
        assert len(rows) == 5

    def test_equal_expanded_counts_give_null_fit(self, ws):
        # both targets spend the whole budget in both modes: no line to fit
        assert run("study-redundancy", "--domain", "additive-split",
                   "--targets", targets_file(ws, ["101", "103"]),
                   "--budget", "30", "--k", "6", "--seed", "0",
                   "--out", str(ws / "study")) == 0
        summary = json.loads((ws / "study" / "summary.json").read_text())
        for mode, mean_ratio in (("graph", 1.0), ("tree", (24 / 30 + 26 / 30) / 2)):
            assert summary[mode] == {
                "slope": None, "intercept": None, "r_squared": None,
                "mean_ratio": pytest.approx(mean_ratio), "runs": 2,
            }

    def test_inventory_target_leaves_one_run(self, ws):
        # target 2 is in the inventory: it plans no iteration and adds no run
        assert run("study-redundancy", "--domain", "additive-split",
                   "--targets", targets_file(ws, ["2", "101"]),
                   "--budget", "30", "--k", "6", "--seed", "0",
                   "--out", str(ws / "study")) == 0
        summary = json.loads((ws / "study" / "summary.json").read_text())
        for mode in ("graph", "tree"):
            assert summary[mode]["runs"] == 1
            assert summary[mode]["slope"] is None
        rows = (ws / "study" / "redundancy.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["101", "101"]

    def test_single_target_rejected(self, ws):
        args = self.study_args(ws, ["T1"])
        assert run(*args) == 2
