"""Byte-identity guard: pinned sha256 digests of CLI outputs.

Three small zero-cost runs (a graph-mode plan, a batch-plan and a
factor-split tree-mode plan) and one plan guided by a seeded, untrained
policy network write ``result.json`` and ``trace.csv``, and a full-k
``gen-data`` run writes ``dataset.jsonl``, whose replay labels come from
the graph's open-node set; their digests must match the values below. A
refactor that is meant to keep every output unchanged is held to that by
this file. A change that alters the outputs on purpose must update the
digests and say why.
"""

import hashlib
import json

import pytest

from retrograph import cli
from retrograph.policygnn import GnnHyper, GnnParameters

RUNS = {
    "plan-additive": (
        ["plan", "--domain", "additive-split", "--budget", "30", "--k", "6"],
        ["9", "7", "97", "101", "103", "64", "3"],
    ),
    "batch-plan": (
        ["batch-plan", "--domain", "additive-split", "--budget", "20", "--k", "6",
         "--batch-size", "3", "--clusters", "2"],
        ["21", "35", "49", "63", "77", "91", "105", "119"],
    ),
    "plan-tree": (
        ["plan", "--domain", "factor-split", "--mode", "tree", "--budget", "60",
         "--k", "6"],
        ["12", "18", "24", "30", "36", "48", "97"],
    ),
    "plan-gnn": (
        ["plan", "--domain", "additive-split", "--budget", "20", "--k", "6"],
        ["97", "101", "64", "33", "150"],
    ),
    "gen-data": (
        ["gen-data", "--domain", "additive-split", "--budget", "30", "--k", "6"],
        ["21", "35", "12", "40", "97"],
    ),
}

CONFIGS = {"gen-data": {"full_k": True},
           "plan-gnn": {"cost": "gnn", "lam": 0.5}}

# the network behind "plan-gnn": saved under tmp_path as CONFIGS' checkpoint
GNN_HYPER = GnnHyper(hidden=32, rbf_n=8, layers=2, feature_bits=64, drop_rate=0.0)

GOLDEN = {
    "plan-additive": {
        "result.json": "89da5df0a3ba3a775aef3d3bac11f08fcd48dd1cc5da9a14afafafb751011efa",
        "trace.csv": "60fe55e65f4e2b28602607862270a5963f5afa427dd0db11e7fc187c20420448",
    },
    "batch-plan": {
        "result.json": "971fb7b3c810bc181c275c2f24ce88b7b43bbef645e8f9639b9e407b041c35fd",
        "trace.csv": "d20b683218f7f35c34f4f6eb3c02456df09f6e3f39479ab1a4603b9bed2cc8e5",
    },
    "plan-tree": {
        "result.json": "0cdc6717421021214e190b5e1eb021971a0832437e77b50514801167252dfeac",
        "trace.csv": "ed52850a29cad4f2fc69e8bb907404772db561a7674837f30865ae0bfe9e0043",
    },
    "plan-gnn": {
        "result.json": "7ffab60af79ddb6c19f8b0167f343cb16d11be73564f723ec619bca59958dd38",
        "trace.csv": "f55d221931783cbd641e3f71c428157ec008bac2ffc33646205eb5fc2bf479fe",
    },
    "gen-data": {
        "dataset.jsonl": "6870fcc9fc20e03a72c55dd95f9201c35eb18f237ae5e58b6ba38cc8ab7c6142",
    },
}


def run_digests(tmp_path, name):
    argv, targets = RUNS[name]
    tfile = tmp_path / "targets.txt"
    tfile.write_text("".join(f"{t}\n" for t in targets), encoding="utf-8")
    if name in CONFIGS:
        config = dict(CONFIGS[name])
        if config.get("cost") == "gnn":
            config["checkpoint"] = str(tmp_path / "gnn.bin")
            GnnParameters(GNN_HYPER, seed=0).save(config["checkpoint"])
        cfile = tmp_path / "config.json"
        cfile.write_text(json.dumps(config), encoding="utf-8")
        argv = [*argv, "--config", str(cfile)]
    out = tmp_path / "out"
    rc = cli.main([*argv, "--targets", str(tfile), "--seed", "0", "--out", str(out)])
    assert rc in (0, 1)
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in GOLDEN[name]}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_pinned_digests(tmp_path, name):
    assert run_digests(tmp_path, name) == GOLDEN[name]
