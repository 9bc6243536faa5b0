"""Route-replay training data tests.

Replay fixtures are small tables whose BFS expansion order and label sets
were worked out by hand: route molecules get positive labels while they are
open, everything else negative, and negatives only exist under full-K
replay.
"""

import json

import numpy as np
import pytest

from retrograph.molspace import (
    AdditiveSplitDomain,
    ExpansionOracle,
    Inventory,
    Reaction,
    TableDomain,
)
from retrograph.planner import PlanConfig, PlanningError, plan
from retrograph.traindata import (
    DATASET_SCHEMA_VERSION,
    TrainingExample,
    _route_order,
    generate,
    load_dataset,
    replay_route,
    save_dataset,
    split,
)


def table(*rows):
    return TableDomain([Reaction(p, frozenset(rs), c) for p, rs, c in rows])


CHAIN = table(
    ("T", {"A"}, 1.0),
    ("A", {"B"}, 1.0),
    ("B", {"I"}, 1.0),
)

BRANCHING = table(
    ("T", {"A", "B"}, 1.0),
    ("T", {"D"}, 2.0),
    ("A", {"I"}, 0.1),
    ("B", {"I"}, 0.1),
    ("D", {"I"}, 0.1),
)

INV = Inventory(["I"])
CFG = PlanConfig(budget=20, k=10)


def solved_route(dom, target="T", cfg=CFG):
    res = plan([target], dom, INV, cfg)
    assert res.all_success
    return res.targets[0].route


class TestTrainingExample:
    def example_parts(self):
        route = solved_route(CHAIN)
        return replay_route(route, CHAIN, INV, k=10)[0]

    def test_labels_must_cover_open_nodes(self):
        ex = self.example_parts()
        with pytest.raises(ValueError, match="labels cover"):
            TrainingExample(ex.snapshot, {})
        with pytest.raises(ValueError, match="labels cover"):
            TrainingExample(ex.snapshot, {**ex.labels, 99: 0})

    def test_needs_a_positive(self):
        ex = self.example_parts()
        allzero = {k: 0 for k in ex.labels}
        with pytest.raises(ValueError, match="positive"):
            TrainingExample(ex.snapshot, allzero)

    def test_record_round_trip(self):
        ex = self.example_parts()
        rec = ex.to_record()
        assert rec["labels"] == {str(k): v for k, v in ex.labels.items()}
        back = TrainingExample.from_record(rec)
        assert back.labels == ex.labels
        assert back.snapshot["nodes"] == ex.snapshot["nodes"]


class TestRouteOrder:
    def test_chain_order(self):
        route = solved_route(CHAIN)
        order, reactions = _route_order(route)
        assert order == ["T", "A", "B"]
        assert reactions["T"].reactants == ("A",)
        assert reactions["B"].reactants == ("I",)

    def test_branch_repeat_expands_once(self):
        shared = table(
            ("T", {"A", "B"}, 1.0),
            ("A", {"C"}, 1.0),
            ("B", {"C"}, 1.0),
            ("C", {"I"}, 1.0),
        )
        route = solved_route(shared)
        order, _ = _route_order(route)
        assert order == ["T", "A", "B", "C"]   # C listed once despite two parents


class TestReplayRoute:
    def test_chain_gives_one_example_per_step(self):
        route = solved_route(CHAIN)
        examples = replay_route(route, CHAIN, INV, k=10)
        assert len(examples) == 3
        # route-only replay: every open node lies on the route
        for ex in examples:
            assert set(ex.labels.values()) == {1}
        # the first snapshot is the bare target
        assert len(examples[0].snapshot["nodes"]) == 1

    def test_full_k_creates_negatives(self):
        route = solved_route(BRANCHING)
        examples = replay_route(route, BRANCHING, INV, k=10, full_k=True)
        assert len(examples) == 3              # T, A, B
        second = examples[1]
        by_key = {
            second.snapshot["nodes"][i]["key"]: lbl
            for i, lbl in second.labels.items()
        }
        assert by_key == {"A": 1, "B": 1, "D": 0}

    def test_route_only_has_no_negatives(self):
        route = solved_route(BRANCHING)
        for ex in replay_route(route, BRANCHING, INV, k=10, full_k=False):
            assert 0 not in ex.labels.values()

    def test_replay_must_prove_target(self):
        # a route whose reactions the oracle no longer proposes still replays
        # (reactions come from the route), but a leaf missing from the
        # inventory breaks the success invariant
        route = solved_route(CHAIN)
        poor = Inventory(["Z"])
        with pytest.raises(PlanningError, match="did not prove"):
            replay_route(route, CHAIN, poor, k=10)

    def test_additive_domain_round_trip(self):
        dom = AdditiveSplitDomain(seed=0)
        inv = Inventory.integer_range(3)
        res = plan(["9"], dom, inv, PlanConfig(budget=30, k=5))
        route = res.targets[0].route
        examples = replay_route(route, dom, inv, k=5, full_k=True)
        order, _ = _route_order(route)
        assert len(examples) == len(order)
        assert any(0 in ex.labels.values() for ex in examples)


class TestGenerate:
    def test_output_independent_of_target_order(self):
        dom = AdditiveSplitDomain(seed=0)
        inv = Inventory.integer_range(3)
        cfg = PlanConfig(budget=30, k=5)
        a = generate(["9", "7"], dom, inv, cfg, full_k=True)
        b = generate(["7", "9", "07"], dom, inv, cfg, full_k=True)
        assert [ex.to_record() for ex in a] == [ex.to_record() for ex in b]

    def test_unsolved_targets_contribute_nothing(self):
        dom = table(("T", {"A"}, 1.0), ("A", {"I"}, 1.0))
        examples = generate(["T", "Q"], dom, INV, PlanConfig(budget=10, k=5))
        mols = {ex.snapshot["nodes"][0]["key"] for ex in examples}
        assert mols == {"T"}                   # Q is a dead end, silently skipped

    def test_oracle_failure_warns_and_skips(self, caplog):
        class Flaky(ExpansionOracle):
            def canonical(self, raw):
                return raw.strip()

            def candidates(self, product):
                if product == "BAD":
                    raise RuntimeError("boom")
                return [(1.0, ("I",))] if product == "T" else []

        with caplog.at_level("WARNING", logger="retrograph.traindata"):
            examples = generate(["T", "BAD"], Flaky(), INV,
                                PlanConfig(budget=10, k=5))
        assert len(examples) == 1
        assert any("BAD" in rec.message for rec in caplog.records)

    def test_inventory_targets_yield_no_examples(self):
        dom = AdditiveSplitDomain(seed=0)
        inv = Inventory.integer_range(3)
        assert generate(["2"], dom, inv, PlanConfig(budget=10, k=5)) == []


class TestSplit:
    def dataset(self, n=10):
        route = solved_route(CHAIN)
        base = replay_route(route, CHAIN, INV, k=10)
        out = []
        while len(out) < n:
            out.extend(base)
        return out[:n]

    def test_sizes_and_disjointness(self):
        data = self.dataset(10)
        train, val = split(data, 3, seed=0)
        assert (len(train), len(val)) == (7, 3)
        ids = [id(ex) for part in (train, val) for ex in part]
        assert sorted(ids) == sorted(id(ex) for ex in data)

    def test_deterministic(self):
        data = self.dataset(8)
        a = split(data, 2, seed=4)
        b = split(data, 2, seed=4)
        assert all([id(x) for x in pa] == [id(y) for y in pb]
                   for pa, pb in zip(a, b))

    def test_validation(self):
        data = self.dataset(4)
        with pytest.raises(ValueError):
            split(data, 5, seed=0)
        with pytest.raises(ValueError):
            split(data, -1, seed=0)


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        route = solved_route(BRANCHING)
        examples = replay_route(route, BRANCHING, INV, k=10, full_k=True)
        path = tmp_path / "data.jsonl"
        save_dataset(path, examples)
        back = load_dataset(path)
        assert [ex.to_record() for ex in back] == [ex.to_record() for ex in examples]

    def test_header_first_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(path, [])
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"kind": "header",
                                        "schema_version": DATASET_SCHEMA_VERSION}
        assert load_dataset(path) == []

    def test_missing_or_bad_header_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty dataset"):
            load_dataset(empty)
        bad = tmp_path / "bad.jsonl"
        for header in ('{"kind": "header", "schema_version": 999}', '["header", 1]'):
            bad.write_text(header + "\n")
            with pytest.raises(ValueError, match="bad dataset header"):
                load_dataset(bad)
