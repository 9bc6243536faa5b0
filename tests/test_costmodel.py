"""Cost-model tests.

Cost models supply only the heuristic h; the planner adds hist_cost. The
zero-weight policy network gives a closed-form check: all-equal logits make
the normalized scores uniform, so every open node gets h = lambda*ln(n) and
is priced at hist + lambda*ln(n). Value-net expectations were computed by
hand from the fixture routes.
"""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from retrograph import policygnn
from retrograph.costmodel import (
    GnnCost,
    ValueNetCost,
    ZeroCost,
    make_cost_model,
    remaining_cost_pairs,
    train_value_net,
)
from retrograph.molspace import AdditiveSplitDomain, Inventory, Reaction, features
from retrograph.planner import PlanConfig, RouteReaction, RouteTree, plan, select_next
from retrograph.searchgraph import SearchGraph

SMALL_HYPER = policygnn.GnnHyper(hidden=12, rbf_n=6, layers=2,
                                 feature_bits=64, drop_rate=0.0)


def two_open_graph():
    """T expanded into {A, B}; A and B open at hist 1.0 and 2.0."""
    inv = Inventory(["I"])
    g = SearchGraph()
    t = g.add_target("T", inv)
    g.merge_expand(t, [
        Reaction("T", frozenset({"A"}), 1.0),
        Reaction("T", frozenset({"B"}), 2.0),
    ], inv)
    return g


def additive_graph(expansions=6):
    """Target 40 of the additive domain after a few cheapest-first steps."""
    dom, inv = AdditiveSplitDomain(seed=0), Inventory.integer_range(3)
    g = SearchGraph()
    g.add_target("40", inv)
    for _ in range(expansions):
        v = min(g.open_nodes(), key=lambda n: (g.nodes[n].hist_cost, n))
        g.merge_expand(v, dom.expand(g.nodes[v].molecule, 4), inv)
    return g


def zero_head_params():
    params = policygnn.GnnParameters(SMALL_HYPER, seed=0)
    params.out_w.data = np.zeros_like(params.out_w.data)
    params.out_b.data = np.zeros_like(params.out_b.data)
    return params


class TestZeroCost:
    def test_costs_are_hist(self):
        # h is 0.0 everywhere, so the planner's price is hist_cost alone
        g = two_open_graph()
        h = ZeroCost().open_costs(g)
        assert h == dict.fromkeys(g.open_nodes(), 0.0)
        assert select_next(g, ZeroCost()) == min(
            g.open_nodes(), key=lambda v: (g.nodes[v].hist_cost, v))


class TestValueNet:
    def test_zero_weights_match_zero_cost(self):
        g = two_open_graph()
        vn = ValueNetCost.zeros(bits=64, hidden=8)
        assert vn.open_costs(g) == ZeroCost().open_costs(g)

    def test_features_once_per_molecule(self, monkeypatch):
        from retrograph import costmodel
        calls = Counter()

        def counting(molecule, bits=2048):
            calls[molecule] += 1
            return features(molecule, bits)

        monkeypatch.setattr(costmodel, "features", counting)
        vn = ValueNetCost(np.zeros((64, 2)), np.array([2.0, -1.0]),
                          np.ones((2, 1)), np.array([0.5]), bits=64)
        res = plan(["97"], AdditiveSplitDomain(seed=0), Inventory.integer_range(3),
                   PlanConfig(budget=20, k=6), vn)
        assert res.iterations > 1
        assert calls and set(calls.values()) == {1}

    def test_hand_set_weights(self):
        # zero w1 makes the hidden layer the bias alone: relu([2,-1]) = [2,0],
        # then [2,0]@[1,1]+0.5 = 2.5 for every molecule
        vn = ValueNetCost(np.zeros((64, 2)), np.array([2.0, -1.0]),
                          np.ones((2, 1)), np.array([0.5]), bits=64)
        assert vn.heuristic("T") == pytest.approx(2.5)
        assert vn.heuristic("12345") == pytest.approx(2.5)
        g = two_open_graph()
        assert vn.open_costs(g) == dict.fromkeys(g.open_nodes(), vn.heuristic("T"))

    def test_save_load_round_trip(self, tmp_path):
        vn = train_value_net(self.fixture_routes(), bits=64, hidden=8,
                             epochs=30, seed=1)
        path = tmp_path / "vn.bin"
        vn.save(path)
        back = ValueNetCost.load(path)
        assert back.bits == vn.bits
        for m in ("T", "A", "B", "I"):
            assert back.heuristic(m) == pytest.approx(vn.heuristic(m))

    def test_load_rejects_wrong_variant(self, tmp_path):
        path = tmp_path / "gnn.bin"
        zero_head_params().save(path)
        with pytest.raises(ValueError, match="value-net"):
            ValueNetCost.load(path)

    @staticmethod
    def fixture_routes():
        leaf = lambda: RouteTree("I")
        rt = RouteTree("T", RouteReaction(1.0, [
            RouteTree("A", RouteReaction(0.5, [leaf()])), leaf()]))
        rb = RouteTree("B", RouteReaction(4.0, [leaf(), leaf()]))
        return [rt, rb]

    def test_remaining_cost_pairs(self):
        pairs = remaining_cost_pairs(self.fixture_routes())
        by_key = {}
        for m, c in pairs:
            by_key.setdefault(m, []).append(c)
        assert by_key["T"] == [pytest.approx(1.5)]
        assert by_key["A"] == [pytest.approx(0.5)]
        assert by_key["B"] == [pytest.approx(4.0)]
        assert all(c == 0.0 for c in by_key["I"]) and len(by_key["I"]) == 4

    def test_training_overfits_fixture(self):
        vn = train_value_net(self.fixture_routes(), bits=64, hidden=16,
                             epochs=400, lr=1e-2, seed=0)
        for molecule, want in [("T", 1.5), ("A", 0.5), ("B", 4.0), ("I", 0.0)]:
            assert vn.heuristic(molecule) == pytest.approx(want, abs=0.1)

    def test_fit_bytes_are_pinned(self):
        # the sha256 of one small fit's weights, frozen from the reverse-mode
        # tape that the hand-derived step replaced; the step keeps its
        # operation order, so the bits must not move
        vn = train_value_net(self.fixture_routes(), bits=64, hidden=8,
                             epochs=50, seed=3)
        blob = b"".join(a.tobytes() for a in (vn.w1, vn.b1, vn.w2, vn.b2))
        assert hashlib.sha256(blob).hexdigest() == (
            "160cf26601a73ad8ada8237d29f2e53f302604e6eeb4386339d265314a6f0b46")

    def test_non_finite_fit_raises(self):
        # a remaining cost too large to square overflows the loss
        route = RouteTree("T", RouteReaction(1e200, [RouteTree("I")]))
        with pytest.raises(FloatingPointError), np.errstate(over="ignore"):
            train_value_net([route], bits=64, hidden=4, epochs=3)

    def test_training_needs_routes(self):
        with pytest.raises(ValueError):
            train_value_net([])

    def test_training_is_deterministic(self):
        a = train_value_net(self.fixture_routes(), bits=64, hidden=8,
                            epochs=20, seed=5)
        b = train_value_net(self.fixture_routes(), bits=64, hidden=8,
                            epochs=20, seed=5)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)


class TestGnnCost:
    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            GnnCost(zero_head_params(), lam=0.0)

    def test_zero_head_prices_hist_plus_log_n(self):
        g = two_open_graph()
        n = len(g.open_nodes())
        for lam in (1.0, 2.0):
            model = GnnCost(zero_head_params(), lam=lam)
            h = model.open_costs(g)
            assert set(h) == g.open_nodes()
            for v, c in h.items():
                assert c == pytest.approx(lam * math.log(n)), f"lam={lam} node={v}"

    def test_scores_sum_to_one(self):
        g = two_open_graph()
        model = GnnCost(policygnn.GnnParameters(SMALL_HYPER, seed=3))
        scores = policygnn.score(g.snapshot(), model.params).normalized
        assert set(scores) == g.open_nodes()
        assert sum(scores.values()) == pytest.approx(1.0)
        assert all(s > 0.0 for s in scores.values())

    def test_price_is_hist_minus_lam_log_score(self):
        for g in (two_open_graph(), additive_graph()):
            for seed, lam in ((3, 1.0), (8, 0.5), (9, 2.5)):
                params = policygnn.GnnParameters(SMALL_HYPER, seed=seed)
                costs = GnnCost(params, lam=lam).open_costs(g)
                scores = policygnn.score(g.snapshot(), params).normalized
                assert set(costs) == set(scores) == g.open_nodes()
                for v, s in scores.items():
                    assert s > 0.0
                    assert costs[v] == pytest.approx(-lam * math.log(s), rel=1e-12, abs=0.0)

    def test_underflowing_scores_keep_costs_finite(self):
        # logits far apart make some softmax scores exactly 0.0
        params = policygnn.GnnParameters(policygnn.GnnHyper(
            hidden=16, rbf_n=32, layers=2, feature_bits=256), seed=0)
        params.out_w.data *= 1e4
        seen = []

        class Recording(GnnCost):
            def open_costs(self, graph):
                costs = super().open_costs(graph)
                scores = policygnn.score(graph.snapshot(), self.params).normalized
                seen.append((scores, costs))
                return costs

        plan(["97"], AdditiveSplitDomain(seed=0), Inventory.integer_range(3),
             PlanConfig(budget=50, k=6), Recording(params))
        assert any(0.0 in scores.values() for scores, _ in seen)
        assert all(math.isfinite(c) for _, costs in seen for c in costs.values())

    def test_features_once_per_molecule(self, monkeypatch):
        calls = Counter()

        def counting(molecule, bits=2048):
            calls[molecule] += 1
            return features(molecule, bits)

        monkeypatch.setattr(policygnn, "features", counting)
        model = GnnCost(policygnn.GnnParameters(SMALL_HYPER, seed=3), lam=0.5)
        res = plan(["97"], AdditiveSplitDomain(seed=0), Inventory.integer_range(3),
                   PlanConfig(budget=20, k=6), model)
        assert res.iterations == 20
        assert calls and set(calls.values()) == {1}

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["graph", "tree"])
    def test_priced_logits_match_cold_score(self, monkeypatch, layers, mode):
        # one model plans two targets, so its memo also sees a graph switch
        cold_score = policygnn.score
        priced = []

        def recording(snap, params, memo=None):
            result = cold_score(snap, params, memo)
            priced.append((snap, result.logit, memo))
            return result

        monkeypatch.setattr(policygnn, "score", recording)
        params = policygnn.GnnParameters(policygnn.GnnHyper(
            hidden=16, rbf_n=8, layers=layers, feature_bits=64, drop_rate=0.0),
            seed=layers)
        model = GnnCost(params, lam=0.5)
        iterations = sum(
            plan([t], AdditiveSplitDomain(seed=0), Inventory.integer_range(3),
                 PlanConfig(budget=15, k=6, mode=mode), model).iterations
            for t in ("97", "64"))
        assert len(priced) == iterations
        for snap, logits, memo in priced:
            assert memo is model._memo
            out = policygnn.forward(snap, params)
            want = out.logits
            cold = cold_score(snap, params).logit
            assert list(logits) == list(cold) == out.open_ids
            for got in (logits, cold):
                gap = np.abs(np.array(list(got.values())) - want).max()
                assert gap <= 1e-12 * np.abs(want).max()

    def test_warm_memo_skips_unchanged_edge_rows(self, monkeypatch):
        params = policygnn.GnnParameters(SMALL_HYPER, seed=3)
        block = params.layer_blocks[0].edge
        after_first, sent, edges = block.after_first, [], []

        def counting(h1, *args):
            sent.append(len(h1))
            return after_first(h1, *args)

        monkeypatch.setattr(block, "after_first", counting)

        class Recording(GnnCost):
            def open_costs(self, graph):
                edges.append(len(graph.snapshot()["edges"]))
                return super().open_costs(graph)

        plan(["97"], AdditiveSplitDomain(seed=0), Inventory.integer_range(3),
             PlanConfig(budget=20, k=6), Recording(params))
        assert len(sent) == len(edges) == 20
        # the first two snapshots share no edge; from then on the edges of
        # earlier iterations are reused
        assert sent[:2] == edges[:2]
        assert all(s < e for s, e in zip(sent[2:], edges[2:]))
        assert sum(sent) < sum(edges) / 2

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_bad_parameter_raises(self, bad):
        params = policygnn.GnnParameters(SMALL_HYPER, seed=3)
        params.layer_blocks[0].node.w1.data[0, 0] = bad
        with pytest.raises(FloatingPointError):
            GnnCost(params).open_costs(additive_graph())

    def test_save_load_round_trip(self, tmp_path):
        g = two_open_graph()
        model = GnnCost(policygnn.GnnParameters(SMALL_HYPER, seed=4), lam=1.5)
        path = tmp_path / "g.bin"
        model.params.save(path)
        back = GnnCost.load(path, lam=1.5)
        a, b = model.open_costs(g), back.open_costs(g)
        assert set(a) == set(b)
        for v in a:
            assert a[v] == pytest.approx(b[v], abs=1e-12)


class TestMakeCostModel:
    def test_zero(self):
        assert isinstance(make_cost_model("zero"), ZeroCost)

    def test_checkpoint_required(self):
        for variant in ("value_net", "gnn"):
            with pytest.raises(ValueError, match="checkpoint"):
                make_cost_model(variant)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown"):
            make_cost_model("oracle")

    def test_loads_both_checkpoint_kinds(self, tmp_path):
        vn_path = tmp_path / "vn.bin"
        ValueNetCost.zeros(bits=64, hidden=4).save(vn_path)
        assert isinstance(make_cost_model("value_net", vn_path), ValueNetCost)
        gnn_path = tmp_path / "g.bin"
        zero_head_params().save(gnn_path)
        model = make_cost_model("gnn", gnn_path, lam=2.0)
        assert isinstance(model, GnnCost) and model.lam == 2.0
