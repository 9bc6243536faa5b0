"""Policy-network tests.

The vectorized forward pass is verified against a from-scratch reference
that walks nodes and edges one at a time with plain numpy; the
hand-written gradients are verified against central finite differences.
Closed-form loss values (ln 2 cross-entropy at zero logits, margin-sized
rank loss at zero gap) were computed by hand.
"""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from retrograph import policygnn
from retrograph.molspace import AdditiveSplitDomain, Inventory, Reaction, features
from retrograph.numerics import AdamState, zero_grads
from retrograph.policygnn import (
    GnnHyper,
    GnnParameters,
    evaluate,
    example_loss,
    forward,
    loss_terms,
    pairwise_accuracy,
    score,
    train,
)
from retrograph.searchgraph import SearchGraph

HYPER = GnnHyper(hidden=8, rbf_n=4, layers=2, feature_bits=32, drop_rate=0.0)


@dataclass
class Example:
    snapshot: dict
    labels: dict


def fixture_graph():
    """T expanded into {A,B} and {C}; A, B, C open; D closed dead end."""
    inv = Inventory(["I"])
    g = SearchGraph()
    t = g.add_target("T", inv)
    g.merge_expand(t, [
        Reaction("T", frozenset({"A", "B"}), 1.0),
        Reaction("T", frozenset({"C"}), 2.0),
        Reaction("T", frozenset({"D", "I"}), 0.5),
    ], inv)
    (d,) = [n.id for n in g.nodes if n.kind == "molecule" and n.molecule == "D"]
    g.merge_expand(d, [], inv)
    return g


def single_node_graph():
    g = SearchGraph()
    g.add_target("T", Inventory(["I"]))
    return g


# -- reference implementation -------------------------------------------------

def ref_rbf(x, hy):
    centers = hy.rbf_low + np.arange(hy.rbf_n) * (hy.rbf_high - hy.rbf_low) / hy.rbf_n
    clipped = min(max(x, hy.rbf_low), hy.rbf_high)
    return np.exp(-((clipped - centers) ** 2) / hy.rbf_tau)


def ref_block(block, row):
    w1, b1, w2, b2, w3, b3 = [p.data for p in block.parameters()]
    h1 = row @ w1 + b1
    h2 = np.maximum(h1, 0.0) @ w2 + b2
    h3 = np.maximum(h2, 0.0) @ w3 + b3
    return h1 + h3


def ref_forward(snap, params):
    """Per-node/per-edge loop version of the forward pass."""
    hy = params.hyper
    nodes = snap["nodes"]
    state = {}
    for i, nd in enumerate(nodes):
        if nd["kind"] == "molecule":
            proj = (features(nd["key"], hy.feature_bits) @ params.ffn_w.data
                    + params.ffn_b.data)
            state[i] = np.concatenate([ref_rbf(nd["hist_cost"], hy), proj])
        else:
            state[i] = np.concatenate([ref_rbf(nd["hist_cost"], hy),
                                       ref_rbf(nd["cost"], hy)])
    edges = snap["edges"]
    estate = {
        j: params.edge_emb.data[0 if nodes[s]["kind"] == "molecule" else 1].copy()
        for j, (s, _) in enumerate(edges)
    }
    u = np.zeros(hy.hidden)
    for blocks in params.layer_blocks:
        new_e = {}
        for j, (s, d) in enumerate(edges):
            new_e[j] = ref_block(
                blocks.edge, np.concatenate([estate[j], state[s], state[d], u]))
        incoming = {i: [] for i in range(len(nodes))}
        for j, (s, d) in enumerate(edges):
            incoming[d].append(
                ref_block(blocks.msg, np.concatenate([state[s], new_e[j]])))
        new_v = {}
        for i in range(len(nodes)):
            msg = (np.mean(incoming[i], axis=0) if incoming[i]
                   else np.zeros(hy.hidden))
            new_v[i] = ref_block(
                blocks.node, np.concatenate([state[i], msg, u]))
        v_bar = np.mean([new_v[i] for i in range(len(nodes))], axis=0)
        u = ref_block(blocks.glob, np.concatenate([u, v_bar]))
        state, estate = new_v, new_e
    return {
        i: (state[i] @ params.out_w.data + params.out_b.data).item()
        for i in range(len(nodes))
    }


def random_snapshot(seed):
    rng = np.random.default_rng(seed)
    keys = [f"m{i}" for i in range(6)]
    rxns = []
    for key in keys:
        for _ in range(int(rng.integers(0, 3))):
            size = int(rng.integers(1, 3))
            picks = rng.choice(keys, size=size, replace=False)
            rxns.append(Reaction(key, frozenset(str(p) for p in picks),
                                 float(rng.uniform(0.2, 3.0))))
    from retrograph.molspace import TableDomain
    dom = TableDomain(rxns)
    inv = Inventory(rng.choice(keys, size=2, replace=False).tolist())
    g = SearchGraph()
    g.add_target("m0", inv)
    steps = int(rng.integers(1, 5))
    for _ in range(steps):
        opens = sorted(g.open_nodes())
        if not opens:
            break
        v = opens[int(rng.integers(len(opens)))]
        g.merge_expand(v, dom.expand(g.nodes[v].molecule, 4), inv)
    return g.snapshot()


class TestForwardAgainstReference:
    def test_fixture_graph(self):
        params = GnnParameters(HYPER, seed=1)
        snap = fixture_graph().snapshot()
        out = forward(snap, params)
        ref = ref_forward(snap, params)
        assert len(out.logits) == len(out.open_ids) == 3
        for got, i in zip(out.logits, out.open_ids):
            assert got == pytest.approx(ref[i], rel=1e-9, abs=1e-12), f"node {i}"

    def test_single_node_graph_no_edges(self):
        params = GnnParameters(HYPER, seed=2)
        snap = single_node_graph().snapshot()
        out = forward(snap, params)
        ref = ref_forward(snap, params)
        assert out.logits.shape == (1,)
        assert out.logits[0] == pytest.approx(ref[0], rel=1e-9)

    def test_random_graphs(self):
        params = GnnParameters(HYPER, seed=3)
        for seed in range(8):
            snap = random_snapshot(900 + seed)
            out = forward(snap, params)
            ref = ref_forward(snap, params)
            np.testing.assert_allclose(
                out.logits, [ref[i] for i in out.open_ids], rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_grown_graph_with_many_open_nodes(self, layers):
        # the last layer computes only the open rows and the edges into them
        hyper = GnnHyper(hidden=8, rbf_n=4, layers=layers, feature_bits=32,
                         drop_rate=0.0)
        snap = growing_snapshots("60", 12)[-1]
        out = forward(snap, GnnParameters(hyper, seed=layers))
        ref = ref_forward(snap, GnnParameters(hyper, seed=layers))
        assert len(out.open_ids) > 10
        np.testing.assert_allclose(out.logits, [ref[i] for i in out.open_ids],
                                   rtol=1e-9, atol=1e-12)

    def test_open_ids_are_the_open_molecules(self):
        snap = fixture_graph().snapshot()
        out = forward(snap, GnnParameters(HYPER, seed=1))
        want = sorted(i for i, nd in enumerate(snap["nodes"])
                      if nd["kind"] == "molecule" and nd["open"])
        assert out.open_ids == want


class TestPermutationEquivariance:
    def permute_snapshot(self, snap, perm):
        inv_perm = {old: new for new, old in enumerate(perm)}
        nodes = [snap["nodes"][old] for old in perm]
        edges = [[inv_perm[s], inv_perm[d]] for s, d in snap["edges"]]
        return {
            "version": 1, "dedup": snap["dedup"], "nodes": nodes,
            "edges": edges, "targets": [inv_perm[t] for t in snap["targets"]],
            "labels": None,
        }

    def test_logits_follow_the_permutation(self):
        params = GnnParameters(HYPER, seed=4)
        snap = fixture_graph().snapshot()
        n = len(snap["nodes"])
        rng = np.random.default_rng(0)
        perm = rng.permutation(n).tolist()
        permuted = self.permute_snapshot(snap, perm)
        out = forward(snap, params)
        base = dict(zip(out.open_ids, out.logits))
        out = forward(permuted, params)
        moved = dict(zip(out.open_ids, out.logits))
        assert sorted(perm[new] for new in moved) == sorted(base)
        for new, old in enumerate(perm):
            if old in base:
                assert moved[new] == pytest.approx(base[old], rel=1e-9, abs=1e-12)


class TestScore:
    def test_zero_head_gives_uniform_scores(self):
        params = GnnParameters(HYPER, seed=5)
        params.out_w.data = np.zeros_like(params.out_w.data)
        params.out_b.data = np.zeros_like(params.out_b.data)
        snap = fixture_graph().snapshot()
        result = score(snap, params)
        n = len(result.normalized)
        for i in result.normalized:
            assert result.normalized[i] == pytest.approx(1.0 / n)
            assert result.logit[i] == pytest.approx(0.0)

    def test_normalized_always_sums_to_one(self):
        for seed in (6, 7):
            params = GnnParameters(HYPER, seed=seed)
            result = score(fixture_graph().snapshot(), params)
            assert sum(result.normalized.values()) == pytest.approx(1.0)

    def test_rejects_snapshot_without_open_nodes(self):
        inv = Inventory(["T"])
        g = SearchGraph()
        g.add_target("T", inv)
        with pytest.raises(ValueError):
            score(g.snapshot(), GnnParameters(HYPER, seed=0))


def assert_score_matches_forward(snap, params):
    """A cold score's logits equal forward's bit for bit: both run the same
    meta layers on the same rows."""
    out = forward(snap, params)
    got = score(snap, params).logit
    assert list(got) == out.open_ids
    assert np.array_equal([got[i] for i in out.open_ids], out.logits)


def tree_mode_snapshot(target="30", expansions=6):
    """An additive target expanded cheapest-first in tree mode (dedup off),
    so the same molecule key appears on several nodes."""
    dom, inv = AdditiveSplitDomain(seed=0), Inventory.integer_range(3)
    g = SearchGraph(dedup=False)
    g.add_target(target, inv)
    for _ in range(expansions):
        v = min(g.open_nodes(), key=lambda n: (g.nodes[n].hist_cost, n))
        g.merge_expand(v, dom.expand(g.nodes[v].molecule, 4), inv)
    return g.snapshot()


def shared_reactant_snapshot():
    """T -> {A, B} and T -> {A, C}, then B -> {A}: open A has three incoming
    reactions."""
    inv = Inventory(["I"])
    g = SearchGraph()
    t = g.add_target("T", inv)
    g.merge_expand(t, [Reaction("T", frozenset({"A", "B"}), 1.0),
                       Reaction("T", frozenset({"A", "C"}), 1.5)], inv)
    (b,) = [n.id for n in g.nodes if n.kind == "molecule" and n.molecule == "B"]
    g.merge_expand(b, [Reaction("B", frozenset({"A"}), 0.5)], inv)
    return g.snapshot()


WIDE_HYPER = GnnHyper(hidden=64, rbf_n=16, layers=2, feature_bits=256,
                      drop_rate=0.0)


class TestScoreMatchesForward:
    """score runs forward's layers, with its first layer through an empty
    memo; its logits must equal forward's exactly."""

    def test_fixture_graph(self):
        for hyper in (HYPER, WIDE_HYPER):
            assert_score_matches_forward(fixture_graph().snapshot(),
                                         GnnParameters(hyper, seed=1))

    def test_random_graphs(self):
        params = GnnParameters(WIDE_HYPER, seed=3)
        for seed in range(8):
            snap = random_snapshot(900 + seed)
            if any(nd["kind"] == "molecule" and nd["open"] for nd in snap["nodes"]):
                assert_score_matches_forward(snap, params)

    def test_tree_mode_graph(self):
        snap = tree_mode_snapshot()
        assert not snap["dedup"]
        keys = [nd["key"] for nd in snap["nodes"] if nd["kind"] == "molecule"]
        assert len(set(keys)) < len(keys)
        assert_score_matches_forward(snap, GnnParameters(WIDE_HYPER, seed=4))

    def test_open_molecule_with_several_incoming_reactions(self):
        snap = shared_reactant_snapshot()
        (a,) = [i for i, nd in enumerate(snap["nodes"]) if nd.get("key") == "A"]
        assert snap["nodes"][a]["open"]
        assert sum(d == a for _, d in snap["edges"]) == 3
        for seed in (5, 6):
            assert_score_matches_forward(snap, GnnParameters(WIDE_HYPER, seed=seed))

    @pytest.mark.parametrize("layers", [1, 3])
    def test_other_depths(self, layers):
        hyper = GnnHyper(hidden=32, rbf_n=16, layers=layers, feature_bits=64,
                         drop_rate=0.0)
        params = GnnParameters(hyper, seed=layers)
        for snap in (fixture_graph().snapshot(), shared_reactant_snapshot(),
                     tree_mode_snapshot(), random_snapshot(903)):
            assert_score_matches_forward(snap, params)

    def test_single_open_target_without_edges(self):
        snap = single_node_graph().snapshot()
        assert snap["edges"] == []
        for hyper in (HYPER, WIDE_HYPER):
            assert_score_matches_forward(snap, GnnParameters(hyper, seed=2))

    @pytest.mark.parametrize("name", ["ffn_w", "layer0.edge.w2", "layer1.msg.b1",
                                      "layer1.node.b3", "out_w", "out_b"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_bad_parameter_raises(self, name, bad):
        # one finiteness check, on the output logits, still catches a bad
        # value anywhere on the path to them
        params = GnnParameters(HYPER, seed=1)
        dict(params.named_tensors())[name].data.flat[0] = bad
        with pytest.raises(FloatingPointError):
            score(fixture_graph().snapshot(), params)

    def test_fingerprints_hashed_once_per_molecule(self, monkeypatch):
        calls = []

        def counting(molecule, bits=2048):
            calls.append(molecule)
            return features(molecule, bits)

        monkeypatch.setattr(policygnn, "features", counting)
        params = GnnParameters(HYPER, seed=1)
        snap = tree_mode_snapshot()
        memo = policygnn.InferenceMemo()
        first = score(snap, params, memo)
        assert sorted(calls) == sorted(memo.fingerprints)
        again = score(snap, params, memo)
        assert len(calls) == len(memo.fingerprints)
        assert again == first
        assert score(snap, params) == first


def assert_within_scale(got: dict, want: np.ndarray, open_ids: list):
    """*got* logits equal *want* (open-node order) within 1e-12 of the
    snapshot's largest |logit|."""
    assert list(got) == open_ids
    gap = np.abs(np.array([got[i] for i in open_ids]) - want).max()
    assert gap <= 1e-12 * np.abs(want).max()


def assert_warm_matches_cold(snaps, params):
    """Scores *snaps* in order through one memo. At each, the warm logits
    equal a cold score and forward within 1e-12 of the snapshot's largest
    |logit|."""
    memo = policygnn.InferenceMemo()
    for snap in snaps:
        warm = score(snap, params, memo).logit
        out = forward(snap, params)
        want = out.logits
        assert_within_scale(warm, want, out.open_ids)
        assert_within_scale(warm, np.array(list(score(snap, params).logit.values())),
                            out.open_ids)


def growing_snapshots(target, expansions, dedup=True):
    """The snapshots of an additive target expanded cheapest-first, one per
    iteration, while it has open nodes."""
    dom, inv = AdditiveSplitDomain(seed=0), Inventory.integer_range(3)
    g = SearchGraph(dedup=dedup)
    g.add_target(target, inv)
    snaps = []
    for _ in range(expansions):
        if not g.open_nodes():
            break
        snaps.append(g.snapshot())
        v = min(g.open_nodes(), key=lambda n: (g.nodes[n].hist_cost, n))
        g.merge_expand(v, dom.expand(g.nodes[v].molecule, 4), inv)
    return snaps


class TestInferenceMemo:
    """score with a memo reuses first-layer rows of the previous snapshot;
    its logits must match a cold score and forward at every step."""

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_growing_graph(self, layers):
        hyper = GnnHyper(hidden=32, rbf_n=16, layers=layers, feature_bits=64,
                         drop_rate=0.0)
        snaps = growing_snapshots("60", 12)
        assert len(snaps) == 12
        assert_warm_matches_cold(snaps, GnnParameters(hyper, seed=layers))

    def test_tree_mode(self):
        snaps = growing_snapshots("30", 10, dedup=False)
        keys = [nd["key"] for nd in snaps[-1]["nodes"] if nd["kind"] == "molecule"]
        assert len(set(keys)) < len(keys)
        assert_warm_matches_cold(snaps, GnnParameters(WIDE_HYPER, seed=4))

    def test_graph_switch(self):
        # the second graph reuses the first one's node ids for other content
        snaps = growing_snapshots("45", 6) + growing_snapshots("44", 6)
        assert_warm_matches_cold(snaps, GnnParameters(WIDE_HYPER, seed=5))

    def test_graph_switch_to_fewer_incoming_edges(self):
        # open A keeps its id, key and hist in the second graph, and its one
        # remaining incoming edge is unchanged, but it lost the other one
        def expanded(reactions):
            inv = Inventory(["I"])
            g = SearchGraph()
            g.merge_expand(g.add_target("T", inv), reactions, inv)
            return g.snapshot()

        ab = Reaction("T", frozenset({"A", "B"}), 1.0)
        first = expanded([ab, Reaction("T", frozenset({"A", "C"}), 1.5)])
        second = expanded([ab, Reaction("T", frozenset({"C", "D"}), 1.5)])
        (a,) = [i for i, nd in enumerate(first["nodes"]) if nd.get("key") == "A"]
        assert first["nodes"][a] == second["nodes"][a]
        assert [sum(d == a for _, d in s["edges"]) for s in (first, second)] == [2, 1]
        assert_warm_matches_cold([first, second], GnnParameters(WIDE_HYPER, seed=8))

    def test_reused_reactant_whose_hist_cost_falls(self):
        # A is first reached at hist 5; expanding C reaches it at hist 2, so
        # its rows and those of its edges must not be reused
        inv = Inventory(["I"])
        g = SearchGraph()
        t = g.add_target("T", inv)
        g.merge_expand(t, [Reaction("T", frozenset({"A", "B"}), 5.0),
                           Reaction("T", frozenset({"C"}), 1.0)], inv)
        before = g.snapshot()
        (a,) = [i for i, nd in enumerate(before["nodes"]) if nd.get("key") == "A"]
        (c,) = [i for i, nd in enumerate(before["nodes"]) if nd.get("key") == "C"]
        g.merge_expand(c, [Reaction("C", frozenset({"A"}), 1.0)], inv)
        after = g.snapshot()
        assert after["nodes"][a]["hist_cost"] < before["nodes"][a]["hist_cost"]
        for seed in (6, 7):
            assert_warm_matches_cold([before, after, after],
                                     GnnParameters(WIDE_HYPER, seed=seed))

    def test_random_graph_sequence(self):
        # unrelated cyclic graphs through one memo; all start from target m0
        snaps = [random_snapshot(900 + seed) for seed in range(8)]
        snaps = [s for s in snaps
                 if any(nd["kind"] == "molecule" and nd["open"] for nd in s["nodes"])]
        assert_warm_matches_cold(snaps, GnnParameters(WIDE_HYPER, seed=3))


class TestLossClosedForms:
    def test_bce_at_zero_logits_is_ln2(self):
        terms = loss_terms(np.zeros(3), np.array([1.0, 0.0, 1.0]), 4.0)
        assert terms.bce == pytest.approx(math.log(2.0), abs=1e-15)

    def test_rank_at_zero_gap_equals_margin(self):
        terms = loss_terms(np.zeros(2), np.array([1.0, 0.0]), 4.0)
        assert terms.rank == pytest.approx(4.0)
        assert terms.total == pytest.approx(4.0 + math.log(2.0))

    def test_rank_vanishes_exactly_at_margin(self):
        labels = np.array([1.0, 0.0])
        assert loss_terms(np.array([4.0, 0.0]), labels, 4.0).rank == 0.0
        below = loss_terms(np.array([3.9, 0.0]), labels, 4.0)
        assert below.rank == pytest.approx(0.1)

    def test_rank_zero_without_pairs(self):
        logits = np.zeros(2)
        assert loss_terms(logits, np.array([1.0, 1.0]), 4.0).rank == 0.0
        assert loss_terms(logits, np.array([0.0, 0.0]), 4.0).rank == 0.0

    def test_rank_averages_all_pairs(self):
        # pos {2, 0}, neg {1}: relu(4-(2-1))=3, relu(4-(0-1))=5, mean 4
        terms = loss_terms(np.array([2.0, 0.0, 1.0]), np.array([1.0, 1.0, 0.0]), 4.0)
        assert terms.rank == pytest.approx(4.0)

    def test_bce_hand_value(self):
        # single node, label 1, logit 2: softplus(-2)
        terms = loss_terms(np.array([2.0]), np.array([1.0]), 4.0)
        assert terms.bce == pytest.approx(math.log(1 + math.exp(-2.0)), abs=1e-15)

    def test_gradient_hand_values(self):
        # bce: (sigmoid(z) - y) / k; rank: pos 2 is short of both negatives
        # (gaps 2 and 3), pos 9 of neither; each short pair moves 1/4
        z = np.array([2.0, 0.0, -1.0, 9.0])
        y = np.array([1.0, 0.0, 0.0, 1.0])
        sig = 1.0 / (1.0 + np.exp(-z))
        want = (sig - y) / 4 + np.array([-0.5, 0.25, 0.25, 0.0])
        np.testing.assert_allclose(loss_terms(z, y, 4.0).grad, want, rtol=1e-15)
        # at exactly the margin the pair is not short: no rank gradient
        at = loss_terms(np.array([4.0, 0.0]), np.array([1.0, 0.0]), 4.0)
        np.testing.assert_allclose(at.grad, (1.0 / (1.0 + np.exp(-np.array([4.0, 0.0])))
                                             - [1.0, 0.0]) / 2, rtol=1e-15)


class TestExampleLoss:
    def test_label_mismatch_rejected(self):
        snap = fixture_graph().snapshot()
        params = GnnParameters(HYPER, seed=0)
        with pytest.raises(ValueError, match="label keys"):
            example_loss(Example(snap, {0: 1}), params)

    def test_matches_manual_composition(self):
        snap = fixture_graph().snapshot()
        params = GnnParameters(HYPER, seed=0)
        out = forward(snap, params)
        labels = {i: (1 if j == 0 else 0) for j, i in enumerate(out.open_ids)}
        terms = example_loss(Example(snap, labels), params)
        raw = out.logits
        y = np.array([labels[i] for i in out.open_ids], dtype=float)
        want_bce = np.mean(y * np.logaddexp(0, -raw) + (1 - y) * np.logaddexp(0, raw))
        assert terms.bce == pytest.approx(want_bce, rel=1e-12)
        gaps = raw[y == 1][:, None] - raw[y == 0][None, :]
        want_rank = np.mean(np.maximum(4.0 - gaps, 0.0))
        assert terms.rank == pytest.approx(want_rank, rel=1e-12)
        assert terms.total == terms.bce + terms.rank


def check_gradients(ex, params, rng, drop_seed=None, probes=2):
    """example_loss's hand-written gradient of every parameter against
    central differences at *probes* random entries each. With *drop_seed*
    every evaluation draws its dropout masks from that seed. The last
    layer's global update feeds nothing, so its parameters must get no
    gradient at all."""
    def run():
        drop = None if drop_seed is None else np.random.default_rng(drop_seed)
        return example_loss(ex, params, training=True, rng=drop)

    zero_grads(params.tensors())
    run()
    grads = {name: t.grad for name, t in params.named_tensors()}

    def loss_value():
        zero_grads(params.tensors())
        return run().total

    dead = f"layer{params.hyper.layers - 1}.glob."
    for name, tensor in params.named_tensors():
        if name.startswith(dead):
            # the last global update feeds nothing: the logit head reads
            # node states only, so these parameters get no gradient
            assert grads[name] is None
            continue
        assert grads[name] is not None, f"{name} got no gradient"
        size = tensor.data.size
        for idx in rng.choice(size, size=min(probes, size), replace=False):
            # .flat writes through even on non-contiguous arrays
            w = tensor.data.flat[idx]
            h = 1e-4 * max(1.0, abs(w))
            tensor.data.flat[idx] = w + h
            up = loss_value()
            tensor.data.flat[idx] = w - h
            down = loss_value()
            tensor.data.flat[idx] = w
            fd = (up - down) / (2 * h)
            ad = grads[name].flat[idx]
            rel = abs(ad - fd) / max(1e-8, abs(ad), abs(fd))
            assert rel <= 1e-4, f"{name}[{idx}]: ad={ad} fd={fd} rel={rel}"
    zero_grads(params.tensors())


def alternating_labels(snap):
    open_ids = sorted(i for i, nd in enumerate(snap["nodes"])
                      if nd["kind"] == "molecule" and nd["open"])
    return {i: (1 if j % 2 == 0 else 0) for j, i in enumerate(open_ids)}


class TestGradientsAgainstFiniteDifferences:
    def test_loss_gradient_every_tensor(self):
        params = GnnParameters(HYPER, seed=8)
        snap = fixture_graph().snapshot()
        ex = Example(snap, alternating_labels(snap))
        check_gradients(ex, params, np.random.default_rng(0))

    @pytest.mark.parametrize("layers", [1, 3])
    def test_other_depths(self, layers):
        hyper = GnnHyper(hidden=8, rbf_n=4, layers=layers, feature_bits=32,
                         drop_rate=0.0)
        for seed, snap in enumerate([fixture_graph().snapshot(),
                                     shared_reactant_snapshot()]):
            check_gradients(Example(snap, alternating_labels(snap)),
                            GnnParameters(hyper, seed=seed), np.random.default_rng(seed))

    def test_single_open_node_without_edges(self):
        snap = single_node_graph().snapshot()
        assert snap["edges"] == []
        check_gradients(Example(snap, {0: 1}), GnnParameters(HYPER, seed=2),
                        np.random.default_rng(1), probes=3)

    def test_with_dropout(self):
        # the same masks in every evaluation; nonzero biases keep dropped
        # rows off the relu kinks
        hyper = GnnHyper(hidden=8, rbf_n=4, layers=2, feature_bits=32, drop_rate=0.3)
        params = GnnParameters(hyper, seed=5)
        rng = np.random.default_rng(4)
        for name, t in params.named_tensors():
            if name.endswith(("b1", "b2", "b3")):
                t.data = rng.normal(size=t.data.shape)
        snap = shared_reactant_snapshot()
        ex = Example(snap, alternating_labels(snap))
        a = example_loss(ex, params, training=True, rng=np.random.default_rng(9)).total
        b = example_loss(ex, params).total
        assert a != b      # dropout is on
        check_gradients(ex, params, rng, drop_seed=9, probes=3)

    @pytest.mark.parametrize("name", ["ffn_w", "layer0.edge.w2", "layer1.node.b3",
                                      "out_w"])
    def test_non_finite_weight_raises_before_any_gradient(self, name):
        params = GnnParameters(HYPER, seed=1)
        dict(params.named_tensors())[name].data.flat[0] = math.nan
        snap = fixture_graph().snapshot()
        zero_grads(params.tensors())
        with pytest.raises(FloatingPointError):
            example_loss(Example(snap, alternating_labels(snap)), params, training=True)
        assert all(t.grad is None for t in params.tensors())


def make_examples(n, seed, hyper):
    """Labeled snapshots with at least one positive and one negative each."""
    examples = []
    attempt = 0
    while len(examples) < n:
        snap = random_snapshot(seed + attempt)
        attempt += 1
        open_ids = sorted(i for i, nd in enumerate(snap["nodes"])
                          if nd["kind"] == "molecule" and nd["open"])
        if len(open_ids) < 2:
            continue
        labels = {i: (1 if j == 0 else 0) for j, i in enumerate(open_ids)}
        examples.append(Example(snap, labels))
    return examples


class TestTraining:
    def test_deterministic_runs(self):
        examples = make_examples(6, 100, HYPER)
        a = train(examples[:4], examples[4:], HYPER, seed=3, epochs=2,
                  batch_size=2, lr=1e-3)
        b = train(examples[:4], examples[4:], HYPER, seed=3, epochs=2,
                  batch_size=2, lr=1e-3)
        assert a.log == b.log
        assert a.best_epoch == b.best_epoch
        for (na, ta), (nb, tb) in zip(a.params.named_tensors(),
                                      b.params.named_tensors()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_log_rows_and_best_checkpoint(self):
        examples = make_examples(6, 200, HYPER)
        result = train(examples[:4], examples[4:], HYPER, seed=1, epochs=3,
                       batch_size=2, lr=1e-3)
        assert [row["epoch"] for row in result.log] == [1, 2, 3]
        for row in result.log:
            assert set(row) == {"epoch", "bce", "rank", "total", "val_rank"}
        assert 1 <= result.best_epoch <= 3
        # returned params reproduce the best logged validation rank exactly
        val_rank = evaluate(examples[4:], result.params)["rank"]
        assert val_rank == min(row["val_rank"] for row in result.log)

    def test_dropout_training_path_runs(self):
        hyper = GnnHyper(hidden=8, rbf_n=4, layers=1, feature_bits=32,
                         drop_rate=0.3)
        examples = make_examples(3, 300, hyper)
        result = train(examples[:2], examples[2:], hyper, seed=0, epochs=1,
                       batch_size=2)
        assert result.log[0]["total"] > 0.0

    def test_batch_does_not_hold_every_tape(self):
        # each example's tape is freed by its own backward, so a batch of 8
        # peaks near a batch of 1 instead of holding eight tapes at once
        hyper = GnnHyper(hidden=64, rbf_n=4, layers=2, feature_bits=64,
                         drop_rate=0.0)
        dom = AdditiveSplitDomain(seed=0)
        inv = Inventory.integer_range(3)
        g = SearchGraph()
        g.add_target("997", inv)
        while len(g.nodes) < 130:
            v = min(g.open_nodes(), key=lambda n: (g.nodes[n].hist_cost, n))
            g.merge_expand(v, dom.expand(g.nodes[v].molecule, 6), inv)
        open_ids = sorted(g.open_nodes())
        ex = Example(g.snapshot(), {i: int(i == open_ids[0]) for i in open_ids})
        peaks = {}
        for batch_size in (1, 8):
            tracemalloc.start()
            try:
                train([ex] * 8, [ex], hyper, epochs=1, batch_size=batch_size)
                _, peaks[batch_size] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[8] < 1.5 * peaks[1]

    def test_non_finite_weight_stops_before_adam_moves(self, monkeypatch):
        class Poisoned(GnnParameters):
            def __init__(self, hyper, seed=0):
                super().__init__(hyper, seed)
                self.layer_blocks[0].msg.w3.data[0, 0] = math.nan

        steps = []
        monkeypatch.setattr(policygnn, "GnnParameters", Poisoned)
        monkeypatch.setattr(AdamState, "step", lambda self: steps.append(1))
        examples = make_examples(4, 100, HYPER)
        with pytest.raises(FloatingPointError):
            train(examples[:2], examples[2:], HYPER, epochs=1, batch_size=2)
        assert steps == []

    def test_validation_errors(self):
        examples = make_examples(2, 400, HYPER)
        with pytest.raises(ValueError):
            train([], examples, HYPER)
        with pytest.raises(ValueError):
            train(examples, [], HYPER)
        with pytest.raises(ValueError):
            train(examples, examples, HYPER, epochs=0)


class TestEvalHelpers:
    def test_pairwise_accuracy_with_labels_from_logits(self):
        params = GnnParameters(HYPER, seed=9)
        snap = fixture_graph().snapshot()
        out = forward(snap, params)
        raw = dict(zip(out.open_ids, out.logits))
        top = max(raw, key=raw.get)
        aligned = Example(snap, {i: int(i == top) for i in out.open_ids})
        assert pairwise_accuracy([aligned], params) == 1.0
        bottom = min(raw, key=raw.get)
        misaligned = Example(snap, {i: int(i == bottom) for i in out.open_ids})
        assert pairwise_accuracy([misaligned], params) == 0.0

    def test_pairwise_accuracy_needs_pairs(self):
        snap = fixture_graph().snapshot()
        open_ids = sorted(i for i, nd in enumerate(snap["nodes"])
                          if nd["kind"] == "molecule" and nd["open"])
        allpos = Example(snap, {i: 1 for i in open_ids})
        with pytest.raises(ValueError):
            pairwise_accuracy([allpos], GnnParameters(HYPER, seed=0))

    def test_evaluate_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], GnnParameters(HYPER, seed=0))


class TestParameters:
    def test_copy_is_independent(self):
        params = GnnParameters(HYPER, seed=0)
        dup = params.copy()
        dup.out_b.data = dup.out_b.data + 1.0
        assert params.out_b.data[0] == 0.0

    def test_named_order_is_stable(self):
        a = [n for n, _ in GnnParameters(HYPER, seed=0).named_tensors()]
        b = [n for n, _ in GnnParameters(HYPER, seed=1).named_tensors()]
        assert a == b
        assert a[0] == "edge_emb" and a[-1] == "out_b"
        assert "layer0.edge.w1" in a and "layer1.glob.b3" in a

    def test_save_load_round_trip(self, tmp_path):
        params = GnnParameters(HYPER, seed=11)
        path = tmp_path / "p.bin"
        params.save(path)
        back = GnnParameters.load(path)
        assert back.hyper == params.hyper
        for (na, ta), (nb, tb) in zip(params.named_tensors(),
                                      back.named_tensors()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_load_rejects_other_variant(self, tmp_path):
        from retrograph.costmodel import ValueNetCost
        path = tmp_path / "vn.bin"
        ValueNetCost.zeros(bits=32, hidden=4).save(path)
        with pytest.raises(ValueError, match="policy-network"):
            GnnParameters.load(path)
