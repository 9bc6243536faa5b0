"""Acceptance suite: ten package-level criteria, one test and one summary
line each, plus a check that the planner's GNN scores match a cold forward
pass on the graphs criterion 08 plans.

References here are written independently of the library code they check:
a full-sweep success fixpoint, full-sweep value iteration for proof costs,
exhaustive simple-path cost enumeration, central finite differences, and
hand-built planning families whose behavior was derived on paper. Benchmark target sets are fixed by seed so
every run checks identical inputs. Each test enforces its own wall-clock
budget.
"""

import json
import time

import numpy as np
import pytest

from retrograph import policygnn, traindata
from retrograph.costmodel import GnnCost, ZeroCost, train_value_net
from retrograph.molspace import (
    AdditiveSplitDomain,
    FactorSplitDomain,
    Inventory,
    Reaction,
    TableDomain,
)
from retrograph.numerics import rbf, zero_grads
from retrograph.planner import (
    PlanConfig,
    batch_plan,
    extract_route,
    plan,
    select_next,
    validate_route,
)
from retrograph.searchgraph import INF, SearchGraph


def report(num, label, detail, t0):
    print(f"[criterion {num:02d}] PASS {label}: {detail} "
          f"({time.monotonic() - t0:.1f}s)")


# -- independent references ---------------------------------------------------

def fixpoint_success(g):
    """Least fixpoint by repeated full sweeps from all-false."""
    n = len(g.nodes)
    flag = [g.nodes[i].kind == "molecule" and g.nodes[i].in_inventory
            for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if flag[i]:
                continue
            if g.nodes[i].kind == "reaction":
                new = bool(g.succ[i]) and all(flag[c] for c in g.succ[i])
            else:
                new = g.nodes[i].in_inventory or any(flag[r] for r in g.succ[i])
            if new:
                flag[i] = changed = True
    return flag


def fixpoint_proof_cost(g):
    """Cheapest inventory-terminated proof of every node by repeated full
    sweeps downward from INF; reactants are summed in edge order."""
    n = len(g.nodes)
    cost = [0.0 if g.nodes[i].kind == "molecule" and g.nodes[i].in_inventory
            else INF for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            node = g.nodes[i]
            if node.kind == "reaction":
                total = 0.0
                for c in g.succ[i]:
                    total = total + cost[c]
                new = node.reaction_cost + total
            elif node.in_inventory:
                continue
            else:
                new = min([cost[r] for r in g.succ[i]] + [INF])
            if new < cost[i]:
                cost[i] = new
                changed = True
    return cost


def simple_path_hist(g):
    """Cheapest cost over every simple directed path from any target;
    exponential, so only for small graphs."""
    best = [INF] * len(g.nodes)

    def weight(nid):
        node = g.nodes[nid]
        return node.reaction_cost if node.kind == "reaction" else 0.0

    def dfs(nid, cost, on_path):
        total = cost + weight(nid)
        if total < best[nid]:
            best[nid] = total
        for s in g.succ[nid]:
            if s not in on_path:
                dfs(s, total, on_path | {s})

    for t in set(g.targets):
        dfs(t, 0.0, {t})
    return best


def has_cycle(g):
    color = [0] * len(g.nodes)
    for s in range(len(g.nodes)):
        if color[s]:
            continue
        stack = [(s, iter(g.succ[s]))]
        color[s] = 1
        while stack:
            nid, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                color[nid] = 2
                stack.pop()
            elif color[nxt] == 1:
                return True
            elif color[nxt] == 0:
                color[nxt] = 1
                stack.append((nxt, iter(g.succ[nxt])))
    return False


def random_domain(rng, n_keys, max_rxns, max_size):
    """Random reaction table over a fixed key set; reactants are drawn
    from the same keys, so cycles appear naturally."""
    keys = [f"m{i}" for i in range(n_keys)]
    rxns = []
    for key in keys:
        for _ in range(int(rng.integers(0, max_rxns + 1))):
            size = int(rng.integers(1, max_size + 1))
            rs = rng.choice(keys, size=size, replace=False)
            rxns.append(Reaction(key, frozenset(str(r) for r in rs),
                                 float(rng.uniform(0.1, 2.0))))
    return TableDomain(rxns), keys


def drive(g, dom, inv, rng, *, node_cap=190, second_target=None):
    """Expand random open nodes until closure or the node cap."""
    steps = 0
    while g.open_nodes() and len(g.nodes) < node_cap:
        opens = sorted(g.open_nodes())
        v = opens[int(rng.integers(len(opens)))]
        g.merge_expand(v, dom.expand(g.nodes[v].molecule, 10), inv)
        steps += 1
        if steps == 4 and second_target is not None:
            g.add_target(second_target, inv)
    return steps


# -- criterion 1: molecule nodes are unique in graph mode ---------------------

class TestDedupExactness:
    def test_01_dedup_exactness(self):
        t0 = time.monotonic()
        runs = 0
        checked = 0
        cases = []
        add = AdditiveSplitDomain(seed=0)
        int_inv = Inventory.integer_range(3)
        cases += [(add, int_inv, str(n)) for n in range(12, 27)]
        fac = FactorSplitDomain(seed=0)
        cases += [(fac, int_inv, str(n)) for n in (24, 36, 60, 90, 144, 360)]
        for i in range(15):
            rng = np.random.default_rng(500 + i)
            dom, keys = random_domain(rng, 12, 3, 3)
            cases.append((dom, Inventory([keys[-1]]), keys[0]))
        for dom, inv, target in cases:
            rng = np.random.default_rng(runs)
            g = SearchGraph(dedup=True)
            g.add_target(dom.canonical(target), inv)
            expanded = []
            while g.open_nodes() and len(g.nodes) < 400:
                v = select_next(g, ZeroCost(), [], g.open_nodes())
                expanded.append(g.nodes[v].molecule)
                g.merge_expand(v, dom.expand(g.nodes[v].molecule, 8), inv)
                mols = [n.molecule for n in g.nodes if n.kind == "molecule"]
                assert g.molecule_count() == len(mols) == len(set(mols))
                checked += 1
            # a molecule is never expanded twice when nodes are shared
            assert len(expanded) == len(set(expanded))
            runs += 1
        assert time.monotonic() - t0 < 60.0
        report(1, "dedup exactness",
               f"{runs} runs, {checked} per-iteration node checks", t0)


# -- criterion 2: incremental success equals the least fixpoint ---------------

class TestSuccessFixpoint:
    def test_02_success_fixpoint_on_1000_graphs(self):
        t0 = time.monotonic()
        cyclic = 0
        proven = 0
        for i in range(1000):
            rng = np.random.default_rng(20_000 + i)
            n_keys = int(rng.integers(6, 31))
            dom, keys = random_domain(rng, n_keys, 3, 3)
            inv = Inventory(
                str(k) for k in rng.choice(keys, size=int(rng.integers(1, 4)),
                                           replace=False))
            g = SearchGraph(dedup=True)
            g.add_target(keys[0], inv)
            drive(g, dom, inv, rng,
                  second_target=keys[1] if n_keys > 8 else None)
            assert len(g.nodes) <= 200
            assert [n.success for n in g.nodes] == fixpoint_success(g)
            cyclic += has_cycle(g)
            # each node keeps the cost of its cheapest inventory-terminated
            # proof, so success always comes with a finite one
            ref = fixpoint_proof_cost(g)
            for node in g.nodes:
                assert node.proof_cost == ref[node.id]
                assert node.success == (ref[node.id] < INF)
            for tid in set(g.targets):
                if g.nodes[tid].success:
                    validate_route(extract_route(g, tid), inv)
                    proven += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        assert cyclic >= 400          # the corpus genuinely contains cycles
        report(2, "success fixpoint",
               f"1000 graphs ({cyclic} cyclic, {proven} routes validated)", t0)


# -- criterion 3: cost maintenance equals simple-path enumeration -------------

class TestHistCostOracle:
    def test_03_hist_cost_on_200_graphs(self):
        t0 = time.monotonic()
        for i in range(200):
            rng = np.random.default_rng(31_000 + i)
            n_keys = 4 + i % 9
            dom, keys = random_domain(rng, n_keys, 2, 2)
            inv = Inventory(
                str(k) for k in rng.choice(keys, size=int(rng.integers(1, 3)),
                                           replace=False))
            g = SearchGraph(dedup=True)
            g.add_target(keys[0], inv)
            drive(g, dom, inv, rng,
                  second_target=keys[2] if n_keys > 6 else None)
            assert sum(n.kind == "molecule" for n in g.nodes) <= 12
            got = [n.hist_cost for n in g.nodes]
            np.testing.assert_allclose(got, simple_path_hist(g),
                                       rtol=0.0, atol=1e-9)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        report(3, "path-cost oracle", "200 graphs within 1e-9", t0)


# -- criterion 4: shared nodes never cost extra expansions --------------------

def factor_benchmark_targets(seed=4, n=100, factors=(2, 3, 5), lo=4, hi=7):
    """Fixed benchmark: composites built from small prime factors."""
    rng = np.random.default_rng(seed)
    out, seen = [], set()
    while len(out) < n:
        k = int(rng.integers(lo, hi + 1))
        val = 1
        for _ in range(k):
            val *= int(rng.choice(factors))
        if val not in seen and val > 9:
            seen.add(val)
            out.append(str(val))
    return out


class TestGraphVsTree:
    def test_04_graph_dominates_tree(self):
        t0 = time.monotonic()
        targets = factor_benchmark_targets()
        dom = FactorSplitDomain(seed=0)
        inv = Inventory.integer_range(3)
        ratios = []
        for tgt in targets:
            rg = plan([tgt], dom, inv, PlanConfig(budget=120, k=15, mode="graph"))
            rt = plan([tgt], dom, inv, PlanConfig(budget=120, k=15, mode="tree"))
            assert rg.iterations <= rt.iterations, tgt
            assert rt.trace
            ratios.append(len({r.expanded for r in rt.trace}) / len(rt.trace))
        mean_ratio = float(np.mean(ratios))
        assert mean_ratio < 0.9
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0
        report(4, "graph beats tree",
               f"100/100 dominated, tree unique/expanded {mean_ratio:.3f}", t0)


# -- criterion 5: batching shares expensive intermediates ---------------------

def shared_hub_family(n_targets=50, depth=60):
    """Every target needs hub H behind a chain too deep for one budget;
    every second target also has a cheap private route, so unbatched runs
    solve exactly half.
    """
    chain = [f"S{i:02d}" for i in range(1, depth)]
    rxns = [Reaction("H", frozenset({chain[0]}), 0.1)]
    rxns += [Reaction(a, frozenset({b}), 0.1) for a, b in zip(chain, chain[1:])]
    rxns.append(Reaction(chain[-1], frozenset({"I"}), 0.1))
    targets = []
    for i in range(n_targets):
        t = f"T{i:02d}"
        targets.append(t)
        rxns.append(Reaction(t, frozenset({"H"}), 1.0))
        if i % 2 == 0:
            rxns.append(Reaction(t, frozenset({f"E{i:02d}"}), 0.5))
            rxns.append(Reaction(f"E{i:02d}", frozenset({"I"}), 0.1))
    return TableDomain(rxns), targets


class TestBatchBenefit:
    def test_05_batching_beats_single_target(self):
        t0 = time.monotonic()
        dom, targets = shared_hub_family()
        inv = Inventory(["I"])
        counts = {}
        for bsize in (1, 2, 4, 8):
            cfg = PlanConfig(budget=50, k=10, batch_size=bsize, clusters=1)
            results = batch_plan(targets, dom, inv, cfg, bits=64)
            counts[bsize] = sum(t.success for r in results for t in r.targets)
        base = counts[1]
        assert all(counts[b] >= base for b in (2, 4, 8))
        assert any(counts[b] > base for b in (2, 4, 8))
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0
        report(5, "batch benefit",
               f"solved by batch size {counts}", t0)


# -- criterion 6: loss gradients match finite differences ---------------------

FD_HYPER = policygnn.GnnHyper(hidden=8, rbf_n=4, layers=2, feature_bits=32,
                              drop_rate=0.0, margin=4.0)


def random_labeled_snapshot(rng):
    """Small random search graph plus labels covering its open nodes."""
    dom, keys = random_domain(rng, int(rng.integers(3, 6)), 2, 2)
    inv = Inventory([keys[-1]])
    g = SearchGraph(dedup=True)
    g.add_target(keys[0], inv)
    # one expansion adds at most 2 reactions x (1 + 2 reactants) = 6 nodes
    while g.open_nodes() and len(g.nodes) <= 4:
        opens = sorted(g.open_nodes())
        v = opens[int(rng.integers(len(opens)))]
        g.merge_expand(v, dom.expand(g.nodes[v].molecule, 4), inv)
    snap = g.snapshot()
    open_ids = [i for i, nd in enumerate(snap["nodes"])
                if nd["kind"] == "molecule" and nd["open"]]
    if not open_ids:
        return None
    labels = {i: int(rng.integers(0, 2)) for i in open_ids}
    labels[open_ids[0]] = 1
    return traindata.TrainingExample(snap, labels)


class TestGradientCheck:
    def test_06_gradients_match_finite_differences(self):
        t0 = time.monotonic()
        produced = 0
        seed = 0
        worst = 0.0
        while produced < 20:
            rng = np.random.default_rng(60_000 + seed)
            seed += 1
            ex = random_labeled_snapshot(rng)
            if ex is None:
                continue
            produced += 1
            assert len(ex.snapshot["nodes"]) <= 10
            params = policygnn.GnnParameters(FD_HYPER, seed=seed)

            def loss_value():
                return policygnn.example_loss(ex, params).total

            zero_grads(params.tensors())
            policygnn.example_loss(ex, params, training=True)
            for name, tensor in params.named_tensors():
                flat_grad = (None if tensor.grad is None
                             else tensor.grad.reshape(-1))
                size = tensor.data.size
                for idx in rng.choice(size, size=min(3, size), replace=False):
                    idx = int(idx)
                    w = tensor.data.flat[idx]
                    ana = 0.0 if flat_grad is None else float(flat_grad[idx])
                    # shrink the step when a relu kink sits inside the
                    # central-difference interval; a real gradient bug
                    # stays wrong at every step size
                    rel = np.inf
                    for scale in (1e-4, 1e-6, 1e-7):
                        h = scale * max(1.0, abs(w))
                        tensor.data.flat[idx] = w + h
                        up = loss_value()
                        tensor.data.flat[idx] = w - h
                        down = loss_value()
                        tensor.data.flat[idx] = w
                        fd = (up - down) / (2.0 * h)
                        rel = abs(ana - fd) / max(abs(ana), abs(fd), 1e-6)
                        if rel <= 1e-4:
                            break
                    worst = max(worst, rel)
                    assert rel <= 1e-4, (name, idx, ana, fd)
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0
        report(6, "gradient check",
               f"20 graphs, worst relative error {worst:.2e}", t0)


# -- criteria 7 and 8 share one trained network -------------------------------

GEN_CFG = PlanConfig(budget=120, k=6)
EVAL_CFG = PlanConfig(budget=50, k=6)
TRAIN_HYPER = policygnn.GnnHyper(hidden=256, rbf_n=32, layers=2,
                                 feature_bits=256, drop_rate=0.0, margin=4.0)


@pytest.fixture(scope="module")
def trained_network():
    t0 = time.monotonic()
    dom = AdditiveSplitDomain(seed=0)
    inv = Inventory.integer_range(3)
    train_targets = [str(n) for n in range(100, 300, 2)]
    data = traindata.generate(train_targets, dom, inv, GEN_CFG, full_k=True)
    assert len(data) >= 200
    data = data[:200]
    train_set, val_set = traindata.split(data, 30, seed=0)
    result = policygnn.train(train_set, val_set, TRAIN_HYPER, seed=0,
                             epochs=20, batch_size=32, lr=1e-4)
    return {
        "domain": dom, "inventory": inv, "train_targets": train_targets,
        "val_set": val_set, "result": result,
        "elapsed": time.monotonic() - t0, "t0": t0,
    }


class TestTrainingSignal:
    def test_07_loss_drop_and_ranking(self, trained_network):
        tn = trained_network
        result = tn["result"]
        first = result.log[0]["total"]
        last = result.log[-1]["total"]
        assert len(result.log) == 20
        assert last <= 0.5 * first
        accuracy = policygnn.pairwise_accuracy(tn["val_set"], result.params)
        assert accuracy >= 0.90
        assert tn["elapsed"] < 300.0
        report(7, "training signal",
               f"loss {first:.2f}->{last:.2f} "
               f"({(1 - last / first) * 100:.0f}% drop), "
               f"held-out ranking {accuracy:.3f}", tn["t0"])


class TestGuidanceBenefit:
    def test_08_trained_guidance_holds_up(self, trained_network):
        t0 = time.monotonic()
        tn = trained_network
        dom, inv = tn["domain"], tn["inventory"]
        routes = []
        for tgt in tn["train_targets"]:
            r = plan([tgt], dom, inv, GEN_CFG)
            if r.all_success:
                routes.append(r.targets[0].route)
        value_net = train_value_net(routes, bits=256, hidden=64,
                                    epochs=200, lr=1e-2, seed=0)
        held_out = [str(n) for n in range(101, 300, 2)]
        rates = {}
        for name, model in [("zero", ZeroCost()), ("value", value_net),
                            ("gnn", GnnCost(tn["result"].params, lam=0.5))]:
            rates[name] = sum(
                plan([t], dom, inv, EVAL_CFG, model).all_success
                for t in held_out)
        assert rates["gnn"] >= rates["zero"] - 5       # hard floor
        assert rates["gnn"] >= rates["value"] - 2
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0
        soft = "met" if rates["gnn"] >= rates["zero"] else "within floor"
        report(8, "guidance benefit",
               f"solved/100: {rates} (soft zero-model bound {soft})", t0)


    def test_08_score_matches_forward_on_guided_snapshots(self, trained_network,
                                                          monkeypatch):
        # planning scores open nodes through a memo that reuses the previous
        # iteration's first-layer rows. On the graphs criterion 08 plans, a
        # cold score runs the same layers as forward and must equal it to
        # 1e-12 relative per logit. The warm logits the planner priced with
        # are held to 1e-12 of the snapshot's largest |logit|: a reused row
        # was computed in a smaller matrix batch, whose last bits may
        # differ, and a logit near zero magnifies that relative gap
        tn = trained_network
        params = tn["result"].params
        cold_score = policygnn.score
        priced = []

        def recording(snap, params, memo=None):
            result = cold_score(snap, params, memo)
            priced.append((snap, result.logit))
            return result

        monkeypatch.setattr(policygnn, "score", recording)
        model = GnnCost(params, lam=0.5)   # one memo across targets, as in the CLI
        for t in [str(n) for n in range(101, 300, 20)]:
            plan([t], tn["domain"], tn["inventory"], EVAL_CFG, model)
        assert len(priced) >= 100
        for snap, warm in priced:
            out = policygnn.forward(snap, params)
            want = out.logits
            got = cold_score(snap, params).logit
            assert list(got) == list(warm) == out.open_ids
            np.testing.assert_allclose([got[i] for i in out.open_ids], want,
                                       rtol=1e-12, atol=0.0)
            gap = np.abs(np.array([warm[i] for i in out.open_ids]) - want).max()
            assert gap <= 1e-12 * np.abs(want).max()


# -- criterion 9: closed-form spot checks --------------------------------------

class TestClosedForms:
    def test_09_closed_form_spot_checks(self):
        t0 = time.monotonic()
        grid = rbf(5.0, 0.0, 10.0, 64, tau=25.0)
        assert grid[32] == 1.0

        logits = np.zeros(4)
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        bce = policygnn.loss_terms(logits, labels, margin=4.0).bce
        assert bce == pytest.approx(np.log(2.0), abs=1e-12)

        spread = np.array([4.0, 0.0])
        rank_hit = policygnn.loss_terms(spread, np.array([1.0, 0.0]), margin=4.0).rank
        assert rank_hit == 0.0
        near = np.array([3.9990234375, 0.0])
        rank_miss = policygnn.loss_terms(near, np.array([1.0, 0.0]), margin=4.0).rank
        assert rank_miss > 0.0

        dom = AdditiveSplitDomain(seed=0)
        inv = Inventory.integer_range(3)
        res = plan(["19"], dom, inv, PlanConfig(budget=4, k=6))
        assert not res.all_success  # open nodes remain for scoring
        g = SearchGraph(dedup=True)
        g.add_target("19", inv)
        while g.open_nodes() and len(g.nodes) < 40:
            v = select_next(g, ZeroCost(), [], g.open_nodes())
            g.merge_expand(v, dom.expand(g.nodes[v].molecule, 6), inv)
        params = policygnn.GnnParameters(FD_HYPER, seed=3)
        scores = policygnn.score(g.snapshot(), params).normalized
        assert scores
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
        report(9, "closed forms",
               "rbf center, uniform-probability level, rank margin, "
               "score normalization", t0)


# -- criterion 10: reruns reproduce identical bytes ---------------------------

class TestCliDeterminism:
    def test_10_cli_reruns_are_byte_identical(self, tmp_path):
        from retrograph import cli

        t0 = time.monotonic()
        targets = tmp_path / "targets.txt"
        targets.write_text("9\n12\n15\n", encoding="utf-8")
        table = tmp_path / "rxn.jsonl"
        table.write_text(
            "".join(json.dumps({"product": p, "reactants": rs, "cost": c}) + "\n"
                    for p, rs, c in [("T1", ["A", "B"], 1.0), ("A", ["C"], 1.0),
                                     ("B", ["C"], 1.0), ("T2", ["A"], 1.0),
                                     ("C", ["I"], 1.0)]),
            encoding="utf-8")
        inv = tmp_path / "inv.txt"
        inv.write_text("I\n", encoding="utf-8")
        study_targets = tmp_path / "study.txt"
        study_targets.write_text("T1\nT2\n", encoding="utf-8")
        net_cfg = tmp_path / "net.json"
        net_cfg.write_text(json.dumps({
            "hidden": 8, "rbf_n": 4, "layers": 2, "bits": 64, "epochs": 2,
            "lr": 1e-3, "train_batch": 4, "val_n": 2, "drop_rate": 0.0,
            "full_k": True}), encoding="utf-8")

        base = ["--domain", "additive-split", "--targets", str(targets),
                "--budget", "40", "--k", "6", "--seed", "0"]
        gen_out = tmp_path / "gen0"
        assert cli.main(["gen-data", "--config", str(net_cfg), *base,
                         "--out", str(gen_out)]) == 0

        commands = {
            "plan": (["plan", *base], ["result.json", "trace.csv"]),
            "batch-plan": (["batch-plan", *base, "--batch-size", "2"],
                           ["result.json", "trace.csv"]),
            "gen-data": (["gen-data", "--config", str(net_cfg), *base],
                         ["dataset.jsonl"]),
            "train": (["train", "--config", str(net_cfg), "--targets",
                       str(gen_out / "dataset.jsonl"), "--seed", "0"],
                      ["gnn.bin", "train_log.csv", "train_summary.json"]),
            "study-redundancy": (["study-redundancy", "--domain", str(table),
                                  "--inventory", str(inv), "--targets",
                                  str(study_targets), "--budget", "20",
                                  "--k", "5", "--seed", "0"],
                                 ["redundancy.csv", "summary.json"]),
        }
        plan_out = None
        for name, (argv, files) in commands.items():
            outs = []
            for rerun in (0, 1):
                out = tmp_path / f"{name}-{rerun}"
                assert cli.main([*argv, "--out", str(out)]) == 0
                outs.append(out)
            for fname in files:
                assert (outs[0] / fname).read_bytes() == \
                    (outs[1] / fname).read_bytes(), (name, fname)
            if name == "plan":
                plan_out = outs[0]

        eval_files = ["curve.csv", "summary.json", "reuse.csv"]
        outs = []
        for rerun in (0, 1):
            out = tmp_path / f"eval-{rerun}"
            assert cli.main(["eval", "--seed", "0", "--out", str(out),
                             str(plan_out / "result.json")]) == 0
            outs.append(out)
        for fname in eval_files:
            assert (outs[0] / fname).read_bytes() == \
                (outs[1] / fname).read_bytes(), ("eval", fname)
        report(10, "deterministic outputs",
               "6 commands rerun byte-identically", t0)
