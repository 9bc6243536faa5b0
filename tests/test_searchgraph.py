"""Search-graph tests.

The incremental success/cost maintenance is checked against five
independently written references: a naive least-fixpoint sweep, value
iteration for proof costs, Dijkstra from the targets, (on small graphs)
exhaustive simple-path enumeration, and the integer domains' closed-form
cost-to-go. The hand-built fixture's expected values were worked out on
paper.
"""

import heapq
import json
import math

import numpy as np
import pytest

from retrograph.molspace import (
    AdditiveSplitDomain,
    FactorSplitDomain,
    Inventory,
    Reaction,
    TableDomain,
)
from retrograph.searchgraph import (
    INF,
    ContractViolation,
    SearchGraph,
    snapshot_to_json,
)
from retrograph.traindata import TrainingExample


# -- independent references --------------------------------------------------

def fixpoint_success(g):
    """Least fixpoint by repeated full sweeps (no worklist)."""
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
                flag[i] = True
                changed = True
    return flag


def fixpoint_proof_cost(g):
    """Cheapest inventory-terminated proof by repeated full sweeps downward
    from INF (no worklist); reactants are summed in edge order."""
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


def dijkstra_hist(g):
    """Cheapest target-to-node path cost; reaction nodes carry the weight."""
    dist = [INF] * len(g.nodes)
    heap = []
    for t in g.targets:
        if dist[t] > 0.0:
            dist[t] = 0.0
            heapq.heappush(heap, (0.0, t))
    while heap:
        d, i = heapq.heappop(heap)
        if d > dist[i]:
            continue
        for s in g.succ[i]:
            w = g.nodes[s].reaction_cost if g.nodes[s].kind == "reaction" else 0.0
            nd = d + w
            if nd < dist[s]:
                dist[s] = nd
                heapq.heappush(heap, (nd, s))
    return dist


def simple_path_hist(g):
    """Min over all simple directed paths from any target; exponential, only
    for small graphs."""
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


def assert_consistent(g, *, exhaustive=False):
    got_success = [n.success for n in g.nodes]
    assert got_success == fixpoint_success(g)
    assert [n.proof_cost for n in g.nodes] == fixpoint_proof_cost(g)
    got_hist = [n.hist_cost for n in g.nodes]
    ref = dijkstra_hist(g)
    np.testing.assert_allclose(got_hist, ref, rtol=0, atol=1e-12)
    if exhaustive:
        np.testing.assert_allclose(got_hist, simple_path_hist(g), rtol=0, atol=1e-12)
    kinds = [n.kind for n in g.nodes]
    assert g.open_nodes() == {n.id for n in g.nodes if n.kind == "molecule" and n.open}
    assert g.molecule_count() == kinds.count("molecule")
    assert g.reaction_count() == kinds.count("reaction")
    g.check_invariants()


# -- hand-built fixture -------------------------------------------------------

def build_fixture():
    """T <- {A,B} (1.0) or {I1} (3.0); A <- {B,I1} (0.5); B <- {I2} (2.0).

    Expansion order T, A, B. Expected values computed by hand:
    after step 1, T succeeds through the inventory branch and hist is
    T=0 R1=1 A=1 B=1 R2=3 I1=3; step 2 lowers I1 to 1.5; step 3 proves
    everything.
    """
    inv = Inventory(["I1", "I2"])
    g = SearchGraph(dedup=True)
    t = g.add_target("T", inv)
    g.merge_expand(t, [
        Reaction("T", frozenset({"A", "B"}), 1.0),
        Reaction("T", frozenset({"I1"}), 3.0),
    ], inv)
    return g, inv


class TestHandFixture:
    def test_first_expansion(self):
        g, inv = build_fixture()
        # ids: 0=T 1=R1 2=A 3=B 4=R2 5=I1
        assert [n.kind for n in g.nodes] == [
            "molecule", "reaction", "molecule", "molecule", "reaction", "molecule"]
        assert g.nodes[0].success            # T proved through R2/I1
        assert g.nodes[4].success and g.nodes[5].success
        assert not g.nodes[1].success and not g.nodes[2].success
        assert g.open_nodes() == {2, 3}
        np.testing.assert_allclose(
            [n.hist_cost for n in g.nodes], [0.0, 1.0, 1.0, 1.0, 3.0, 3.0])
        assert_consistent(g, exhaustive=True)

    def test_reuse_lowers_hist(self):
        g, inv = build_fixture()
        g.merge_expand(2, [Reaction("A", frozenset({"I1", "B"}), 0.5)], inv)
        # R3 is node 6; B reused (no new node), I1 lowered from 3.0 to 1.5
        assert g.molecule_count() == 4
        assert g.nodes[6].hist_cost == pytest.approx(1.5)
        assert g.nodes[5].hist_cost == pytest.approx(1.5)
        assert g.nodes[3].hist_cost == pytest.approx(1.0)
        assert not g.nodes[6].success        # B still unproved
        assert g.open_nodes() == {3}
        assert_consistent(g, exhaustive=True)

    def test_final_expansion_proves_all(self):
        g, inv = build_fixture()
        g.merge_expand(2, [Reaction("A", frozenset({"I1", "B"}), 0.5)], inv)
        g.merge_expand(3, [Reaction("B", frozenset({"I2"}), 2.0)], inv)
        assert all(n.success for n in g.nodes)
        assert g.open_nodes() == set()
        assert g.all_targets_successful()
        expected = {0: 0.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 3.0, 5: 1.5,
                    6: 1.5, 7: 3.0, 8: 3.0}
        for nid, want in expected.items():
            assert g.nodes[nid].hist_cost == pytest.approx(want), f"node {nid}"
        # B = 2 (via I2), A = 0.5 + B + I1, T = min(1 + A + B, 3 + I1)
        proof = {0: 3.0, 1: 5.5, 2: 2.5, 3: 2.0, 4: 3.0, 5: 0.0,
                 6: 2.5, 7: 2.0, 8: 0.0}
        for nid, want in proof.items():
            assert g.nodes[nid].proof_cost == pytest.approx(want), f"node {nid}"
        assert_consistent(g, exhaustive=True)


class TestTargets:
    def test_inventory_target_succeeds_immediately(self):
        inv = Inventory(["5"])
        g = SearchGraph()
        t = g.add_target("5", inv)
        assert g.nodes[t].success and not g.nodes[t].open
        assert g.all_targets_successful()
        assert g.open_nodes() == set()

    def test_promoting_intermediate_to_target_lowers_costs(self):
        g, inv = build_fixture()
        t2 = g.add_target("B", inv)          # B was an intermediate at hist 1.0
        assert t2 == 3
        assert g.targets == [0, 3]
        assert g.nodes[3].hist_cost == 0.0
        assert_consistent(g, exhaustive=True)

    def test_duplicate_add_target_is_idempotent(self):
        inv = Inventory(["1"])
        g = SearchGraph()
        a = g.add_target("7", inv)
        b = g.add_target("7", inv)
        assert a == b and g.targets == [a]


class TestMergeExpand:
    def test_dead_end_closes_node(self):
        inv = Inventory(["1"])
        g = SearchGraph()
        t = g.add_target("9", inv)
        g.merge_expand(t, [], inv)
        assert not g.nodes[t].open and not g.nodes[t].success
        assert g.open_nodes() == set()
        assert not g.all_targets_successful()

    def test_expanding_closed_node_rejected(self):
        g, inv = build_fixture()
        with pytest.raises(ContractViolation):
            g.merge_expand(0, [], inv)       # T already expanded

    def test_expanding_inventory_node_rejected(self):
        inv = Inventory(["5"])
        g = SearchGraph()
        t = g.add_target("5", inv)
        with pytest.raises(ContractViolation):
            g.merge_expand(t, [], inv)

    def test_product_mismatch_rejected(self):
        inv = Inventory(["1"])
        g = SearchGraph()
        t = g.add_target("9", inv)
        with pytest.raises(ContractViolation):
            g.merge_expand(t, [Reaction("8", frozenset({"1"}), 1.0)], inv)

    def test_tree_mode_duplicates_reactants(self):
        inv = Inventory(["1"])
        g = SearchGraph(dedup=False)
        t = g.add_target("4", inv)
        g.merge_expand(t, [
            Reaction("4", frozenset({"1", "3"}), 1.0),
            Reaction("4", frozenset({"2"}), 1.0),
        ], inv)
        mols = [n.molecule for n in g.nodes if n.kind == "molecule"]
        assert sorted(mols) == ["1", "2", "3", "4"]
        for v in sorted(g.open_nodes()):
            if g.nodes[v].molecule == "3":
                g.merge_expand(v, [Reaction("3", frozenset({"1", "2"}), 1.0)], inv)
        mols = [n.molecule for n in g.nodes if n.kind == "molecule"]
        assert mols.count("1") == 2 and mols.count("2") == 2
        assert_consistent(g, exhaustive=True)


class TestCycles:
    def test_two_cycle_never_proves_itself(self):
        inv = Inventory(["Z"])
        g = SearchGraph()
        t = g.add_target("A", inv)
        g.merge_expand(t, [Reaction("A", frozenset({"B"}), 1.0)], inv)
        (b,) = [n.id for n in g.nodes if n.kind == "molecule" and n.molecule == "B"]
        g.merge_expand(b, [Reaction("B", frozenset({"A"}), 1.0)], inv)
        assert g.open_nodes() == set()
        assert not any(n.success for n in g.nodes)
        assert_consistent(g, exhaustive=True)

    def test_self_loop_reactant(self):
        inv = Inventory(["Z"])
        g = SearchGraph()
        t = g.add_target("A", inv)
        g.merge_expand(t, [Reaction("A", frozenset({"A", "Z"}), 1.0)], inv)
        assert not g.nodes[t].success
        assert_consistent(g, exhaustive=True)

    def test_cycle_with_escape_route(self):
        # A <- {B}; B <- {A} or {Z}: the escape proves B then A
        inv = Inventory(["Z"])
        g = SearchGraph()
        t = g.add_target("A", inv)
        g.merge_expand(t, [Reaction("A", frozenset({"B"}), 1.0)], inv)
        (b,) = [n.id for n in g.nodes if n.kind == "molecule" and n.molecule == "B"]
        g.merge_expand(b, [
            Reaction("B", frozenset({"A"}), 0.25),
            Reaction("B", frozenset({"Z"}), 5.0),
        ], inv)
        assert g.nodes[t].success and g.nodes[b].success
        assert_consistent(g, exhaustive=True)


class TestPropagation:
    def test_success_flip_down_is_rejected(self):
        g, inv = build_fixture()
        g.proof_cost[1] = 1.0                # R1 cannot be proved yet
        with pytest.raises(ContractViolation, match="rose"):
            g.propagate_update([1])

    def test_incremental_equals_recompute(self):
        g, inv = build_fixture()
        g.merge_expand(2, [Reaction("A", frozenset({"I1", "B"}), 0.5)], inv)
        inc_proof = [n.proof_cost for n in g.nodes]
        inc_hist = [n.hist_cost for n in g.nodes]
        assert inc_proof == fixpoint_proof_cost(g)
        g.recompute_proof_costs()
        g.recompute_hist_costs()
        assert [n.proof_cost for n in g.nodes] == inc_proof
        np.testing.assert_allclose([n.hist_cost for n in g.nodes], inc_hist)


def random_cyclic_table(rng, n_keys=8, costs=None):
    """Random reactions among n_keys molecules; each cost is uniform in
    [0.1, 2.0), or drawn from *costs* when it is given (to make ties)."""
    keys = [f"m{i}" for i in range(n_keys)]
    rxns = []
    for key in keys:
        for _ in range(int(rng.integers(0, 4))):
            size = int(rng.integers(1, 4))
            reactants = rng.choice(keys, size=size, replace=False)
            rxns.append(Reaction(key, frozenset(str(r) for r in reactants),
                                 float(rng.uniform(0.1, 2.0) if costs is None
                                       else rng.choice(costs))))
    return TableDomain(rxns), keys


class TestRandomizedAgainstReferences:
    def test_random_cyclic_tables(self):
        for dedup in (True, False):
            for trial in range(30):
                rng = np.random.default_rng(1000 + trial)
                dom, keys = random_cyclic_table(rng)
                inv = Inventory(rng.choice(keys, size=2, replace=False).tolist())
                g = SearchGraph(dedup=dedup)
                g.add_target(dom.canonical(keys[0]), inv)
                steps = 0
                while g.open_nodes() and steps < 40:
                    v = sorted(g.open_nodes())[int(rng.integers(len(g.open_nodes())))]
                    g.merge_expand(v, dom.expand(g.nodes[v].molecule, 5), inv)
                    assert_consistent(g, exhaustive=len(g.nodes) <= 14)
                    steps += 1
                    if steps == 3:           # mid-run second target
                        g.add_target(dom.canonical(keys[1]), inv)
                        assert_consistent(g)

    def test_random_additive_runs_in_both_modes(self):
        dom = AdditiveSplitDomain(seed=2)
        inv = Inventory.integer_range(3)
        for dedup in (True, False):
            rng = np.random.default_rng(7)
            g = SearchGraph(dedup=dedup)
            g.add_target(dom.canonical("11"), inv)
            steps = 0
            while g.open_nodes() and steps < 25:
                v = sorted(g.open_nodes())[int(rng.integers(len(g.open_nodes())))]
                g.merge_expand(v, dom.expand(g.nodes[v].molecule, 3), inv)
                assert_consistent(g)
                steps += 1
            if dedup:
                mols = [n.molecule for n in g.nodes if n.kind == "molecule"]
                assert len(mols) == len(set(mols))


class TestClosedFormCostToGo:
    """Every reactant in the integer domains is smaller than its product, so
    the cheapest proof cost V*(n) under top-k expansion is a dynamic program
    over n. An exhaustively expanded graph must reach it bit for bit."""

    @pytest.mark.parametrize("domain", [AdditiveSplitDomain, FactorSplitDomain])
    def test_exhaustive_graph_matches_v_star(self, domain):
        dom, inv, k, top = domain(seed=0), Inventory.integer_range(3), 6, 120
        v_star = [INF, 0.0, 0.0, 0.0]
        for n in range(4, top + 1):
            # the graph's summation order: cost plus the reactants' sum;
            # a dead end (a factor-split prime) has no proof
            v_star.append(min((r.cost + sum(v_star[int(m)] for m in r.reactants)
                               for r in dom.expand(str(n), k)), default=INF))
        for n in range(4, top + 1):
            g = SearchGraph(dedup=True)
            t = g.add_target(str(n), inv)
            while g.open_nodes():
                v = min(g.open_nodes())
                g.merge_expand(v, dom.expand(g.molecule[v], k), inv)
            assert g.proof_cost[t] == v_star[n], n


class TestInvariantChecker:
    def test_detects_duplicate_molecule(self):
        g, inv = build_fixture()
        g._new_molecule("A", inv)            # simulate a dedup bug
        with pytest.raises(ContractViolation, match="duplicated"):
            g.check_invariants()

    def test_detects_open_node_with_successors(self):
        g, inv = build_fixture()
        g.open[0] = True
        with pytest.raises(ContractViolation, match="successors"):
            g.check_invariants()

    def test_detects_expanded_inventory_node(self):
        g, inv = build_fixture()
        g.in_inventory[0] = True             # T has reactions
        with pytest.raises(ContractViolation, match="inventory node 0 was expanded"):
            g.check_invariants()

    def test_detects_stale_memory(self):
        g, inv = build_fixture()
        g.memory["Z"] = 0
        with pytest.raises(ContractViolation, match="memory out of sync"):
            g.check_invariants()

    def test_detects_stale_counters(self):
        g, inv = build_fixture()
        g._molecules += 1
        with pytest.raises(ContractViolation, match="counters"):
            g.check_invariants()

    def test_detects_missing_back_link_among_several(self):
        # T -> {A, B} and T -> {A, C}: A has two parent reactions; drop the
        # back-link of the second edge into A only
        inv = Inventory(["I"])
        g = SearchGraph()
        t = g.add_target("T", inv)
        g.merge_expand(t, [Reaction("T", frozenset({"A", "B"}), 1.0),
                           Reaction("T", frozenset({"A", "C"}), 1.5)], inv)
        g.check_invariants()
        (a,) = [n.id for n in g.nodes if n.kind == "molecule" and n.molecule == "A"]
        assert len(g.pred[a]) == 2
        dropped = g.pred[a].pop()
        with pytest.raises(ContractViolation, match=f"edge {dropped}->{a} missing back-link"):
            g.check_invariants()

    def test_detects_reaction_with_two_products_and_duplicates(self):
        g, inv = build_fixture()
        r = next(n.id for n in g.nodes if n.kind == "reaction")
        m = next(n.id for n in g.nodes if n.kind == "molecule" and not n.open
                 and r not in g.succ[n.id])
        g.succ[m].append(r)
        g.pred[r].append(m)                  # a well-linked second product
        with pytest.raises(ContractViolation, match="2 products"):
            g.check_invariants()
        g, inv = build_fixture()
        g._new_molecule("B", inv)
        with pytest.raises(ContractViolation, match="duplicated"):
            g.check_invariants()

    def test_detects_edge_between_molecules(self):
        g, inv = build_fixture()
        g.succ[0].append(2)                  # T -> A, linked both ways
        g.pred[2].append(0)
        with pytest.raises(ContractViolation, match="edge 0->2 is not bipartite"):
            g.check_invariants()

    def test_detects_reaction_without_reactants(self):
        g, inv = build_fixture()
        g.succ[4].clear()                    # R2 loses its only reactant
        with pytest.raises(ContractViolation, match="reaction node 4 has no reactants"):
            g.check_invariants()

    def test_nodes_view_is_read_only(self):
        g, inv = build_fixture()
        assert len(g.nodes) == 6 and g.nodes[-1] == g.nodes[5]
        assert g.nodes[0] == (0, "molecule", "T", 0.0, 0.0, 3.0, True, False, False)
        assert g.nodes[4].kind == "reaction" and g.nodes[4].reaction_cost == 3.0
        with pytest.raises(AttributeError):
            g.nodes[0].open = True
        with pytest.raises(IndexError):
            g.nodes[6]
        assert [n.id for n in g.nodes] == list(range(6))

    def test_open_nodes_returns_a_copy(self):
        g, inv = build_fixture()
        g.open_nodes().clear()
        assert g.open_nodes() == {2, 3}


class TestSnapshots:
    def finished_graph(self):
        g, inv = build_fixture()
        g.merge_expand(2, [Reaction("A", frozenset({"I1", "B"}), 0.5)], inv)
        g.merge_expand(3, [Reaction("B", frozenset({"I2"}), 2.0)], inv)
        return g

    def test_json_round_trip_is_exact(self):
        snap = self.finished_graph().snapshot()
        text = snapshot_to_json(snap)
        assert json.loads(text) == snap
        assert snapshot_to_json(json.loads(text)) == text

    def test_labels_serialized_with_string_keys(self):
        # a snapshot carries no labels; a dataset record fills them in
        g, inv = build_fixture()
        snap = g.snapshot()
        assert snap["labels"] is None
        record = TrainingExample(snap, {2: 1, 3: 0}).to_record()
        text = snapshot_to_json(record)
        assert json.loads(text)["labels"] == {"2": 1, "3": 0}

    def test_nonfinite_hist_rejected(self):
        g, inv = build_fixture()
        g.hist_cost[2] = INF
        with pytest.raises(ContractViolation):
            g.snapshot()


class TestExpansionDelta:
    """merge_expand returns exactly the molecules whose hist_cost fell, new
    ones included, each once, found here by diffing before and after."""

    def expand_and_diff(self, g, v, reactions, inv):
        before = [n.hist_cost for n in g.nodes]
        fell = g.merge_expand(v, reactions, inv)
        want = [n.id for n in g.nodes if n.kind == "molecule"
                and n.hist_cost < (before[n.id] if n.id < len(before) else INF)]
        assert sorted(fell) == want and len(set(fell)) == len(fell)
        # how many fell below the expansion's own reactants
        return len(set(fell) - {c for r in g.succ[v] for c in g.succ[r]})

    @pytest.mark.parametrize("dedup", [True, False])
    def test_random_cyclic_tables(self, dedup):
        deeper = 0
        for trial in range(30):
            rng = np.random.default_rng(4000 + trial)
            dom, keys = random_cyclic_table(rng)
            inv = Inventory(rng.choice(keys, size=2, replace=False).tolist())
            g = SearchGraph(dedup=dedup)
            g.add_target(dom.canonical(keys[0]), inv)
            for _ in range(40):
                if not g.open_nodes():
                    break
                v = sorted(g.open_nodes())[int(rng.integers(len(g.open_nodes())))]
                deeper += self.expand_and_diff(g, v, dom.expand(g.nodes[v].molecule, 5), inv)
        # random order re-expands cheaper paths into expanded molecules, so
        # some costs fall below the new reactants, through propagate_update
        assert deeper > 0 or not dedup

    @pytest.mark.parametrize("dedup", [True, False])
    def test_random_additive_runs(self, dedup):
        dom = AdditiveSplitDomain(seed=2)
        inv = Inventory.integer_range(3)
        rng = np.random.default_rng(11)
        g = SearchGraph(dedup=dedup)
        g.add_target(dom.canonical("40"), inv)
        for _ in range(30):
            v = sorted(g.open_nodes())[int(rng.integers(len(g.open_nodes())))]
            self.expand_and_diff(g, v, dom.expand(g.nodes[v].molecule, 4), inv)
