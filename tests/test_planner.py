"""Planning-loop tests.

Fixture graphs are small enough that expansion order, node counts, and
route choices were worked out by hand; domain reachability is checked
against an independent memoized recursion.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from retrograph import planner
from retrograph.costmodel import CostModel, ValueNetCost, ZeroCost
from retrograph.molspace import (
    AdditiveSplitDomain,
    ExpansionOracle,
    FactorSplitDomain,
    Inventory,
    Reaction,
    TableDomain,
)
from retrograph.planner import (
    PlanConfig,
    PlanResult,
    PlanningError,
    RouteReaction,
    RouteTree,
    batch_plan,
    extract_route,
    kmeans,
    plan,
    route_stats,
    select_next,
    validate_route,
)
from retrograph.searchgraph import ContractViolation, SearchGraph
from test_searchgraph import random_cyclic_table


def table(*rows):
    """rows of (product, reactants, cost) -> TableDomain"""
    return TableDomain([Reaction(p, frozenset(rs), c) for p, rs, c in rows])


class TestPlanConfig:
    def test_validation(self):
        for kwargs in (dict(budget=0), dict(k=0), dict(mode="dfs"),
                       dict(batch_size=0), dict(clusters=0)):
            with pytest.raises(ValueError):
                PlanConfig(**kwargs)

    def test_defaults(self):
        cfg = PlanConfig()
        assert cfg.budget == 100 and cfg.k == 50 and cfg.mode == "graph"


class TestPlanBasics:
    def test_empty_target_list_rejected(self):
        with pytest.raises(ValueError):
            plan([], AdditiveSplitDomain(), Inventory.integer_range(3), PlanConfig())

    def test_inventory_target_needs_no_iterations(self):
        dom = AdditiveSplitDomain(seed=0)
        res = plan(["2"], dom, Inventory.integer_range(3), PlanConfig(budget=5))
        assert res.all_success and res.iterations == 0
        t = res.targets[0]
        assert t.first_success_iteration == 0
        assert t.route is not None and t.route.reaction is None
        assert t.route.molecule == "2"

    def test_one_step_solve(self):
        dom = AdditiveSplitDomain(seed=0)
        inv = Inventory.integer_range(3)
        res = plan(["4"], dom, inv, PlanConfig(budget=5, k=10))
        assert res.all_success and res.iterations == 1
        t = res.targets[0]
        assert t.first_success_iteration == 1
        validate_route(t.route, inv)
        # cheapest proof is the cheapest of the two candidate splits of 4
        want = min(r.cost for r in dom.reactions("4"))
        assert route_stats(t.route).cost == pytest.approx(want)

    def test_budget_exhaustion(self):
        dom = AdditiveSplitDomain(seed=0)
        res = plan(["40"], dom, Inventory.integer_range(3),
                   PlanConfig(budget=2, k=3))
        assert not res.all_success and res.iterations == 2
        t = res.targets[0]
        assert t.first_success_iteration is None and t.route is None

    def test_dead_end_stops_early(self):
        dom = FactorSplitDomain(seed=0)
        res = plan(["97"], dom, Inventory.integer_range(3),
                   PlanConfig(budget=50, k=10))
        assert not res.all_success
        assert res.iterations == 1          # expand 97, then nothing is open

    def test_duplicate_and_noncanonical_targets_merge(self):
        dom = AdditiveSplitDomain(seed=0)
        res = plan(["4", "04", " 4 "], dom, Inventory.integer_range(3),
                   PlanConfig(budget=5))
        assert len(res.targets) == 1 and res.targets[0].molecule == "4"

    def test_oracle_failure_wrapped(self):
        class Broken(ExpansionOracle):
            def canonical(self, raw):
                return raw.strip()

            def candidates(self, product):
                raise RuntimeError("boom")

        with pytest.raises(PlanningError, match="'T'"):
            plan(["T"], Broken(), Inventory(["I"]), PlanConfig(budget=3))

    def test_trace_records_every_iteration(self):
        dom = AdditiveSplitDomain(seed=0)
        res = plan(["6"], dom, Inventory.integer_range(3), PlanConfig(budget=10, k=5))
        assert [r.iteration for r in res.trace] == list(range(1, res.iterations + 1))


@pytest.fixture()
def collector(request):
    """Sets the cyclic collector to the test's parameter (on by default)
    and restores the state it found."""
    was = gc.isenabled()
    (gc.enable if getattr(request, "param", True) else gc.disable)()
    yield
    (gc.enable if was else gc.disable)()


class TestCollector:
    @pytest.mark.parametrize("collector", [False], indirect=True)
    def test_solved_plan_leaves_nothing_to_collect(self, collector):
        # a reference cycle made during plan would be freed only here
        dom, inv = AdditiveSplitDomain(seed=0), Inventory.integer_range(3)
        gc.collect()
        res = plan(["101"], dom, inv, PlanConfig())
        assert res.all_success and res.iterations > 10
        assert gc.collect() == 0

    @pytest.mark.parametrize("collector", [True, False], indirect=True)
    def test_plan_leaves_the_collector_as_it_found_it(self, collector):
        state, seen = gc.isenabled(), []

        class Watched(AdditiveSplitDomain):
            def candidates(self, product):
                seen.append(gc.isenabled())
                if product == "8":
                    raise RuntimeError("boom")
                return super().candidates(product)

        inv = Inventory.integer_range(3)
        assert plan(["7"], Watched(seed=0), inv, PlanConfig(budget=20, k=5)).all_success
        assert gc.isenabled() == state
        with pytest.raises(PlanningError, match="'8'"):
            plan(["8"], Watched(seed=0), inv, PlanConfig(budget=20, k=5))
        assert gc.isenabled() == state
        assert seen and not any(seen)      # paused while the oracle ran


class TestSelectionOrder:
    def test_cheapest_open_node_goes_first(self):
        dom = table(
            ("T", {"A"}, 1.0),
            ("T", {"B"}, 0.5),
            ("A", {"I"}, 1.0),
            ("B", {"I"}, 1.0),
        )
        inv = Inventory(["I"])
        res = plan(["T"], dom, inv, PlanConfig(budget=10))
        # after expanding T, B sits at hist 0.5 and A at 1.0
        assert [r.expanded for r in res.trace] == ["T", "B"]
        assert res.all_success and res.iterations == 2

    def test_tie_breaks_toward_lowest_node_id(self):
        dom = table(
            ("T", {"A", "B"}, 1.0),
            ("A", {"I"}, 1.0),
            ("B", {"I"}, 1.0),
        )
        inv = Inventory(["I"])
        res = plan(["T"], dom, inv, PlanConfig(budget=10))
        # A and B tie at hist 1.0; A was interned first (sorted reactants)
        assert [r.expanded for r in res.trace] == ["T", "A", "B"]

    def test_select_next_adds_hist_cost_to_h(self):
        class Stub(ZeroCost):
            """h by molecule, in the reverse of the hist_cost order"""

            def __init__(self, h):
                self.h = h

            def open_costs(self, graph):
                return {v: self.h[graph.nodes[v].molecule] for v in graph.open_nodes()}

        inv = Inventory(["I"])
        g = SearchGraph()
        t = g.add_target("T", inv)
        g.merge_expand(t, [Reaction("T", ("A",), 1.0), Reaction("T", ("B",), 2.0),
                           Reaction("T", ("C",), 3.0)], inv)
        ids = {g.nodes[v].molecule: v for v in g.open_nodes()}
        assert [g.nodes[ids[m]].hist_cost for m in "ABC"] == [1.0, 2.0, 3.0]
        # prices 4.0, 3.0 and 3.5: B is cheapest though its h is not the least
        assert select_next(g, Stub({"A": 3.0, "B": 1.0, "C": 0.5})) == ids["B"]
        # A and B both price 3.0; the tie goes to the lower id
        assert ids["A"] < ids["B"]
        assert select_next(g, Stub({"A": 2.0, "B": 1.0, "C": 0.5})) == ids["A"]

    def test_select_next_contract(self):
        g = SearchGraph()
        g.add_target("I", Inventory(["I"]))
        with pytest.raises(ContractViolation):
            select_next(g, ZeroCost())


class TestGraphVersusTree:
    DOM = (
        ("T", {"A", "B"}, 1.0),
        ("A", {"C"}, 1.0),
        ("B", {"C"}, 1.0),
        ("C", {"I"}, 1.0),
    )

    def test_shared_intermediate_counts(self):
        dom = table(*self.DOM)
        inv = Inventory(["I"])
        g = plan(["T"], dom, inv, PlanConfig(budget=20, mode="graph"))
        t = plan(["T"], dom, inv, PlanConfig(budget=20, mode="tree"))
        assert g.all_success and t.all_success
        # hand count: graph expands T,A,B,C; tree re-expands C under B
        assert g.iterations == 4 and t.iterations == 5
        assert g.molecule_nodes == 5        # T A B C I
        assert t.molecule_nodes == 7        # C and I duplicated
        assert g.reaction_nodes == 4 and t.reaction_nodes == 5

    def test_tree_routes_still_validate(self):
        dom = table(*self.DOM)
        inv = Inventory(["I"])
        t = plan(["T"], dom, inv, PlanConfig(budget=20, mode="tree"))
        validate_route(t.targets[0].route, inv)
        # the route tree spells out C's synthesis under both A and B
        assert route_stats(t.targets[0].route).length == 5


class TestMultiTarget:
    def test_later_target_keeps_loop_alive(self):
        dom = table(
            ("T", {"X"}, 5.0),
            ("T", {"Y"}, 1.0),
            ("X", {"I"}, 0.1),
            ("Y", {"I"}, 0.2),
        )
        inv = Inventory(["I"])
        res = plan(["T", "X", "Y"], dom, inv, PlanConfig(budget=10))
        assert res.all_success
        by_key = {t.molecule: t for t in res.targets}
        # with X and Y both proved, T's cheapest proof goes through Y (1.2)
        assert route_stats(by_key["T"].route).cost == pytest.approx(1.2)
        assert route_stats(by_key["X"].route).cost == pytest.approx(0.1)
        assert by_key["T"].first_success_iteration <= res.iterations

    def test_inventory_target_reports_iteration_zero(self):
        dom = AdditiveSplitDomain(seed=0)
        res = plan(["2", "5"], dom, Inventory.integer_range(3),
                   PlanConfig(budget=10, k=5))
        by_key = {t.molecule: t for t in res.targets}
        assert by_key["2"].first_success_iteration == 0
        assert by_key["5"].first_success_iteration >= 1


class TestRouteExtraction:
    def test_requires_successful_molecule(self):
        g = SearchGraph()
        g.add_target("9", Inventory(["1"]))
        with pytest.raises(PlanningError):
            extract_route(g, 0)

    def test_cycle_with_escape_takes_escape(self):
        inv = Inventory(["Z"])
        g = SearchGraph()
        a = g.add_target("A", inv)
        g.merge_expand(a, [Reaction("A", frozenset({"B"}), 1.0)], inv)
        (b,) = [n.id for n in g.nodes
                if n.kind == "molecule" and n.molecule == "B"]
        g.merge_expand(b, [
            Reaction("B", frozenset({"A"}), 0.25),
            Reaction("B", frozenset({"Z"}), 5.0),
        ], inv)
        route = extract_route(g, a)
        validate_route(route, inv)
        # chain A -> B -> Z, total 6.0; the cheap back-edge is self-referential
        stats = route_stats(route)
        assert stats.length == 2
        assert stats.cost == pytest.approx(6.0)

    def test_derivation_costs_on_fixture(self):
        # proof costs: X 0.1 + 5.0, Y 0.2 + 1.0; T takes the cheaper
        dom = table(
            ("T", {"X"}, 5.0),
            ("T", {"Y"}, 1.0),
            ("X", {"I"}, 0.1),
            ("Y", {"I"}, 0.2),
        )
        inv = Inventory(["I"])
        g = SearchGraph()
        t = g.add_target("T", inv)
        g.merge_expand(t, dom.expand("T", 5), inv)
        for key in ("X", "Y"):
            (nid,) = [n.id for n in g.nodes
                      if n.kind == "molecule" and n.molecule == key]
            g.merge_expand(nid, dom.expand(key, 5), inv)
        assert g.nodes[t].proof_cost == pytest.approx(1.2)
        route = extract_route(g, t)
        assert route.reaction.children[0].molecule == "Y"


class TestValidateRoute:
    def test_leaf_not_purchasable(self):
        with pytest.raises(ValueError, match="leaf"):
            validate_route(RouteTree("Q"), Inventory(["I"]))

    def test_nonpositive_cost(self):
        bad = RouteTree("T", RouteReaction(0.0, [RouteTree("I")]))
        with pytest.raises(ValueError, match="non-positive"):
            validate_route(bad, Inventory(["I"]))

    def test_empty_children(self):
        bad = RouteTree("T", RouteReaction(1.0, []))
        with pytest.raises(ValueError, match="no reactants"):
            validate_route(bad, Inventory(["I"]))


REACHABLE_CACHE: dict = {}


def factor_reachable(n: int, upper: int) -> bool:
    """Independent recursion: n is makeable iff it is stock or some divisor
    pair is makeable on both sides."""
    key = (n, upper)
    if key in REACHABLE_CACHE:
        return REACHABLE_CACHE[key]
    if n <= upper:
        REACHABLE_CACHE[key] = True
        return True
    REACHABLE_CACHE[key] = False
    for a in range(2, math.isqrt(n) + 1):
        if n % a == 0 and factor_reachable(a, upper) and factor_reachable(n // a, upper):
            REACHABLE_CACHE[key] = True
            break
    return REACHABLE_CACHE[key]


class TestAgainstReachabilityOracle:
    def test_factor_split_success_matches_recursion(self):
        dom = FactorSplitDomain(seed=0)
        inv = Inventory.integer_range(4)
        cfg = PlanConfig(budget=200, k=50)
        for n in range(2, 61):
            res = plan([str(n)], dom, inv, cfg)
            assert res.all_success == factor_reachable(n, 4), f"n={n}"
            if res.all_success:
                validate_route(res.targets[0].route, inv)

    def test_additive_split_always_reaches(self):
        dom = AdditiveSplitDomain(seed=3)
        inv = Inventory.integer_range(3)
        for n in (4, 9, 17, 26):
            res = plan([str(n)], dom, inv, PlanConfig(budget=200, k=50))
            assert res.all_success, f"n={n}"
            validate_route(res.targets[0].route, inv)


class TestKmeans:
    def test_two_obvious_clusters(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        assign = kmeans(pts, 2, seed=0)
        assert assign[0] == assign[1]
        assert assign[2] == assign[3]
        assert assign[0] != assign[2]

    def test_k_equals_one_and_n(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        assert len(set(kmeans(pts, 1, seed=0).tolist())) == 1
        assert len(set(kmeans(pts, 3, seed=0).tolist())) == 3

    def test_fewer_distinct_points_than_clusters(self):
        pts = np.array([[0.0], [0.0], [1.0]])
        assign = kmeans(pts, 3, seed=1)
        assert assign.shape == (3,)
        assert set(assign.tolist()) <= {0, 1, 2}
        assert assign[0] == assign[1]        # identical points, one cluster

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 4))
        np.testing.assert_array_equal(kmeans(pts, 5, seed=9), kmeans(pts, 5, seed=9))

    def test_distances_one_cluster_at_a_time(self):
        # no N x k x bits array: peak memory stays a few copies of the points
        n, bits, k = 200, 2048, 8
        pts = np.random.default_rng(3).integers(0, 2, size=(n, bits)).astype(np.float64)
        tracemalloc.start()
        try:
            kmeans(pts, k, seed=0, max_iterations=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * bits * 8 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3,)), 1)
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 0)
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 4)


class TestBatchPlan:
    def test_degenerate_batches_match_single_plans(self):
        dom = AdditiveSplitDomain(seed=0)
        inv = Inventory.integer_range(3)
        cfg = PlanConfig(budget=30, k=5, batch_size=1, clusters=1)
        targets = ["7", "9", "12"]
        batched = batch_plan(targets, dom, inv, cfg)
        singles = {plan([t], dom, inv, cfg).targets[0].molecule:
                   plan([t], dom, inv, cfg) for t in targets}
        assert len(batched) == 3
        for res in batched:
            assert len(res.targets) == 1
            want = singles[res.targets[0].molecule]
            assert res.to_dict() == want.to_dict()

    def test_one_shared_batch(self):
        dom = AdditiveSplitDomain(seed=0)
        inv = Inventory.integer_range(3)
        cfg = PlanConfig(budget=30, k=5, batch_size=3, clusters=1)
        (res,) = batch_plan(["7", "9", "12"], dom, inv, cfg)
        assert {t.molecule for t in res.targets} == {"7", "9", "12"}
        assert res.all_success

    def test_too_many_clusters_rejected(self):
        dom = AdditiveSplitDomain(seed=0)
        with pytest.raises(ValueError):
            batch_plan(["7", "9"], dom, Inventory.integer_range(3),
                       PlanConfig(clusters=3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            batch_plan([], AdditiveSplitDomain(), Inventory.integer_range(3),
                       PlanConfig())

    def test_feature_size_bounded_before_allocating(self, monkeypatch):
        monkeypatch.setattr(planner, "features", None)   # never reached
        with pytest.raises(ValueError, match="2 targets x 16777217 feature bits"):
            batch_plan(["7", "9"], AdditiveSplitDomain(), Inventory.integer_range(3),
                       PlanConfig(), bits=2**24 + 1)


class TestResultSerialization:
    def test_round_trip(self):
        dom = AdditiveSplitDomain(seed=0)
        res = plan(["6"], dom, Inventory.integer_range(3),
                   PlanConfig(budget=10, k=5))
        back = PlanResult.from_dict(res.to_dict())
        assert back.to_dict() == res.to_dict()
        assert back.all_success == res.all_success


class ScanOnly(CostModel):
    """Another model's h without ``heuristic``, so that plan prices every
    open node through select_next on every iteration."""

    def __init__(self, model):
        self.model = model

    def open_costs(self, graph):
        return self.model.open_costs(graph)


def expansions(monkeypatch, run):
    """(node ids that merge_expand expanded, in order; run's result)."""
    order = []
    merge = SearchGraph.merge_expand

    def spy(graph, v, reactions, inventory):
        order.append(v)
        return merge(graph, v, reactions, inventory)

    with monkeypatch.context() as patch:
        patch.setattr(SearchGraph, "merge_expand", spy)
        result = run()
    return order, result


def random_value_net(seed, bits=16, hidden=4):
    rng = np.random.default_rng(seed)
    return ValueNetCost(rng.normal(size=(bits, hidden)), rng.normal(size=hidden),
                        rng.normal(size=(hidden, 1)), rng.normal(size=1), bits)


class TestHeapEqualsScan:
    """plan's heap of prices must expand exactly the nodes that a full scan
    through select_next expands, ties included."""

    def assert_same_run(self, monkeypatch, run):
        heap_order, heap_result = expansions(monkeypatch, lambda: run(False))
        scan_order, scan_result = expansions(monkeypatch, lambda: run(True))
        assert heap_order == scan_order
        results = lambda r: r if isinstance(r, list) else [r]
        for a, b in zip(results(heap_result), results(scan_result), strict=True):
            assert a.to_dict() == b.to_dict() and a.trace == b.trace
        return len(heap_order)

    @pytest.mark.parametrize("mode", ["graph", "tree"])
    @pytest.mark.parametrize("costs", [None, (0.5, 1.0)], ids=["spread", "ties"])
    def test_random_cyclic_tables(self, monkeypatch, mode, costs):
        compared = 0
        for trial in range(15):
            rng = np.random.default_rng(3000 + trial)
            dom, keys = random_cyclic_table(rng, costs=costs)
            inv = Inventory(rng.choice(keys, size=2, replace=False).tolist())
            cfg = PlanConfig(budget=30, k=5, mode=mode)
            for model in (ZeroCost(), random_value_net(trial)):
                compared += self.assert_same_run(monkeypatch, lambda scan: plan(
                    keys[:2], dom, inv, cfg, ScanOnly(model) if scan else model))
        assert compared > 100

    @pytest.mark.parametrize("mode", ["graph", "tree"])
    def test_additive_plan_and_batch_plan(self, monkeypatch, mode):
        dom, inv = AdditiveSplitDomain(seed=1), Inventory.integer_range(3)
        targets = [str(n) for n in range(61, 100, 6)]
        for model in (ZeroCost(), random_value_net(7)):
            for target in targets[:3]:
                assert self.assert_same_run(monkeypatch, lambda scan: plan(
                    [target], dom, inv, PlanConfig(budget=40, k=8, mode=mode),
                    ScanOnly(model) if scan else model)) > 0
            assert self.assert_same_run(monkeypatch, lambda scan: batch_plan(
                targets, dom, inv,
                PlanConfig(budget=15, k=6, mode=mode, batch_size=3, clusters=2),
                ScanOnly(model) if scan else model, bits=64)) > 0
