"""Planning loop over the AND-OR search graph.

Each iteration prices every open molecule node at its historical cost plus
the active cost model's heuristic h, selects the cheapest, expands it
through the oracle, and merges the reactions into the graph, which brings
proof and historical costs back to fixpoint. The loop stops when the budget
is spent, every target is proved, or nothing is left to expand. Batch
planning clusters targets by feature similarity and plans each batch in one
shared graph so common intermediates are expanded once.
"""

from __future__ import annotations

import gc
import heapq
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .costmodel import CostModel, ZeroCost
from .molspace import ExpansionOracle, Inventory, MoleculeId, features
from .searchgraph import INF, ContractViolation, NodeId, SearchGraph


MAX_FEATURE_VALUES = 2**25   # batch_plan's clustering features: 256 MiB of float64


class PlanningError(RuntimeError):
    """A planning call could not run to completion."""


@dataclass(frozen=True)
class PlanConfig:
    """Knobs of a planning run; batch fields only matter for batch_plan."""

    budget: int = 100
    k: int = 50
    mode: str = "graph"
    batch_size: int = 1
    clusters: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("budget", "k", "batch_size", "clusters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.mode not in ("graph", "tree"):
            raise ValueError(f"mode must be 'graph' or 'tree', got {self.mode!r}")


@dataclass
class RouteReaction:
    cost: float
    children: list["RouteTree"]


@dataclass
class RouteTree:
    """A concrete synthesis plan: every leaf is an inventory molecule and
    every internal node carries its chosen reaction."""

    molecule: MoleculeId
    reaction: RouteReaction | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "RouteTree":
        rxn = d.get("reaction")
        if rxn is None:
            return cls(d["molecule"], None)
        return cls(d["molecule"], RouteReaction(
            cost=rxn["cost"],
            children=[cls.from_dict(c) for c in rxn["children"]],
        ))


@dataclass(frozen=True)
class RouteStats:
    length: int
    cost: float


def route_stats(route: RouteTree) -> RouteStats:
    """Number of reactions and total reaction cost of a route."""
    if route.reaction is None:
        return RouteStats(0, 0.0)
    length, cost = 1, route.reaction.cost
    for child in route.reaction.children:
        sub = route_stats(child)
        length += sub.length
        cost += sub.cost
    return RouteStats(length, cost)


def validate_route(route: RouteTree, inventory: Inventory) -> None:
    """Raise if any leaf is not purchasable or any cost is not positive."""
    if route.reaction is None:
        if route.molecule not in inventory:
            raise ValueError(f"route leaf {route.molecule!r} is not in the inventory")
        return
    if not route.reaction.cost > 0.0:
        raise ValueError(f"route reaction at {route.molecule!r} has non-positive cost")
    if not route.reaction.children:
        raise ValueError(f"route reaction at {route.molecule!r} has no reactants")
    for child in route.reaction.children:
        validate_route(child, inventory)


@dataclass
class TargetResult:
    molecule: MoleculeId
    success: bool
    first_success_iteration: int | None
    route: RouteTree | None

    def to_dict(self) -> dict:
        return asdict(self)


class TraceRecord(NamedTuple):
    """Per-iteration event emitted by the planning loop."""

    iteration: int
    expanded: MoleculeId
    molecule_nodes: int
    reaction_nodes: int
    successes: tuple[bool, ...]


@dataclass
class PlanResult:
    targets: list[TargetResult]
    iterations: int
    molecule_nodes: int
    reaction_nodes: int
    mode: str
    trace: list[TraceRecord] = field(default_factory=list, repr=False)

    @property
    def all_success(self) -> bool:
        return all(t.success for t in self.targets)

    def to_dict(self) -> dict:
        return {
            "targets": [t.to_dict() for t in self.targets],
            "totals": {
                "iterations": self.iterations,
                "molecule_nodes": self.molecule_nodes,
                "reaction_nodes": self.reaction_nodes,
            },
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PlanResult":
        targets = [
            TargetResult(
                molecule=t["molecule"], success=t["success"],
                first_success_iteration=t["first_success_iteration"],
                route=None if t["route"] is None else RouteTree.from_dict(t["route"]),
            )
            for t in d["targets"]
        ]
        totals = d["totals"]
        return cls(targets=targets, iterations=totals["iterations"],
                   molecule_nodes=totals["molecule_nodes"],
                   reaction_nodes=totals["reaction_nodes"], mode=d["mode"])


def select_next(graph: SearchGraph, cost_model: CostModel) -> NodeId:
    """Open molecule node with the lowest price hist_cost + h, where the
    cost model supplies h; ties break toward the lowest node id. Calling
    this with no open nodes is a contract error."""
    h = cost_model.open_costs(graph)
    if not h:
        raise ContractViolation("select_next called with no open nodes")
    hist = graph.hist_cost
    return min(h, key=lambda v: (hist[v] + h[v], v))


def plan(targets: list[str], oracle: ExpansionOracle, inventory: Inventory,
         cfg: PlanConfig, cost_model: CostModel | None = None) -> PlanResult:
    """Run the planning loop for one (possibly multi-target) graph.

    Targets are canonicalized and deduplicated up front. The loop keeps
    running until every target is proved, so later targets still benefit
    from expansions made after earlier ones succeed. A cost model with a
    ``heuristic(molecule)`` prices through a lazy-deletion heap, keyed as in
    :func:`select_next`, that takes the open nodes an expansion made cheaper.
    """
    if not targets:
        raise ValueError("plan needs at least one target")
    cost_model = cost_model if cost_model is not None else ZeroCost()
    # a plan call makes no reference cycle, so the collector would only
    # rescan the graph's lists; it is paused until the call returns
    collecting = gc.isenabled()
    if collecting:
        gc.disable()
    try:
        canon = oracle.canonical_unique(targets)
        graph = SearchGraph(dedup=cfg.mode == "graph")
        tids = [graph.add_target(key, inventory) for key in canon]
        mols, hist, proof = graph.molecule, graph.hist_cost, graph.proof_cost
        first: dict[NodeId, int] = {t: 0 for t in tids if proof[t] < INF}
        iterations = 0
        trace: list[TraceRecord] = []
        heuristic = getattr(cost_model, "heuristic", None)
        price = lambda v: hist[v] + heuristic(mols[v])
        heap = [(price(v), v) for v in graph.open_nodes()] if heuristic else []
        heapq.heapify(heap)
        while not graph.all_targets_successful() and iterations < cfg.budget:
            while heap and not (graph.open[heap[0][1]] and heap[0][0] == price(heap[0][1])):
                heapq.heappop(heap)
            if not (heap if heuristic else any(graph.open)):
                break
            v = heapq.heappop(heap)[1] if heuristic else select_next(graph, cost_model)
            molecule = mols[v]
            try:
                reactions = oracle.expand(molecule, cfg.k)
            except Exception as exc:
                raise PlanningError(f"oracle failed expanding {molecule!r}: {exc}") from exc
            for m in graph.merge_expand(v, reactions, inventory):
                if heuristic and graph.open[m]:
                    heapq.heappush(heap, (price(m), m))
            iterations += 1
            for t in tids:
                if t not in first and proof[t] < INF:
                    first[t] = iterations
            trace.append(TraceRecord(
                iteration=iterations, expanded=molecule,
                molecule_nodes=graph.molecule_count(),
                reaction_nodes=graph.reaction_count(),
                successes=tuple(proof[t] < INF for t in tids),
            ))
        graph.check_invariants()
        results = []
        for key, t in zip(canon, tids):
            success = proof[t] < INF
            results.append(TargetResult(
                molecule=key, success=success,
                first_success_iteration=first.get(t),
                route=extract_route(graph, t) if success else None,
            ))
        return PlanResult(
            targets=results, iterations=iterations,
            molecule_nodes=graph.molecule_count(),
            reaction_nodes=graph.reaction_count(),
            mode=cfg.mode, trace=trace,
        )
    finally:
        if collecting:
            gc.enable()


def extract_route(graph: SearchGraph, target: NodeId) -> RouteTree:
    """Cheapest proof tree below a successful molecule node.

    At each molecule the successful reaction with the lowest proof cost is
    chosen; positive costs make those choices strictly decreasing, so the
    descent cannot revisit the current path. The path set is still tracked
    and any candidate that would close a cycle is skipped.
    """
    if graph.molecule[target] is None or not graph.proof_cost[target] < INF:
        raise PlanningError(f"node {target} is not a successful molecule node")
    return _route_below(graph, target, frozenset())


def _route_below(graph: SearchGraph, nid: NodeId, path: frozenset[NodeId]) -> RouteTree:
    if graph.in_inventory[nid]:
        return RouteTree(graph.molecule[nid], None)
    extended = path | {nid}
    proof = graph.proof_cost
    for _, rid in sorted((proof[r], r) for r in graph.succ[nid] if proof[r] < INF):
        children = graph.succ[rid]
        if any(c in extended for c in children):
            continue
        return RouteTree(graph.molecule[nid], RouteReaction(
            cost=graph.reaction_cost[rid],
            children=[_route_below(graph, c, extended) for c in children],
        ))
    raise ContractViolation(f"no acyclic successful reaction under molecule node {nid}")


def kmeans(points: np.ndarray, k: int, seed: int = 0,
           max_iterations: int = 100) -> np.ndarray:
    """Lloyd's algorithm on real vectors; returns a cluster id per point.

    Initial centroids are distinct points sampled with the seed (falling
    back to repeats only when fewer distinct points exist than clusters);
    assignment ties and empty clusters resolve deterministically.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"kmeans expects a 2-D point array, got shape {pts.shape}")
    n = pts.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"kmeans needs 1 <= k <= {n} clusters, got {k}")
    rng = np.random.default_rng(seed)
    distinct = np.unique(pts, axis=0)
    if len(distinct) >= k:
        centroids = distinct[rng.choice(len(distinct), size=k, replace=False)]
    else:
        extra = rng.choice(len(distinct), size=k - len(distinct), replace=True)
        centroids = np.concatenate([distinct, distinct[extra]])
    assign: np.ndarray | None = None
    for _ in range(max_iterations):
        # one cluster at a time keeps memory at N x dim, not N x k x dim
        d2 = np.empty((n, k))
        for c in range(k):
            d2[:, c] = ((pts - centroids[c]) ** 2).sum(axis=1)
        new_assign = d2.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = pts[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return assign


def batch_plan(targets: list[str], oracle: ExpansionOracle, inventory: Inventory,
               cfg: PlanConfig, cost_model: CostModel | None = None,
               bits: int = 2048) -> list[PlanResult]:
    """Cluster targets, slice each cluster into batches, and plan every
    batch in one shared graph with budget scaled by the batch's size."""
    if not targets:
        raise ValueError("batch_plan needs at least one target")
    canon = oracle.canonical_unique(targets)
    if cfg.clusters > len(canon):
        raise ValueError(
            f"cannot form {cfg.clusters} clusters from {len(canon)} targets"
        )
    if len(canon) * bits > MAX_FEATURE_VALUES:
        raise ValueError(f"{len(canon)} targets x {bits} feature bits exceed "
                         f"{MAX_FEATURE_VALUES} feature values")
    feats = np.stack([features(t, bits) for t in canon])
    assign = kmeans(feats, cfg.clusters, cfg.seed)
    results = []
    for cluster in range(cfg.clusters):
        members = [t for t, a in zip(canon, assign) if a == cluster]
        for start in range(0, len(members), cfg.batch_size):
            chunk = members[start:start + cfg.batch_size]
            chunk_cfg = replace(cfg, budget=cfg.budget * len(chunk))
            results.append(plan(chunk, oracle, inventory, chunk_cfg, cost_model))
    return results
