"""Cost models that supply the heuristic h of open molecule nodes.

The planner prices an open node as its historical cost plus h. Each
variant supplies only h: zero for uninformed (uniform-cost) search, a small
feature regressor predicting remaining route cost, or the negative log of
the policy network's normalized score.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics as nm
from . import policygnn
from .molspace import features
from .numerics import AdamState, Tensor, add_grad, zero_grads
from .searchgraph import NodeId, SearchGraph

VARIANTS = ("zero", "value_net", "gnn")


class CostModel:
    """Interface: the heuristic h of each open molecule node. The planner
    adds the node's historical cost; the lower sum expands first. A model whose
    h depends on the molecule alone has ``heuristic(molecule)``, which
    select_next prices through a heap; any other is priced by open_costs."""

    def open_costs(self, graph: SearchGraph) -> dict[NodeId, float]:
        """h for every open molecule node of the graph."""
        raise NotImplementedError


class ZeroCost(CostModel):
    """h = 0: the planner's price is the historical cost alone, i.e.
    uniform-cost expansion."""

    def heuristic(self, molecule: str) -> float:
        return 0.0

    def open_costs(self, graph: SearchGraph) -> dict[NodeId, float]:
        return dict.fromkeys(graph.open_nodes(), 0.0)


class ValueNetCost(CostModel):
    """Two-layer regressor on molecule features; h is its prediction of the
    remaining route cost. Predictions are memoized per molecule, since the
    weights never change after construction."""

    def __init__(self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
                 b2: np.ndarray, bits: int):
        self.w1, self.b1, self.w2, self.b2 = (np.asarray(a, dtype=np.float64)
                                              for a in (w1, b1, w2, b2))
        self.bits = bits
        self._heuristic: dict[str, float] = {}

    @classmethod
    def zeros(cls, bits: int = 2048, hidden: int = 64) -> "ValueNetCost":
        return cls(np.zeros((bits, hidden)), np.zeros(hidden),
                   np.zeros((hidden, 1)), np.zeros(1), bits)

    def heuristic(self, molecule: str) -> float:
        cached = self._heuristic.get(molecule)
        if cached is None:
            x = features(molecule, self.bits)
            h = np.maximum(x @ self.w1 + self.b1, 0.0)
            cached = self._heuristic[molecule] = (h @ self.w2 + self.b2).item()
        return cached

    def open_costs(self, graph: SearchGraph) -> dict[NodeId, float]:
        return {v: self.heuristic(graph.molecule[v]) for v in graph.open_nodes()}

    def save(self, path) -> None:
        hyper = {"variant": "value_net", "bits": self.bits,
                 "hidden": int(self.w1.shape[1])}
        nm.save_weights(path, [("w1", self.w1), ("b1", self.b1),
                               ("w2", self.w2), ("b2", self.b2)], hyper)

    @classmethod
    def load(cls, path) -> "ValueNetCost":
        arrays, hyper = nm.load_weights(path)
        if hyper.get("variant") != "value_net":
            raise ValueError(f"{path}: not a value-net checkpoint")
        bits, hidden = hyper.get("bits"), hyper.get("hidden")
        if not (type(bits) is int and bits >= 8 and type(hidden) is int and hidden >= 1):
            raise ValueError(f"{path}: value-net header needs integer bits >= 8 and "
                             f"hidden >= 1, got {bits!r} and {hidden!r}")
        shapes = {"w1": (bits, hidden), "b1": (hidden,), "w2": (hidden, 1), "b2": (1,)}
        return cls(*nm.expect_arrays(path, arrays, shapes), bits)


def remaining_cost_pairs(routes) -> list[tuple[str, float]]:
    """(molecule, remaining synthesis cost) for every node of each route;
    leaves cost nothing, internal nodes cost their chosen subtree."""
    pairs: list[tuple[str, float]] = []

    def walk(tree) -> float:
        if tree.reaction is None:
            pairs.append((tree.molecule, 0.0))
            return 0.0
        total = tree.reaction.cost + sum(walk(c) for c in tree.reaction.children)
        pairs.append((tree.molecule, total))
        return total

    for route in routes:
        walk(route)
    return pairs


def value_net_loss(x: np.ndarray, y: np.ndarray, params) -> Tensor:
    """The regressor's mean squared error on (x, y). Its backward adds the
    gradients of (w1, b1, w2, b2) in a reverse-mode sweep's operation
    order, so a fit keeps its bits."""
    w1, b1, w2, b2 = params
    h = x @ w1.data + b1.data
    a = h * (h > 0.0)
    err = a @ w2.data + b2.data - y

    def step() -> None:
        g = err * (1.0 / err.size)
        g = g + g
        add_grad(b2, g.sum(axis=0))
        add_grad(w2, a.T @ g)
        g_h = (g @ w2.data.T) * (h > 0.0)
        add_grad(b1, g_h.sum(axis=0))
        add_grad(w1, x.T @ g_h)

    return Tensor((err * err).sum() * (1.0 / err.size), step)


def train_value_net(routes, bits: int = 2048, hidden: int = 64,
                    epochs: int = 200, lr: float = 1e-2,
                    seed: int = 0) -> ValueNetCost:
    """Fit the regressor on remaining-cost pairs harvested from routes."""
    pairs = remaining_cost_pairs(routes)
    if not pairs:
        raise ValueError("no routes to train the value net on")
    x = np.stack([features(m, bits) for m, _ in pairs])
    y = np.array([[c] for _, c in pairs])
    rng = np.random.default_rng(seed)
    params = [Tensor(nm.kaiming_uniform(rng, bits, hidden)), Tensor(np.zeros(hidden)),
              Tensor(nm.kaiming_uniform(rng, hidden, 1)), Tensor(np.zeros(1))]
    adam = AdamState(params, lr=lr)
    for _ in range(epochs):
        zero_grads(params)
        value_net_loss(x, y, params).backward()
        adam.step()
    return ValueNetCost(*(p.data for p in params), bits)


class GnnCost(CostModel):
    """Policy-network guidance: h is -lambda * ln(normalized score), with
    scores computed once per call for all open nodes together.

    The log of the softmax is taken as logit - logsumexp(logits), so a score
    that underflows to 0.0 still gets a finite price. One inference memo
    lives as long as the model: fingerprint rows are hashed once per
    molecule, like the value net's predictions, and the network's first
    layer reuses the rows of the previous snapshot that did not change.
    """

    def __init__(self, params: policygnn.GnnParameters, lam: float = 1.0):
        if not 0.0 < lam < math.inf:
            raise ValueError(f"guidance weight lambda must be finite and > 0, got {lam}")
        self.params = params
        self.lam = lam
        self._memo = policygnn.InferenceMemo()

    def open_costs(self, graph: SearchGraph) -> dict[NodeId, float]:
        logits = policygnn.score(graph.snapshot(), self.params, self._memo).logit
        shifted = np.array(list(logits.values())) - max(logits.values())
        log_norm = shifted - math.log(np.exp(shifted).sum())
        return dict(zip(logits, (-self.lam * log_norm).tolist()))

    @classmethod
    def load(cls, path, lam: float = 1.0) -> "GnnCost":
        return cls(policygnn.GnnParameters.load(path), lam)


def make_cost_model(variant: str, checkpoint=None, lam: float = 1.0) -> CostModel:
    """Build a cost model from a CLI-style variant name and checkpoint."""
    if variant == "zero":
        return ZeroCost()
    if variant == "value_net":
        if checkpoint is None:
            raise ValueError("value_net cost model needs a checkpoint file")
        return ValueNetCost.load(checkpoint)
    if variant == "gnn":
        if checkpoint is None:
            raise ValueError("gnn cost model needs a checkpoint file")
        return GnnCost.load(checkpoint, lam)
    raise ValueError(f"unknown cost model variant {variant!r} (expected one of {VARIANTS})")
