"""Deduplicated AND-OR search graph over molecules and reactions.

Molecule nodes are OR nodes (any successful reaction proves them, as does
inventory membership); reaction nodes are AND nodes (every reactant must be
proved). A global molecule memory interns each molecule key into exactly one
node, so intermediates discovered under one target are shared by every other
path that needs them. Disabling the memory (``dedup=False``) reproduces the
tree-search baseline where every reactant occurrence gets a fresh node.

Proof cost is the cheapest proof of a node from the inventory: 0 for an
inventory molecule, a reaction's cost plus its reactants' proof costs, the
minimum over an expanded molecule's reactions, and INF while unproved. It is
the greatest fixpoint of that recursion, reached from INF downward, so cycles
introduced by sharing can never prove themselves; a node succeeds exactly
when its proof cost is finite. Historical cost of a node is the cheapest
directed path from any target, summing reaction costs along the way.

Both are derived values, stored once per node in a list per field. Outside
the from-scratch ``recompute_*`` references, only :meth:`SearchGraph.add_target`,
:meth:`SearchGraph.propagate_update` and :meth:`SearchGraph.merge_expand` write them.
Every public mutation leaves the graph at fixpoint. The structural rules are
checked in :meth:`SearchGraph.check_invariants`.
"""

from __future__ import annotations

import json
import math
from collections import deque
from itertools import chain, compress
from typing import Iterable, NamedTuple

import numpy as np

from .molspace import Inventory, MoleculeId, Reaction

NodeId = int

INF = math.inf


class ContractViolation(RuntimeError):
    """An internal invariant of the search graph was broken."""


class Node(NamedTuple):
    """A copy of one node's fields, read through :attr:`SearchGraph.nodes`."""

    id: NodeId
    kind: str
    molecule: MoleculeId | None
    reaction_cost: float
    hist_cost: float
    proof_cost: float
    success: bool
    open: bool
    in_inventory: bool


class NodeView:
    """Read-only sequence of a graph's nodes, built from its field lists."""

    def __init__(self, graph: SearchGraph):
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph.succ)

    def __getitem__(self, i: int) -> Node:
        g = self._graph
        i = range(len(g.succ))[i]
        return Node(i, "reaction" if g.molecule[i] is None else "molecule", g.molecule[i],
                    g.reaction_cost[i], g.hist_cost[i], g.proof_cost[i],
                    g.proof_cost[i] < INF, g.open[i], g.in_inventory[i])


class SearchGraph:
    """Bipartite directed AND-OR graph grown by expanding open molecules.

    Node state is one list per field, indexed by node id: the molecule key
    (None for a reaction), the reaction cost (0.0 for a molecule), both
    derived costs, and the open and inventory flags."""

    def __init__(self, dedup: bool = True):
        self.dedup = dedup
        self.molecule: list[MoleculeId | None] = []
        self.reaction_cost: list[float] = []
        self.hist_cost: list[float] = []
        self.proof_cost: list[float] = []
        self.open: list[bool] = []
        self.in_inventory: list[bool] = []
        self.succ: list[list[NodeId]] = []
        self.pred: list[list[NodeId]] = []
        self.targets: list[NodeId] = []
        self.memory: dict[MoleculeId, NodeId] = {}
        self._molecules = 0

    @property
    def nodes(self) -> NodeView:
        """The nodes as :class:`Node` copies, for callers off the hot path."""
        return NodeView(self)

    # -- construction -----------------------------------------------------

    def _new_molecule(self, molecule: MoleculeId, inventory: Inventory) -> NodeId:
        nid = len(self.succ)
        in_inv = molecule in inventory
        self.molecule.append(molecule)
        self.reaction_cost.append(0.0)
        self.hist_cost.append(INF)
        self.proof_cost.append(0.0 if in_inv else INF)
        self.open.append(not in_inv)
        self.in_inventory.append(in_inv)
        self.succ.append([])
        self.pred.append([])
        self._molecules += 1
        if self.dedup:
            self.memory[molecule] = nid
        return nid

    def add_target(self, molecule: MoleculeId, inventory: Inventory) -> NodeId:
        """Insert (or re-point at) *molecule* as a search target with cost 0."""
        if self.dedup and molecule in self.memory:
            nid = self.memory[molecule]
        else:
            nid = self._new_molecule(molecule, inventory)
        if nid not in self.targets:
            self.targets.append(nid)
        if self.hist_cost[nid] > 0.0:
            self.hist_cost[nid] = 0.0
            self._relax_from([nid])
        return nid

    def merge_expand(self, v: NodeId, reactions: Iterable[Reaction],
                     inventory: Inventory) -> list[NodeId]:
        """Expand open molecule node *v* with the oracle's reactions.

        One reaction node per reaction; reactant molecules are looked up in
        the memory first (graph mode) so nothing is duplicated. An empty
        reaction list closes *v* as a permanent dead end.

        Reaction nodes are built with their costs, and reactants' historical
        costs lowered as edges are added; :meth:`propagate_update` carries both
        on from the lowered reactants with successors and, if a new reaction
        is proved, from *v*. Returns the molecules whose historical cost fell.
        """
        mols, hist_cost, proof_cost = self.molecule, self.hist_cost, self.proof_cost
        if mols[v] is None or not self.open[v]:
            raise ContractViolation(f"node {v} is not an open molecule node")
        if not math.isfinite(hist_cost[v]):
            raise ContractViolation(f"node {v} has no finite historical cost")
        self.open[v] = False
        succ, pred, memory = self.succ, self.pred, self.memory
        rcosts, is_open, in_inv = self.reaction_cost, self.open, self.in_inventory
        molecule, base, out = mols[v], hist_cost[v], succ[v]
        fell, proved = {}, False
        for rxn in reactions:
            if rxn.product != molecule:
                raise ContractViolation(f"reaction product {rxn.product!r} does not "
                                        f"match node molecule {molecule!r}")
            rid, hist, kids, unproved = len(succ), base + rxn.cost, [], False
            mols.append(None)
            rcosts.append(rxn.cost)
            hist_cost.append(hist)
            proof_cost.append(INF)
            is_open.append(False)
            in_inv.append(False)
            succ.append(kids)
            pred.append([v])
            out.append(rid)
            for mol in rxn.reactants:
                mid = memory.get(mol)   # the memory stays empty in tree mode
                if mid is None:
                    mid = self._new_molecule(mol, inventory)
                kids.append(mid)
                pred[mid].append(rid)
                if hist < hist_cost[mid]:
                    hist_cost[mid] = hist
                    fell[mid] = None
                unproved = unproved or proof_cost[mid] == INF
            if not unproved:
                proof_cost[rid] = rxn.cost + sum(map(proof_cost.__getitem__, kids))
                proved = True
        lowered = self.propagate_update([m for m in fell if succ[m]], [v] if proved else [])
        fell.update(dict.fromkeys(m for m in lowered if mols[m] is not None))
        return list(fell)

    # -- incremental maintenance ------------------------------------------

    def _local_proof_cost(self, nid: NodeId) -> float:
        proof = self.proof_cost
        if self.molecule[nid] is None:
            return self.reaction_cost[nid] + sum(map(proof.__getitem__, self.succ[nid]))
        if self.in_inventory[nid]:
            return 0.0
        return min(map(proof.__getitem__, self.succ[nid]), default=INF)

    def propagate_update(self, affected: Iterable[NodeId],
                         proof_seeds: Iterable[NodeId] | None = None) -> list[NodeId]:
        """Bring historical costs down from *affected*, and proof costs up
        from *proof_seeds* (default *affected*), back to fixpoint after a
        structural change. Returns the nodes whose historical cost fell."""
        fell = self._relax_from(affected)
        # proof cost only decreases; push decreases along predecessor edges
        proof, pred, mols = self.proof_cost, self.pred, self.molecule
        queue = deque(affected if proof_seeds is None else proof_seeds)
        queued = set(queue)
        while queue:
            nid = queue.popleft()
            queued.discard(nid)
            new = self._local_proof_cost(nid)
            if new == proof[nid]:
                continue
            if new > proof[nid]:
                raise ContractViolation(
                    f"proof cost of node {nid} rose from {proof[nid]} to {new} "
                    f"during propagation"
                )
            proof[nid] = new
            if mols[nid] is None:
                # costs only fall, so the product takes the new cost or keeps its own
                nid = pred[nid][0]
                if not new < proof[nid]:
                    continue
                proof[nid] = new
            for p in pred[nid]:
                if p not in queued:
                    queue.append(p)
                    queued.add(p)
        return fell

    def _relax_from(self, seeds: Iterable[NodeId]) -> list[NodeId]:
        # historical cost only decreases; push decreases along successor edges
        hist_cost, rcosts, succ = self.hist_cost, self.reaction_cost, self.succ
        fell = []
        queue = deque(seeds)
        queued = set(queue)
        while queue:
            nid = queue.popleft()
            queued.discard(nid)
            base = hist_cost[nid]
            if not math.isfinite(base):
                continue
            for s in succ[nid]:
                cand = base + rcosts[s]
                if cand < hist_cost[s]:
                    hist_cost[s] = cand
                    fell.append(s)
                    if s not in queued:
                        queue.append(s)
                        queued.add(s)
        return fell

    # -- full recomputation (reference implementations) --------------------

    def recompute_proof_costs(self) -> None:
        """From-scratch greatest fixpoint: every proof cost INF, then sweep
        every node down to its local value until nothing changes."""
        proof = self.proof_cost
        proof[:] = [INF] * len(proof)
        changed = True
        while changed:
            changed = False
            for nid in range(len(proof)):
                new = self._local_proof_cost(nid)
                if new < proof[nid]:
                    proof[nid] = new
                    changed = True

    def recompute_hist_costs(self) -> None:
        """From-scratch shortest-path relaxation from the targets."""
        self.hist_cost[:] = [INF] * len(self.hist_cost)
        for t in self.targets:
            self.hist_cost[t] = 0.0
        self._relax_from(list(self.targets))

    # -- queries ------------------------------------------------------------

    def open_nodes(self) -> set[NodeId]:
        return set(compress(range(len(self.open)), self.open))

    def molecule_count(self) -> int:
        return self._molecules

    def reaction_count(self) -> int:
        return len(self.succ) - self._molecules

    def all_targets_successful(self) -> bool:
        return all(self.proof_cost[t] < INF for t in self.targets)

    def check_invariants(self) -> None:
        """Structural sanity sweep; raises ContractViolation on breakage.
        The edge checks run on flat arrays of every succ and pred entry."""
        n = len(self.succ)
        is_rxn = np.fromiter((m is None for m in self.molecule), bool, n)
        n_succ = np.fromiter(map(len, self.succ), np.int64, n)
        n_pred = np.fromiter(map(len, self.pred), np.int64, n)
        src = np.repeat(np.arange(n), n_succ)
        dst = np.fromiter(chain.from_iterable(self.succ), np.int64, int(n_succ.sum()))
        # every pred entry p of node s as the key p * n + s, sorted, then a
        # sentinel above every key
        back_links = np.append(np.sort(
            np.fromiter(chain.from_iterable(self.pred), np.int64, int(n_pred.sum())) * n
            + np.repeat(np.arange(n), n_pred)), n * n)
        keys = src * n + dst

        def first(mask: np.ndarray) -> int | None:
            hits = np.flatnonzero(mask)
            return int(hits[0]) if len(hits) else None

        if (e := first(is_rxn[src] == is_rxn[dst])) is not None:
            raise ContractViolation(f"edge {src[e]}->{dst[e]} is not bipartite")
        if (e := first(back_links[np.searchsorted(back_links, keys)] != keys)) is not None:
            raise ContractViolation(f"edge {src[e]}->{dst[e]} missing back-link")
        if (i := first(is_rxn & (n_pred != 1))) is not None:
            raise ContractViolation(f"reaction node {i} has {n_pred[i]} products")
        if (i := first(is_rxn & (n_succ == 0))) is not None:
            raise ContractViolation(f"reaction node {i} has no reactants")
        for i in np.flatnonzero(~is_rxn & (n_succ > 0)).tolist():
            if self.in_inventory[i]:
                raise ContractViolation(f"inventory node {i} was expanded")
            if self.open[i]:
                raise ContractViolation(f"open node {i} has successors")
        seen: dict[MoleculeId, NodeId] = {}
        for i in np.flatnonzero(~is_rxn).tolist() if self.dedup else ():
            if (mol := self.molecule[i]) in seen:
                raise ContractViolation(
                    f"molecule {mol!r} duplicated at nodes {seen[mol]} and {i}")
            seen[mol] = i
        molecules = n - int(is_rxn.sum())
        if self._molecules != molecules:
            raise ContractViolation("node counters out of sync with node table")
        if self.dedup and len(self.memory) != molecules:
            raise ContractViolation("molecule memory out of sync with node table")

    # -- serialization -------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready structural snapshot; its ``labels`` field is None."""
        nodes = []
        for i, mol in enumerate(self.molecule):
            hist, success = self.hist_cost[i], self.proof_cost[i] < INF
            if not math.isfinite(hist):
                raise ContractViolation(f"node {i} has non-finite hist_cost")
            if mol is None:
                nodes.append({"kind": "reaction", "cost": self.reaction_cost[i],
                              "success": success, "hist_cost": hist})
            else:
                nodes.append({"kind": "molecule", "key": mol, "open": self.open[i],
                              "success": success, "hist_cost": hist,
                              "in_inventory": self.in_inventory[i]})
        edges = [[src, dst] for src in range(len(self.succ)) for dst in self.succ[src]]
        return {
            "version": 1,
            "dedup": self.dedup,
            "nodes": nodes,
            "edges": edges,
            "targets": list(self.targets),
            "labels": None,
        }


def snapshot_to_json(snap: dict) -> str:
    """Canonical text encoding of a snapshot (bit-exact round trip)."""
    return json.dumps(snap, sort_keys=True, separators=(",", ":"))
