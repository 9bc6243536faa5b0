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

Both are derived values, stored once per node. Outside the from-scratch
``recompute_*`` references, only :meth:`SearchGraph.propagate_update`,
:meth:`SearchGraph.merge_expand` and :meth:`SearchGraph.add_target` write them.
Every public mutation leaves the graph at fixpoint. The structural rules are
checked in :meth:`SearchGraph.check_invariants`.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from .molspace import Inventory, MoleculeId, Reaction

NodeId = int

INF = math.inf


class ContractViolation(RuntimeError):
    """An internal invariant of the search graph was broken."""


@dataclass(slots=True)
class MoleculeNode:
    id: NodeId
    molecule: MoleculeId
    open: bool
    hist_cost: float
    proof_cost: float
    in_inventory: bool

    kind = "molecule"

    @property
    def success(self) -> bool:
        return self.proof_cost < INF


@dataclass(slots=True)
class ReactionNode:
    id: NodeId
    reaction_cost: float
    hist_cost: float
    proof_cost: float

    kind = "reaction"

    @property
    def success(self) -> bool:
        return self.proof_cost < INF


Node = MoleculeNode | ReactionNode


class SearchGraph:
    """Bipartite directed AND-OR graph grown by expanding open molecules."""

    def __init__(self, dedup: bool = True):
        self.dedup = dedup
        self.nodes: list[Node] = []
        self.succ: list[list[NodeId]] = []
        self.pred: list[list[NodeId]] = []
        self.targets: list[NodeId] = []
        self.memory: dict[MoleculeId, NodeId] = {}
        # kept beside the node table so that queries need not scan it
        self._open: set[NodeId] = set()
        self._molecules = 0
        self._reactions = 0

    # -- construction -----------------------------------------------------

    def _new_molecule(self, molecule: MoleculeId, inventory: Inventory) -> NodeId:
        nid = len(self.nodes)
        in_inv = molecule in inventory
        self.nodes.append(MoleculeNode(
            id=nid, molecule=molecule, open=not in_inv, hist_cost=INF,
            proof_cost=0.0 if in_inv else INF, in_inventory=in_inv,
        ))
        self.succ.append([])
        self.pred.append([])
        self._molecules += 1
        if not in_inv:
            self._open.add(nid)
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
        if self.nodes[nid].hist_cost > 0.0:
            self.nodes[nid].hist_cost = 0.0
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
        node = self.nodes[v]
        if node.kind != "molecule" or not node.open:
            raise ContractViolation(f"node {v} is not an open molecule node")
        if not math.isfinite(node.hist_cost):
            raise ContractViolation(f"node {v} has no finite historical cost")
        node.open = False
        self._open.discard(v)
        nodes, succ, pred, memory = self.nodes, self.succ, self.pred, self.memory
        molecule, base, out = node.molecule, node.hist_cost, succ[v]
        fell, proved = {}, False
        for rxn in reactions:
            if rxn.product != molecule:
                raise ContractViolation(f"reaction product {rxn.product!r} does not "
                                        f"match node molecule {molecule!r}")
            rid, hist, kids, unproved = len(nodes), base + rxn.cost, [], False
            nodes.append(rnode := ReactionNode(rid, rxn.cost, hist, INF))
            succ.append(kids)
            pred.append([v])
            out.append(rid)
            self._reactions += 1
            for mol in rxn.reactants:
                mid = memory.get(mol)   # the memory stays empty in tree mode
                if mid is None:
                    mid = self._new_molecule(mol, inventory)
                kids.append(mid)
                pred[mid].append(rid)
                child = nodes[mid]
                if hist < child.hist_cost:
                    child.hist_cost = hist
                    fell[mid] = None
                unproved = unproved or child.proof_cost == INF
            if not unproved:
                rnode.proof_cost = rxn.cost + sum(nodes[c].proof_cost for c in kids)
                proved = True
        lowered = self.propagate_update([m for m in fell if succ[m]], [v] if proved else [])
        fell.update(dict.fromkeys(m for m in lowered if nodes[m].kind == "molecule"))
        return list(fell)

    # -- incremental maintenance ------------------------------------------

    def _local_proof_cost(self, nid: NodeId) -> float:
        node = self.nodes[nid]
        if node.kind == "reaction":
            return node.reaction_cost + sum(self.nodes[c].proof_cost for c in self.succ[nid])
        if node.in_inventory:
            return 0.0
        return min((self.nodes[r].proof_cost for r in self.succ[nid]), default=INF)

    def propagate_update(self, affected: Iterable[NodeId],
                         proof_seeds: Iterable[NodeId] | None = None) -> list[NodeId]:
        """Bring historical costs down from *affected*, and proof costs up
        from *proof_seeds* (default *affected*), back to fixpoint after a
        structural change. Returns the nodes whose historical cost fell."""
        fell = self._relax_from(affected)
        # proof cost only decreases; push decreases along predecessor edges
        nodes, pred = self.nodes, self.pred
        queue = deque(affected if proof_seeds is None else proof_seeds)
        queued = set(queue)
        while queue:
            nid = queue.popleft()
            queued.discard(nid)
            new = self._local_proof_cost(nid)
            node = nodes[nid]
            if new == node.proof_cost:
                continue
            if new > node.proof_cost:
                raise ContractViolation(
                    f"proof cost of node {nid} rose from {node.proof_cost} to {new} "
                    f"during propagation"
                )
            node.proof_cost = new
            if node.kind == "reaction":
                # costs only fall, so the product takes the new cost or keeps its own
                nid = pred[nid][0]
                if not new < nodes[nid].proof_cost:
                    continue
                nodes[nid].proof_cost = new
            for p in pred[nid]:
                if p not in queued:
                    queue.append(p)
                    queued.add(p)
        return fell

    def _relax_from(self, seeds: Iterable[NodeId]) -> list[NodeId]:
        # historical cost only decreases; push decreases along successor edges
        fell = []
        queue = deque(seeds)
        queued = set(queue)
        while queue:
            nid = queue.popleft()
            queued.discard(nid)
            base = self.nodes[nid].hist_cost
            if not math.isfinite(base):
                continue
            for s in self.succ[nid]:
                child = self.nodes[s]
                cand = base + (child.reaction_cost if child.kind == "reaction" else 0.0)
                if cand < child.hist_cost:
                    child.hist_cost = cand
                    fell.append(s)
                    if s not in queued:
                        queue.append(s)
                        queued.add(s)
        return fell

    # -- full recomputation (reference implementations) --------------------

    def recompute_proof_costs(self) -> None:
        """From-scratch greatest fixpoint: every proof cost INF, then sweep
        every node down to its local value until nothing changes."""
        for node in self.nodes:
            node.proof_cost = INF
        changed = True
        while changed:
            changed = False
            for node in self.nodes:
                new = self._local_proof_cost(node.id)
                if new < node.proof_cost:
                    node.proof_cost = new
                    changed = True

    def recompute_hist_costs(self) -> None:
        """From-scratch shortest-path relaxation from the targets."""
        for node in self.nodes:
            node.hist_cost = INF
        for t in self.targets:
            self.nodes[t].hist_cost = 0.0
        self._relax_from(list(self.targets))

    # -- queries ------------------------------------------------------------

    def open_nodes(self) -> set[NodeId]:
        return set(self._open)

    def molecule_count(self) -> int:
        return self._molecules

    def reaction_count(self) -> int:
        return self._reactions

    def all_targets_successful(self) -> bool:
        return all(self.nodes[t].success for t in self.targets)

    def check_invariants(self) -> None:
        """Structural sanity sweep; raises ContractViolation on breakage.
        The edge checks run on flat arrays of every succ and pred entry."""
        n = len(self.nodes)
        is_rxn = np.fromiter((node.kind == "reaction" for node in self.nodes), bool, n)
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
            if self.nodes[i].in_inventory:
                raise ContractViolation(f"inventory node {i} was expanded")
            if self.nodes[i].open:
                raise ContractViolation(f"open node {i} has successors")
        molecules = [node for node in self.nodes if node.kind == "molecule"]
        seen: dict[MoleculeId, NodeId] = {}
        for node in molecules if self.dedup else ():
            if node.molecule in seen:
                raise ContractViolation(
                    f"molecule {node.molecule!r} duplicated at nodes "
                    f"{seen[node.molecule]} and {node.id}"
                )
            seen[node.molecule] = node.id
        if {n.id for n in molecules if n.open} != self._open:
            raise ContractViolation("open-node index out of sync with node table")
        if (self._molecules, self._reactions) != (len(molecules),
                                                  len(self.nodes) - len(molecules)):
            raise ContractViolation("node counters out of sync with node table")
        if self.dedup and len(self.memory) != len(molecules):
            raise ContractViolation("molecule memory out of sync with node table")

    # -- serialization -------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready structural snapshot; its ``labels`` field is None."""
        nodes = []
        for node in self.nodes:
            if not math.isfinite(node.hist_cost):
                raise ContractViolation(f"node {node.id} has non-finite hist_cost")
            if node.kind == "molecule":
                nodes.append({
                    "kind": "molecule", "key": node.molecule, "open": node.open,
                    "success": node.success, "hist_cost": node.hist_cost,
                    "in_inventory": node.in_inventory,
                })
            else:
                nodes.append({
                    "kind": "reaction", "cost": node.reaction_cost,
                    "success": node.success, "hist_cost": node.hist_cost,
                })
        edges = [[src, dst] for src in range(len(self.nodes)) for dst in self.succ[src]]
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


def snapshot_from_json(text: str) -> dict:
    return json.loads(text)
