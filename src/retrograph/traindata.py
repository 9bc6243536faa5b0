"""Training data for the policy network, generated by replaying solved
routes.

For each solved target the baseline planner's route is replayed from a
fresh graph: at every step the snapshot is recorded, open nodes that belong
to the route are labeled positive and all other open nodes negative, then
the next route molecule is expanded. By default only the route's own
reactions are applied; full-K replay additionally applies everything the
oracle proposes, which is what creates negative nodes to rank against.
"""

from __future__ import annotations

import json
import logging
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .molspace import ExpansionOracle, Inventory, Reaction
from .planner import PlanConfig, PlanningError, RouteTree, plan
from .searchgraph import INF, SearchGraph, snapshot_to_json

log = logging.getLogger(__name__)

DATASET_SCHEMA_VERSION = 1

# the node fields that the policy network reads; costs must be finite
_NODE_FIELDS = {"molecule": ("key", "open", "hist_cost"), "reaction": ("cost", "hist_cost")}
_FIELD_OK = {"key": lambda x: type(x) is str, "open": lambda x: type(x) is bool}
_FINITE = lambda x: type(x) in (int, float) and math.isfinite(x)


@dataclass
class TrainingExample:
    """One replay step: a graph snapshot plus 0/1 labels on its open nodes."""

    snapshot: dict
    labels: dict[int, int]

    def __post_init__(self) -> None:
        open_ids = sorted(
            i for i, n in enumerate(self.snapshot["nodes"])
            if n["kind"] == "molecule" and n["open"]
        )
        if sorted(self.labels) != open_ids:
            raise ValueError(
                f"labels cover nodes {sorted(self.labels)}, open nodes are {open_ids}"
            )
        if 1 not in self.labels.values():
            raise ValueError("a training example needs at least one positive label")

    def to_record(self) -> dict:
        snap = dict(self.snapshot)
        snap["labels"] = {str(k): int(v) for k, v in self.labels.items()}
        return snap

    @classmethod
    def from_record(cls, record) -> "TrainingExample":
        if not (isinstance(record, dict) and isinstance(record.get("labels"), dict)):
            raise ValueError("a record must be an object whose labels are an object")
        nodes = record["nodes"]
        for i, node in enumerate(nodes):
            names = _NODE_FIELDS.get(node.get("kind")) if isinstance(node, dict) else None
            if names is None:
                raise ValueError(f"node {i} is not a molecule or reaction object")
            for name in names:
                if not _FIELD_OK.get(name, _FINITE)(node.get(name)):
                    raise ValueError(f"node {i} has a bad or missing {name!r}")
        for edge in record["edges"]:
            if not (type(edge) is list and len(edge) == 2
                    and all(type(x) is int and 0 <= x < len(nodes) for x in edge)):
                raise ValueError(f"edge {edge} is not a pair of node ids below {len(nodes)}")
        labels = {int(k): int(v) for k, v in record["labels"].items()}
        snap = dict(record)
        snap["labels"] = None
        return cls(snapshot=snap, labels=labels)


def _route_order(route: RouteTree) -> tuple[list[str], dict[str, Reaction]]:
    """Breadth-first internal molecules of a route and their reactions;
    a molecule repeated across branches is expanded once."""
    order: list[str] = []
    reactions: dict[str, Reaction] = {}
    queue = deque([route])
    while queue:
        tree = queue.popleft()
        if tree.reaction is None:
            continue
        if tree.molecule not in reactions:
            order.append(tree.molecule)
            reactions[tree.molecule] = Reaction(
                tree.molecule,
                (c.molecule for c in tree.reaction.children),
                tree.reaction.cost,
            )
        queue.extend(tree.reaction.children)
    return order, reactions


def replay_route(route: RouteTree, oracle: ExpansionOracle, inventory: Inventory,
                 k: int, full_k: bool = False) -> list[TrainingExample]:
    """Replay one route from a target-only graph, emitting one labeled
    example per expansion step."""
    order, route_reactions = _route_order(route)
    route_molecules = set(order)
    graph = SearchGraph(dedup=True)
    tid = graph.add_target(route.molecule, inventory)
    examples: list[TrainingExample] = []
    for molecule in order:
        nid = graph.memory[molecule]
        labels = {
            v: 1 if graph.molecule[v] in route_molecules else 0
            for v in graph.open_nodes()
        }
        examples.append(TrainingExample(graph.snapshot(), labels))
        if full_k:
            reactions = oracle.expand(molecule, k)
        else:
            reactions = [route_reactions[molecule]]
        graph.merge_expand(nid, reactions, inventory)
    if not graph.proof_cost[tid] < INF:
        raise PlanningError(
            f"replaying the route for {route.molecule!r} did not prove it"
        )
    return examples


def generate(targets: list[str], oracle: ExpansionOracle, inventory: Inventory,
             baseline_cfg: PlanConfig, full_k: bool = False) -> list[TrainingExample]:
    """Plan every target with the baseline, then replay each solved route.

    Targets are processed in sorted canonical order so the output does not
    depend on input order; failed targets emit nothing and oracle failures
    skip the target with a warning.
    """
    canon = sorted(oracle.canonical_unique(targets))
    examples: list[TrainingExample] = []
    for target in canon:
        try:
            result = plan([target], oracle, inventory, baseline_cfg)
        except PlanningError as exc:
            log.warning("skipping target %r: %s", target, exc)
            continue
        record = result.targets[0]
        if not record.success or record.route is None:
            continue
        examples.extend(replay_route(record.route, oracle, inventory,
                                     baseline_cfg.k, full_k))
    return examples


def split(dataset: list[TrainingExample], val_n: int,
          seed: int = 0) -> tuple[list[TrainingExample], list[TrainingExample]]:
    """Disjoint train/validation split by seeded shuffle."""
    if not 0 <= val_n <= len(dataset):
        raise ValueError(f"cannot carve val={val_n} out of {len(dataset)} examples")
    order = np.random.default_rng(seed).permutation(len(dataset))
    val = [dataset[i] for i in order[:val_n]]
    train = [dataset[i] for i in order[val_n:]]
    return train, val


def save_dataset(path: str | Path, examples: list[TrainingExample]) -> None:
    """JSONL file: a header record then one example per line."""
    lines = [json.dumps({"kind": "header", "schema_version": DATASET_SCHEMA_VERSION},
                        sort_keys=True)]
    lines.extend(snapshot_to_json(ex.to_record()) for ex in examples)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_dataset(path: str | Path) -> list[TrainingExample]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty dataset file (missing header)")
    header = json.loads(lines[0])
    if not (isinstance(header, dict) and header.get("kind") == "header"
            and header.get("schema_version") == DATASET_SCHEMA_VERSION):
        raise ValueError(f"{path}: bad dataset header {lines[0]!r}")
    examples = []
    for lineno, line in enumerate(lines[1:], 2):
        if line.strip():
            try:
                examples.append(TrainingExample.from_record(json.loads(line)))
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad dataset record: {exc}") from exc
    return examples
