"""Whole-graph policy network that scores open molecule nodes.

The search graph is encoded with per-node, per-edge, and global states and
refined by a stack of meta layers (edge update, message-passed node update,
global update). Open-node logits come from a linear head on the final node
states; training uses binary cross-entropy on expansion labels plus a
pairwise margin ranking loss between positive and negative open nodes.

Inference and training take separate paths through the same math.
Training runs :func:`forward` on Tensors, which records the autodiff tape.
:func:`score`, the planner's entry point, runs the ops on plain arrays
with one finiteness check on its output, and its last meta layer computes
only the edges, messages and node rows that the open-node logits read.
Its first meta layer goes through an :class:`InferenceMemo`, which a caller
scoring a growing graph keeps across calls: an edge row is reused when its
direction and both endpoints' layer-0 rows are bit-equal to the previous
snapshot's, and a node row when its layer-0 row and in-degree are unchanged
and every incoming edge was reused. Without a memo every row is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .molspace import features
from .numerics import (AdamState, MlpBlock, Tensor, concat, gather_rows,
                       rbf_matrix, relu, reshape, segment_mean, segment_mean_array,
                       softplus, tile_rows, tmean, zero_grads)


@dataclass(frozen=True)
class GnnHyper:
    """Architecture and loss settings for the policy network."""

    hidden: int = 128
    rbf_n: int = 64
    rbf_low: float = 0.0
    rbf_high: float = 10.0
    layers: int = 3
    feature_bits: int = 2048
    drop_rate: float = 0.1
    margin: float = 4.0

    @property
    def rbf_tau(self) -> float:
        return (self.rbf_high - self.rbf_low) ** 2 / 4.0

    @property
    def node_init_width(self) -> int:
        # molecule: RBF(hist) + projected fingerprint; reaction: RBF + RBF
        return 2 * self.rbf_n

    def to_dict(self) -> dict:
        return {
            "hidden": self.hidden, "rbf_n": self.rbf_n, "rbf_low": self.rbf_low,
            "rbf_high": self.rbf_high, "layers": self.layers,
            "feature_bits": self.feature_bits, "drop_rate": self.drop_rate,
            "margin": self.margin,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GnnHyper":
        return cls(**{k: d[k] for k in cls().to_dict()})


@dataclass
class _LayerBlocks:
    edge: MlpBlock
    msg: MlpBlock
    node: MlpBlock
    glob: MlpBlock

    def blocks(self) -> list[tuple[str, MlpBlock]]:
        return [("edge", self.edge), ("msg", self.msg), ("node", self.node),
                ("glob", self.glob)]


class GnnParameters:
    """All trainable tensors of the policy network, in a stable order."""

    def __init__(self, hyper: GnnHyper, seed: int = 0):
        self.hyper = hyper
        rng = np.random.default_rng(seed)
        h, n = hyper.hidden, hyper.rbf_n
        self.edge_emb = Tensor(nm.kaiming_uniform(rng, h, 2).T, requires_grad=True)
        self.ffn_w = Tensor(nm.kaiming_uniform(rng, hyper.feature_bits, n),
                            requires_grad=True)
        self.ffn_b = Tensor(np.zeros(n), requires_grad=True)
        self.layer_blocks: list[_LayerBlocks] = []
        for layer in range(hyper.layers):
            v_in = hyper.node_init_width if layer == 0 else h
            self.layer_blocks.append(_LayerBlocks(
                edge=MlpBlock(h + 2 * v_in + h, h, hyper.drop_rate, rng),
                msg=MlpBlock(v_in + h, h, hyper.drop_rate, rng),
                node=MlpBlock(v_in + 2 * h, h, hyper.drop_rate, rng),
                glob=MlpBlock(2 * h, h, hyper.drop_rate, rng),
            ))
        self.out_w = Tensor(nm.kaiming_uniform(rng, h, 1), requires_grad=True)
        self.out_b = Tensor(np.zeros(1), requires_grad=True)

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = [("edge_emb", self.edge_emb), ("ffn_w", self.ffn_w),
               ("ffn_b", self.ffn_b)]
        for i, blks in enumerate(self.layer_blocks):
            for bname, blk in blks.blocks():
                for wname, t in zip(("w1", "b1", "w2", "b2", "w3", "b3"),
                                    blk.parameters()):
                    out.append((f"layer{i}.{bname}.{wname}", t))
        out.append(("out_w", self.out_w))
        out.append(("out_b", self.out_b))
        return out

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]

    def copy(self) -> "GnnParameters":
        dup = GnnParameters(self.hyper, seed=0)
        for (_, src), (_, dst) in zip(self.named_tensors(), dup.named_tensors()):
            dst.data = src.data.copy()
        return dup

    def save(self, path) -> None:
        hyper = dict(self.hyper.to_dict(), variant="gnn")
        nm.save_weights(path, [(n, t.data) for n, t in self.named_tensors()], hyper)

    @classmethod
    def load(cls, path) -> "GnnParameters":
        arrays, hyper = nm.load_weights(path)
        if hyper.get("variant") != "gnn":
            raise ValueError(f"{path}: not a policy-network checkpoint")
        params = cls(GnnHyper.from_dict(hyper), seed=0)
        for name, tensor in params.named_tensors():
            if name not in arrays:
                raise ValueError(f"{path}: checkpoint is missing tensor {name!r}")
            if arrays[name].shape != tensor.data.shape:
                raise ValueError(
                    f"{path}: tensor {name!r} has shape {arrays[name].shape}, "
                    f"expected {tensor.data.shape}"
                )
            tensor.data = arrays[name]
        return params


@dataclass
class ForwardResult:
    all_logits: Tensor            # (n_nodes, 1), snapshot node order
    open_ids: list[int]           # open molecule node ids, ascending


@dataclass
class _SnapshotArrays:
    n_nodes: int
    mol_ids: list[int]
    rxn_ids: list[int]
    internal_of: np.ndarray      # snapshot id -> internal row (molecules first)
    feats: np.ndarray            # (n_mol, bits)
    mol_hist: np.ndarray
    rxn_hist: np.ndarray
    rxn_cost: np.ndarray
    edge_src: np.ndarray         # internal rows
    edge_dst: np.ndarray
    edge_dir: np.ndarray         # 0 molecule->reaction, 1 reaction->molecule
    open_ids: list[int]


def _snapshot_arrays(snap: dict, bits: int,
                     fingerprints: dict[str, np.ndarray] | None = None) -> _SnapshotArrays:
    """Node and edge arrays of a snapshot. Fingerprint rows are looked up in,
    and added to, *fingerprints* (molecule key -> row) when it is given."""
    nodes = snap["nodes"]
    mol_ids = [i for i, n in enumerate(nodes) if n["kind"] == "molecule"]
    rxn_ids = [i for i, n in enumerate(nodes) if n["kind"] == "reaction"]
    internal_of = np.empty(len(nodes), dtype=np.int64)
    for row, i in enumerate(mol_ids + rxn_ids):
        internal_of[i] = row
    if fingerprints is None:
        fingerprints = {}
    rows = []
    for i in mol_ids:
        key = nodes[i]["key"]
        row = fingerprints.get(key)
        if row is None:
            row = fingerprints[key] = features(key, bits)
            row.flags.writeable = False
        rows.append(row)
    feats = np.stack(rows) if rows else np.zeros((0, bits))
    mol_hist = np.array([nodes[i]["hist_cost"] for i in mol_ids], dtype=np.float64)
    rxn_hist = np.array([nodes[i]["hist_cost"] for i in rxn_ids], dtype=np.float64)
    rxn_cost = np.array([nodes[i]["cost"] for i in rxn_ids], dtype=np.float64)
    src, dst, direction = [], [], []
    for s, d in snap["edges"]:
        src.append(internal_of[s])
        dst.append(internal_of[d])
        direction.append(0 if nodes[s]["kind"] == "molecule" else 1)
    open_ids = sorted(i for i in mol_ids if nodes[i]["open"])
    return _SnapshotArrays(
        n_nodes=len(nodes), mol_ids=mol_ids, rxn_ids=rxn_ids,
        internal_of=internal_of, feats=feats, mol_hist=mol_hist,
        rxn_hist=rxn_hist, rxn_cost=rxn_cost,
        edge_src=np.array(src, dtype=np.int64),
        edge_dst=np.array(dst, dtype=np.int64),
        edge_dir=np.array(direction, dtype=np.int64),
        open_ids=open_ids,
    )


def init_encoding(snap: dict, params: GnnParameters) -> tuple[Tensor, Tensor, Tensor,
                                                              _SnapshotArrays]:
    """Layer-0 states: molecule nodes get RBF(hist) plus the projected
    fingerprint, reaction nodes RBF(hist) plus RBF(cost), edges a direction
    embedding, and the global state starts at zero."""
    hy = params.hyper
    arrays = _snapshot_arrays(snap, hy.feature_bits)
    mol_rbf, v_rxn = _rbf_rows(arrays, hy)
    proj = Tensor(arrays.feats) @ params.ffn_w + params.ffn_b
    v_mol = concat([Tensor(mol_rbf), proj], axis=1)
    v0 = concat([v_mol, Tensor(v_rxn)], axis=0)
    e0 = gather_rows(params.edge_emb, arrays.edge_dir)
    u0 = Tensor(np.zeros((1, hy.hidden)))
    return v0, e0, u0, arrays


def _rbf_rows(arrays: _SnapshotArrays, hy: GnnHyper) -> tuple[np.ndarray, np.ndarray]:
    """RBF(hist) of the molecule rows, and the whole layer-0 reaction rows."""
    clip = lambda x: np.clip(x, hy.rbf_low, hy.rbf_high)
    emb = lambda x: rbf_matrix(clip(x), hy.rbf_low, hy.rbf_high, hy.rbf_n, hy.rbf_tau)
    v_rxn = (np.concatenate([emb(arrays.rxn_hist), emb(arrays.rxn_cost)], axis=1)
             if arrays.rxn_ids else np.zeros((0, hy.node_init_width)))
    return emb(arrays.mol_hist), v_rxn


def meta_layer(v: Tensor, e: Tensor, u: Tensor, edge_src: np.ndarray,
               edge_dst: np.ndarray, n_nodes: int, blocks: _LayerBlocks,
               training: bool = False,
               rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """One round of edge, node (via mean incoming messages), and global
    updates. Nodes with no incoming edges receive the zero message."""
    src_v = gather_rows(v, edge_src)
    dst_v = gather_rows(v, edge_dst)
    u_edges = tile_rows(u, len(edge_src))
    e_new = blocks.edge(concat([e, src_v, dst_v, u_edges], axis=1), training, rng)
    per_edge = blocks.msg(concat([src_v, e_new], axis=1), training, rng)
    msg = segment_mean(per_edge, edge_dst, n_nodes)
    u_nodes = tile_rows(u, n_nodes)
    v_new = blocks.node(concat([v, msg, u_nodes], axis=1), training, rng)
    u_new = blocks.glob(concat([u, tmean(v_new, axis=0, keepdims=True)], axis=1),
                        training, rng)
    return v_new, e_new, u_new


def forward(snap: dict, params: GnnParameters, training: bool = False,
            rng: np.random.Generator | None = None) -> ForwardResult:
    """Full forward pass over a snapshot, returning per-node logits."""
    v, e, u, arrays = init_encoding(snap, params)
    for blocks in params.layer_blocks:
        v, e, u = meta_layer(v, e, u, arrays.edge_src, arrays.edge_dst,
                             arrays.n_nodes, blocks, training, rng)
    logits_internal = v @ params.out_w + params.out_b
    all_logits = gather_rows(logits_internal, arrays.internal_of)
    return ForwardResult(all_logits=all_logits, open_ids=arrays.open_ids)


@dataclass
class ScoreResult:
    logit: dict[int, float]
    normalized: dict[int, float]   # softmax over open nodes; sums to 1


class InferenceMemo:
    """What :func:`score` keeps between calls with one network: a fingerprint
    row per molecule key, and the first meta layer's rows of the latest
    snapshot, keyed by snapshot node id and by ``(src, dst)`` edge.

    The layer-0 global state is zero, so a first-layer edge row depends only
    on its direction and its endpoints' layer-0 rows, and a node row only on
    its own layer-0 row and its incoming edges. An edge row is reused when
    its direction and both endpoints' layer-0 rows are bit-equal to the
    memo's; a node row when its layer-0 row and in-degree are unchanged and
    every incoming edge was reused. Rows are validated by content, so a
    snapshot of another graph simply misses. A memo serves one network whose
    weights do not change, and holds only the latest snapshot's rows.
    """

    def __init__(self) -> None:
        self.fingerprints: dict[str, np.ndarray] = {}
        self.node_v0 = np.zeros((0, 0))              # layer-0 rows by node id
        self.node_v1 = np.zeros((0, 0))              # first-layer rows by node id
        self.node_known = np.zeros(0, dtype=bool)    # node_v1 row was computed
        self.in_degree = np.zeros(0, dtype=np.int64)
        self.edge_keys = np.zeros(0, dtype=np.int64)  # src << 32 | dst, sorted
        self.edge_dir = np.zeros(0, dtype=np.int64)
        self.edge_e1 = np.zeros((0, 0))              # first-layer edge states
        self.edge_m1 = np.zeros((0, 0))              # and their messages

    def first_layer(self, arrays: _SnapshotArrays, v: np.ndarray, e: np.ndarray,
                    rows: np.ndarray,
                    blocks: _LayerBlocks) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_infer_rows` for the first layer (zero global state): the
        new states of node *rows* and of the edges into them, in edge order.
        Rows that cannot be reused are computed in one batch per block; each
        recomputed node averages all its incoming messages in edge order.
        The memo then holds this snapshot's rows."""
        src, dst, n = arrays.edge_src, arrays.edge_dst, arrays.n_nodes
        ids = np.array(arrays.mol_ids + arrays.rxn_ids, dtype=np.int64)
        u = np.zeros((1, blocks.edge.width))
        v_by_id = v[arrays.internal_of]
        in_degree = np.bincount(ids[dst], minlength=n)
        # same: layer-0 row unchanged; stable: also in-degree and row known
        same = np.zeros(n, dtype=bool)
        stable = np.zeros(n, dtype=bool)
        m = min(n, len(self.node_v0))
        if m:
            same[:m] = (v_by_id[:m].view(np.uint64)
                        == self.node_v0[:m].view(np.uint64)).all(axis=1)
            stable[:m] = (same[:m] & self.node_known[:m]
                          & (self.in_degree[:m] == in_degree[:m]))
        slot = np.full(n, -1, dtype=np.int64)
        slot[rows] = np.arange(len(rows))
        keep = np.flatnonzero(slot[dst] >= 0)
        src_id, dst_id = ids[src[keep]], ids[dst[keep]]
        keys = (src_id << 32) | dst_id
        pos = np.zeros(len(keep), dtype=np.int64)
        edge_hit = np.zeros(len(keep), dtype=bool)
        if len(self.edge_keys):
            pos = np.minimum(np.searchsorted(self.edge_keys, keys), len(self.edge_keys) - 1)
            edge_hit = ((self.edge_keys[pos] == keys)
                        & (self.edge_dir[pos] == arrays.edge_dir[keep])
                        & same[src_id] & same[dst_id])
        e_new = np.empty((len(keep), blocks.edge.width))
        per_edge = np.empty((len(keep), blocks.msg.width))
        if edge_hit.any():
            e_new[edge_hit] = self.edge_e1[pos[edge_hit]]
            per_edge[edge_hit] = self.edge_m1[pos[edge_hit]]
        miss = keep[~edge_hit]
        e_new[~edge_hit], per_edge[~edge_hit] = _edge_update(
            blocks, e[miss], v[src[miss]], v[dst[miss]], u)
        missed_into = np.bincount(dst[miss], minlength=n)
        row_hit = stable[ids[rows]] & (missed_into[rows] == 0)
        v_new = np.empty((len(rows), blocks.node.width))
        if row_hit.any():
            v_new[row_hit] = self.node_v1[ids[rows[row_hit]]]
        need = rows[~row_hit]
        need_slot = np.full(n, -1, dtype=np.int64)
        need_slot[need] = np.arange(len(need))
        into_need = need_slot[dst[keep]] >= 0
        v_new[~row_hit] = _node_update(blocks, v[need], per_edge[into_need],
                                       need_slot[dst[keep[into_need]]], u)
        self.node_v0 = v_by_id
        self.node_v1 = np.empty((n, blocks.node.width))
        self.node_v1[ids[rows]] = v_new
        self.node_known = np.zeros(n, dtype=bool)
        self.node_known[ids[rows]] = True
        self.in_degree = in_degree
        order = np.argsort(keys)
        self.edge_keys = keys[order]
        self.edge_dir = arrays.edge_dir[keep][order]
        self.edge_e1 = e_new[order]
        self.edge_m1 = per_edge[order]
        return v_new, e_new


def score(snap: dict, params: GnnParameters,
          memo: InferenceMemo | None = None) -> ScoreResult:
    """Inference-mode scores for every open molecule node of a snapshot.

    The logits equal :func:`forward`'s up to rounding (no tape is built).
    A caller scoring many snapshots with one network may pass the same
    *memo* each time, so that each molecule is hashed once and first-layer
    rows that did not change since the previous snapshot are reused. Without
    one, an empty memo computes every row.
    """
    memo = InferenceMemo() if memo is None else memo
    arrays = _snapshot_arrays(snap, params.hyper.feature_bits, memo.fingerprints)
    if not arrays.open_ids:
        raise ValueError("snapshot has no open molecule nodes to score")
    raw = _open_logits(arrays, params, memo)
    shifted = np.exp(raw - raw.max())
    norm = shifted / shifted.sum()
    return ScoreResult(
        logit=dict(zip(arrays.open_ids, raw.tolist())),
        normalized=dict(zip(arrays.open_ids, norm.tolist())),
    )


def _open_logits(arrays: _SnapshotArrays, params: GnnParameters,
                 memo: InferenceMemo) -> np.ndarray:
    """Logits of ``arrays.open_ids``: init_encoding, the meta layers and the
    head of :func:`forward` in inference mode, on plain arrays.

    Every layer but the last runs in full. The logits read only the open
    molecule rows of the last node state, so the last layer updates only
    those rows and the edges into them, and skips the global update, whose
    output nothing reads. The first layer goes through *memo*.
    """
    hy = params.hyper
    src, dst, n = arrays.edge_src, arrays.edge_dst, arrays.n_nodes
    open_rows = arrays.internal_of[arrays.open_ids]
    mol_rbf, v_rxn = _rbf_rows(arrays, hy)
    e = params.edge_emb.data[arrays.edge_dir]
    u = np.zeros((1, hy.hidden))
    last = len(params.layer_blocks) - 1
    # a non-finite value reaches the logits, where it is caught once
    with np.errstate(over="ignore", invalid="ignore"):
        proj = arrays.feats @ params.ffn_w.data + params.ffn_b.data
        v = np.concatenate([np.concatenate([mol_rbf, proj], axis=1), v_rxn], axis=0)
        for depth, blocks in enumerate(params.layer_blocks):
            rows = open_rows if depth == last else np.arange(n)
            if depth == 0:
                v, e = memo.first_layer(arrays, v, e, rows, blocks)
            else:
                v, e = _infer_rows(v, e, u, src, dst, rows, blocks)
            if depth < last:
                v_mean = v.sum(axis=0, keepdims=True) * (1.0 / n)
                u = blocks.glob.infer(np.concatenate([u, v_mean], axis=1))
        if last < 0:
            v = v[open_rows]
        logits = (v @ params.out_w.data + params.out_b.data)[:, 0]
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite value produced by the policy network")
    return logits


def _infer_rows(v: np.ndarray, e: np.ndarray, u: np.ndarray, src: np.ndarray,
                dst: np.ndarray, rows: np.ndarray,
                blocks: _LayerBlocks) -> tuple[np.ndarray, np.ndarray]:
    """The edge and node updates of :func:`meta_layer` on plain arrays, for
    node *rows* only: returns their new states and those of the edges into
    them, in edge order. Each row averages the same messages in the same
    order as in the full layer."""
    slot = np.full(len(v), -1, dtype=np.int64)
    slot[rows] = np.arange(len(rows))
    keep = np.flatnonzero(slot[dst] >= 0)
    e_new, per_edge = _edge_update(blocks, e[keep], v[src[keep]], v[dst[keep]], u)
    return _node_update(blocks, v[rows], per_edge, slot[dst[keep]], u), e_new


def _edge_update(blocks: _LayerBlocks, e: np.ndarray, src_v: np.ndarray,
                 dst_v: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """New states of edges *e* and the messages they send to their targets."""
    e_new = blocks.edge.infer(np.concatenate(
        [e, src_v, dst_v, np.repeat(u, len(e), axis=0)], axis=1))
    return e_new, blocks.msg.infer(np.concatenate([src_v, e_new], axis=1))


def _node_update(blocks: _LayerBlocks, v: np.ndarray, per_edge: np.ndarray,
                 segments: np.ndarray, u: np.ndarray) -> np.ndarray:
    """New states of node rows *v*; row i averages the *per_edge* messages
    whose segment is i, in their given order."""
    msg = segment_mean_array(per_edge, segments, len(v))
    return blocks.node.infer(np.concatenate([v, msg, np.repeat(u, len(v), axis=0)],
                                            axis=1))


def loss_terms(open_logits: Tensor, labels: np.ndarray,
               margin: float) -> tuple[Tensor, Tensor, Tensor]:
    """(total, bce, rank) for one graph's open-node logits and 0/1 labels.

    The rank term penalizes every positive/negative pair whose logit gap
    falls short of the margin; it is zero by convention when either side is
    empty.
    """
    y = Tensor(labels.reshape(-1, 1))
    bce = tmean(y * softplus(-open_logits) + (1.0 - y) * softplus(open_logits))
    pos_idx = np.flatnonzero(labels == 1)
    neg_idx = np.flatnonzero(labels == 0)
    if len(pos_idx) and len(neg_idx):
        lp = gather_rows(open_logits, pos_idx)
        ln = reshape(gather_rows(open_logits, neg_idx), (1, -1))
        rank = tmean(relu(margin - (lp - ln)))
    else:
        rank = Tensor(0.0)
    return bce + rank, bce, rank


def example_loss(example, params: GnnParameters, training: bool = False,
                 rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Loss terms for one training example (snapshot plus open-node labels)."""
    out = forward(example.snapshot, params, training, rng)
    if sorted(example.labels) != out.open_ids:
        raise ValueError(
            f"label keys {sorted(example.labels)} do not match open nodes "
            f"{out.open_ids}"
        )
    open_logits = gather_rows(out.all_logits, np.array(out.open_ids, dtype=np.int64))
    labels = np.array([example.labels[i] for i in out.open_ids], dtype=np.float64)
    return loss_terms(open_logits, labels, params.hyper.margin)


@dataclass
class TrainResult:
    params: GnnParameters
    log: list[dict] = field(default_factory=list)
    best_epoch: int = 0


def evaluate(examples, params: GnnParameters) -> dict:
    """Mean eval-mode loss terms over a dataset."""
    if not examples:
        raise ValueError("cannot evaluate on an empty dataset")
    bce = rank = total = 0.0
    for ex in examples:
        t, b, r = example_loss(ex, params, training=False)
        total += t.data.item()
        bce += b.data.item()
        rank += r.data.item()
    n = len(examples)
    return {"bce": bce / n, "rank": rank / n, "total": total / n}


def pairwise_accuracy(examples, params: GnnParameters) -> float:
    """Share of positive/negative open-node pairs ranked correctly."""
    correct = count = 0
    for ex in examples:
        out = forward(ex.snapshot, params, training=False)
        raw = out.all_logits.data[out.open_ids, 0].tolist()
        pos = [r for i, r in zip(out.open_ids, raw) if ex.labels[i] == 1]
        neg = [r for i, r in zip(out.open_ids, raw) if ex.labels[i] == 0]
        for p in pos:
            for q in neg:
                correct += p > q
                count += 1
    if count == 0:
        raise ValueError("dataset has no positive/negative pairs to rank")
    return correct / count


def train(train_set, val_set, hyper: GnnHyper, seed: int = 0, epochs: int = 20,
          batch_size: int = 32, lr: float = 1e-4) -> TrainResult:
    """Minibatch Adam training; per-graph losses are averaged within each
    batch, and the checkpoint with the lowest validation rank loss wins.

    Deterministic for a fixed seed: shuffling and dropout draw from seeded
    generators only.
    """
    if not train_set or not val_set:
        raise ValueError("training needs non-empty train and validation sets")
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")
    params = GnnParameters(hyper, seed=seed)
    adam = AdamState(params.tensors(), lr=lr)
    shuffle_rng = np.random.default_rng([seed, 11])
    best = (math.inf, 0, params.copy())
    log: list[dict] = []
    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(len(train_set))
        sums = {"bce": 0.0, "rank": 0.0, "total": 0.0}
        for step, start in enumerate(range(0, len(order), batch_size)):
            batch = [train_set[i] for i in order[start:start + batch_size]]
            drop_rng = np.random.default_rng([seed, 7, epoch, step])
            zero_grads(params.tensors())
            for ex in batch:
                t, b, r = example_loss(ex, params, training=True, rng=drop_rng)
                sums["bce"] += b.data.item()
                sums["rank"] += r.data.item()
                sums["total"] += t.data.item()
                # one backward per example frees its tape before the next is
                # built; gradients accumulate on the parameters until the step
                (t * (1.0 / len(batch))).backward()
            adam.step()
        val = evaluate(val_set, params)
        row = {
            "epoch": epoch,
            "bce": sums["bce"] / len(order),
            "rank": sums["rank"] / len(order),
            "total": sums["total"] / len(order),
            "val_rank": val["rank"],
        }
        log.append(row)
        if val["rank"] < best[0]:
            best = (val["rank"], epoch, params.copy())
    return TrainResult(params=best[2], log=log, best_epoch=best[1])
