"""Whole-graph policy network that scores open molecule nodes.

The search graph is encoded with per-node, per-edge, and global states and
refined by a stack of meta layers (edge update, message-passed node update,
global update). Open-node logits come from a linear head on the final node
states; training uses binary cross-entropy on expansion labels plus a
pairwise margin ranking loss between positive and negative open nodes.

One implementation on plain arrays serves training and scoring. Node
arrays have one row per snapshot node id, in snapshot order. :func:`meta_layer`
forms each block's first affine layer as a sum of one projection per input
part (Battaglia et al., arXiv:1806.01261): ``concat([e, v_src, v_dst, u]) @
W1 = e@We + (v@Ws)[src] + (v@Wd)[dst] + u@Wu``. Node-level parts are
projected once per node and then gathered, layer 0's edge part has one row
per edge direction, and the global part is a single row, so nothing is
tiled or concatenated. The logits read only the open molecule rows, so the
last layer computes only those rows and the edges into them, and skips the
global update, which nothing reads.

Training runs that forward with tapes and a hand-derived backward that adds
into every parameter's ``.grad``; the logits and loss of each example, and
the gradients before each Adam step, are checked for finiteness once.
:func:`score`, the planner's entry point, runs the same forward without
tapes. A full first layer (in a network of two or more layers) goes
through an :class:`InferenceMemo`, which a caller scoring a growing graph
keeps across calls: an edge row is reused when its direction and both
endpoints' layer-0 rows are bit-equal to the previous snapshot's, and a
node row when its layer-0 row and in-degree are unchanged and every
incoming edge was reused. The other rows go through the edge and node
updates of :func:`meta_layer`. Without a memo every row is computed, and
the logits equal :func:`forward`'s bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import numerics as nm
from .molspace import features
from .numerics import (AdamState, BlockTape, MlpBlock, Tensor, add_grad, rbf_matrix,
                       segment_mean_array, segment_sum, zero_grads)


def is_float_setting(value) -> bool:
    """An int or float, not a bool, that converts to a float without overflow."""
    try:
        float(value)
    except (OverflowError, TypeError, ValueError):
        return False
    return type(value) in (int, float)


MAX_PARAMETERS = 2**25   # 30x the default network; 1 GiB with gradients and Adam


@dataclass(frozen=True)
class GnnHyper:
    """Architecture and loss settings for the policy network, which may have
    at most ``MAX_PARAMETERS`` values, checked before any array is made."""

    hidden: int = 128
    rbf_n: int = 64
    rbf_low: float = 0.0
    rbf_high: float = 10.0
    layers: int = 3
    feature_bits: int = 2048
    drop_rate: float = 0.1
    margin: float = 4.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (type(value) is int if f.type == "int" else is_float_setting(value)):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        for name, low in (("hidden", 1), ("rbf_n", 1), ("feature_bits", 8), ("layers", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.parameter_count > MAX_PARAMETERS:
            raise ValueError(f"{self.parameter_count} parameters exceed {MAX_PARAMETERS}")
        if not 0.0 < self.rbf_high - self.rbf_low < math.inf:
            raise ValueError(f"rbf range [{self.rbf_low}, {self.rbf_high}] is empty or infinite")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if not math.isfinite(self.margin):
            raise ValueError(f"margin must be finite, got {self.margin}")

    @property
    def parameter_count(self) -> int:
        h = self.hidden   # an MlpBlock of in-width w has (w + 2h + 3) h values
        layer = lambda v: (4 * v + 7 * h + 4 * (2 * h + 3)) * h
        return (3 * h + 1 + (self.feature_bits + 1) * self.rbf_n
                + layer(self.node_init_width) + (self.layers - 1) * layer(h))

    @property
    def rbf_tau(self) -> float:
        return (self.rbf_high - self.rbf_low) ** 2 / 4.0

    @property
    def node_init_width(self) -> int:
        # molecule: RBF(hist) + projected fingerprint; reaction: RBF + RBF
        return 2 * self.rbf_n

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GnnHyper":
        missing = [k for k in cls().to_dict() if k not in d]
        if missing:
            raise ValueError(f"policy-network settings lack {', '.join(missing)}")
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
        self.edge_emb = Tensor(nm.kaiming_uniform(rng, h, 2).T)
        self.ffn_w = Tensor(nm.kaiming_uniform(rng, hyper.feature_bits, n))
        self.ffn_b = Tensor(np.zeros(n))
        self.layer_blocks: list[_LayerBlocks] = []
        for layer in range(hyper.layers):
            v_in = hyper.node_init_width if layer == 0 else h
            self.layer_blocks.append(_LayerBlocks(
                edge=MlpBlock(h + 2 * v_in + h, h, hyper.drop_rate, rng),
                msg=MlpBlock(v_in + h, h, hyper.drop_rate, rng),
                node=MlpBlock(v_in + 2 * h, h, hyper.drop_rate, rng),
                glob=MlpBlock(2 * h, h, hyper.drop_rate, rng),
            ))
        self.out_w = Tensor(nm.kaiming_uniform(rng, h, 1))
        self.out_b = Tensor(np.zeros(1))

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
        named = params.named_tensors()
        found = nm.expect_arrays(path, arrays, {n: t.data.shape for n, t in named})
        for (_, tensor), data in zip(named, found):
            tensor.data = data
        return params


@dataclass
class ForwardResult:
    logits: np.ndarray            # open-node logits, in open_ids order
    open_ids: list[int]           # open molecule node ids, ascending


@dataclass
class _SnapshotArrays:
    """A snapshot's nodes and edges as arrays, one node row per snapshot id."""

    n_nodes: int
    mol_ids: np.ndarray          # molecule node ids, ascending
    fingerprints: list[np.ndarray]   # per molecule, in mol_ids order, shared read-only
    v_rbf: np.ndarray            # layer-0 rows before the fingerprint projection
    edge_src: np.ndarray         # node ids
    edge_dst: np.ndarray
    edge_dir: np.ndarray         # 0 molecule->reaction, 1 reaction->molecule
    open_ids: list[int]
    open_rows: np.ndarray        # open_ids as an array


def _snapshot_arrays(snap: dict, hyper: GnnHyper,
                     fingerprints: dict[str, np.ndarray] | None = None) -> _SnapshotArrays:
    """Node and edge arrays of a snapshot. Fingerprint rows are looked up in,
    and added to, *fingerprints* (molecule key -> row) when it is given."""
    nodes = snap["nodes"]
    is_mol = np.array([n["kind"] == "molecule" for n in nodes], dtype=bool)
    mol_ids = np.flatnonzero(is_mol)
    fingerprints = {} if fingerprints is None else fingerprints
    rows = []
    for i in mol_ids.tolist():
        key = nodes[i]["key"]
        row = fingerprints.get(key)
        if row is None:
            row = fingerprints[key] = features(key, hyper.feature_bits)
            row.flags.writeable = False
        rows.append(row)
    rbf = lambda xs: rbf_matrix(
        np.clip(np.array(xs, dtype=np.float64), hyper.rbf_low, hyper.rbf_high),
        hyper.rbf_low, hyper.rbf_high, hyper.rbf_n, hyper.rbf_tau)
    v_rbf = np.zeros((len(nodes), hyper.node_init_width))
    v_rbf[:, :hyper.rbf_n] = rbf([n["hist_cost"] for n in nodes])
    v_rbf[~is_mol, hyper.rbf_n:] = rbf([n["cost"] for n in nodes if n["kind"] == "reaction"])
    edges = np.array(snap["edges"], dtype=np.int64).reshape(-1, 2)
    open_ids = [i for i in mol_ids.tolist() if nodes[i]["open"]]
    return _SnapshotArrays(
        n_nodes=len(nodes), mol_ids=mol_ids, fingerprints=rows, v_rbf=v_rbf,
        edge_src=edges[:, 0], edge_dst=edges[:, 1],
        edge_dir=np.where(is_mol[edges[:, 0]], 0, 1),
        open_ids=open_ids, open_rows=np.array(open_ids, dtype=np.int64),
    )


def init_encoding(arrays: _SnapshotArrays,
                  params: GnnParameters) -> tuple[np.ndarray, np.ndarray]:
    """Layer-0 node states and the fingerprint rows they project: molecule
    nodes get RBF(hist) plus the projected fingerprint, reaction nodes
    RBF(hist) plus RBF(cost). (Edges start from a direction embedding, and
    the global state starts at zero.)"""
    feats = (np.stack(arrays.fingerprints) if arrays.fingerprints
             else np.zeros((0, params.hyper.feature_bits)))
    v = arrays.v_rbf.copy()
    v[arrays.mol_ids, params.hyper.rbf_n:] = feats @ params.ffn_w.data + params.ffn_b.data
    return v, feats


# An input part of a block's first affine layer: rows x[index] of x, or x
# itself when index is None (a single row then stands for every row).
_Part = tuple[np.ndarray, "np.ndarray | None"]
# Per part: x, and for a gathered part its distinct rows and their inverse.
_AffineTape = list[tuple[np.ndarray, "np.ndarray | None", "np.ndarray | None"]]


def _first_affine(block: MlpBlock, parts: list[_Part],
                  training: bool) -> tuple[np.ndarray, _AffineTape | None]:
    """*block*'s first affine layer on the concatenation of *parts*, as the
    sum of one projection per part. A gathered part projects each distinct
    row it names once."""
    w = block.w1.data
    out, start, tape = None, 0, []
    for x, index in parts:
        wp = w[start:start + x.shape[1]]
        start += x.shape[1]
        if index is None:
            uniq = inv = None
            proj = x @ wp
        else:
            # np.unique(index, return_inverse=True), without its sort
            mark = np.zeros(len(x), dtype=bool)
            mark[index] = True
            uniq = np.flatnonzero(mark)
            inv = (np.cumsum(mark) - 1)[index]
            proj = ((x if len(uniq) == len(x) else x[uniq]) @ wp)[inv]
        if out is None:
            out = proj
        else:
            out += proj
        tape.append((x, uniq, inv))
    out += block.b1.data
    return out, (tape if training else None)


def _first_affine_backward(block: MlpBlock, tape: _AffineTape, g: np.ndarray,
                           into: list[np.ndarray]) -> None:
    """Adds the gradients of w1 and b1 for output gradient *g*, and adds
    each part's input gradient into the matching array of *into*."""
    w = block.w1.data
    add_grad(block.b1, g.sum(axis=0))
    start = 0
    for (x, uniq, inv), target in zip(tape, into):
        part = slice(start, start + x.shape[1])
        start = part.stop
        if uniq is None:
            gp = g if len(x) == len(g) else g.sum(axis=0, keepdims=True)
            add_grad(block.w1, x.T @ gp, part)
            target += gp @ w[part].T
        else:
            gp = segment_sum(g, inv, len(uniq))
            add_grad(block.w1, (x if len(uniq) == len(x) else x[uniq]).T @ gp, part)
            target[uniq] += gp @ w[part].T


@dataclass
class _LayerTape:
    n_rows: int
    seg: np.ndarray              # message segment of each kept edge
    edge: tuple[_AffineTape, BlockTape]
    msg: tuple[_AffineTape, BlockTape]
    node: tuple[_AffineTape, BlockTape]
    glob: tuple[_AffineTape, BlockTape] | None
    shapes: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]  # v, e table, u


def meta_layer(v: np.ndarray, e: _Part, u: np.ndarray, arrays: _SnapshotArrays,
               blocks: _LayerBlocks, rows: np.ndarray | None = None,
               training: bool = False, rng: np.random.Generator | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, _LayerTape | None]:
    """One round of edge, node (via mean incoming messages), and global
    updates. Nodes with no incoming edges receive the zero message.

    Edge j's state is row j of the table ``e[0]``, or row ``e[1][j]`` when
    an index is given (layer 0's direction embedding). With *rows* None
    every node, every edge and the global state are updated. Otherwise only
    node *rows* (in that order) and the edges into them (in edge order) are,
    and the global update is skipped (``u_new`` is None). Returns
    ``(v_new, e_new, u_new, tape)``; the tape, for :func:`_meta_layer_backward`,
    is None outside training.
    """
    src, dst, n = arrays.edge_src, arrays.edge_dst, arrays.n_nodes
    full = rows is None
    rows = np.arange(n) if full else rows
    slot = np.full(n, -1, dtype=np.int64)
    slot[rows] = np.arange(len(rows))
    keep = np.flatnonzero(slot[dst] >= 0)
    e_tab, e_idx = e
    e_idx = (None if full else keep) if e_idx is None else e_idx[keep]
    e_new, per_edge, edge_tape, msg_tape = _edge_update(
        blocks, (e_tab, e_idx), v, src[keep], dst[keep], u, training, rng)
    seg = slot[dst[keep]]
    v_new, node_tape = _node_update(blocks, v, rows, per_edge, seg, u, training, rng)
    u_new, glob = _global_update(blocks.glob, u, v_new, training, rng) if full else (None, None)
    tape = (_LayerTape(len(rows), seg, edge_tape, msg_tape, node_tape, glob,
                       (v.shape, e_tab.shape, u.shape))
            if training else None)
    return v_new, e_new, u_new, tape


def _edge_update(blocks: _LayerBlocks, e: _Part, v: np.ndarray, src: np.ndarray,
                 dst: np.ndarray, u: np.ndarray, training: bool,
                 rng: np.random.Generator | None):
    """New states of the edges *src* -> *dst*, whose states are the rows of
    part *e*, and the messages they send to their targets; then the tapes
    of the edge and message blocks."""
    h1, edge_aff = _first_affine(blocks.edge, [e, (v, src), (v, dst), (u, None)], training)
    e_new, edge_blk = blocks.edge.after_first(h1, training, rng)
    h1, msg_aff = _first_affine(blocks.msg, [(v, src), (e_new, None)], training)
    per_edge, msg_blk = blocks.msg.after_first(h1, training, rng)
    return e_new, per_edge, (edge_aff, edge_blk), (msg_aff, msg_blk)


def _node_update(blocks: _LayerBlocks, v: np.ndarray, rows: np.ndarray,
                 per_edge: np.ndarray, seg: np.ndarray, u: np.ndarray, training: bool,
                 rng: np.random.Generator | None):
    """New states of node *rows*; row i averages the *per_edge* messages
    whose segment is i, in their given order. Then the node block's tape."""
    msg = segment_mean_array(per_edge, seg, len(rows))
    h1, node_aff = _first_affine(blocks.node, [(v, rows), (msg, None), (u, None)], training)
    v_new, node_blk = blocks.node.after_first(h1, training, rng)
    return v_new, (node_aff, node_blk)


def _global_update(glob: MlpBlock, u: np.ndarray, v_new: np.ndarray, training: bool,
                   rng: np.random.Generator | None
                   ) -> tuple[np.ndarray, tuple[_AffineTape, BlockTape] | None]:
    """The new global state from *u* and the mean of the new node states."""
    v_mean = v_new.sum(axis=0, keepdims=True) * (1.0 / len(v_new))
    h1, aff = _first_affine(glob, [(u, None), (v_mean, None)], training)
    u_new, blk = glob.after_first(h1, training, rng)
    return u_new, ((aff, blk) if training else None)


def _meta_layer_backward(blocks: _LayerBlocks, tape: _LayerTape, g_v: np.ndarray,
                         g_e: np.ndarray | None, g_u: np.ndarray | None
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adds the layer's parameter gradients for the gradients of its
    outputs (None where nothing reads one); returns the gradients of its
    inputs v, edge table and u."""
    v_shape, e_shape, u_shape = tape.shapes
    gv_in, ge_in, gu_in = np.zeros(v_shape), np.zeros(e_shape), np.zeros(u_shape)
    if g_u is not None:
        aff, blk = tape.glob
        g_mean = np.zeros((1, blocks.node.width))
        _first_affine_backward(blocks.glob, aff, blocks.glob.backward_after_first(blk, g_u),
                               [gu_in, g_mean])
        g_v = g_v + g_mean * (1.0 / tape.n_rows)
    aff, blk = tape.node
    g_msg = np.zeros((tape.n_rows, blocks.msg.width))
    _first_affine_backward(blocks.node, aff, blocks.node.backward_after_first(blk, g_v),
                           [gv_in, g_msg, gu_in])
    sizes = np.maximum(np.bincount(tape.seg, minlength=tape.n_rows), 1).astype(np.float64)
    g_per_edge = g_msg[tape.seg] / sizes[tape.seg, None]
    aff, blk = tape.msg
    g_e_new = np.zeros((len(tape.seg), blocks.edge.width))
    _first_affine_backward(blocks.msg, aff, blocks.msg.backward_after_first(blk, g_per_edge),
                           [gv_in, g_e_new])
    if g_e is not None:
        g_e_new += g_e
    aff, blk = tape.edge
    _first_affine_backward(blocks.edge, aff, blocks.edge.backward_after_first(blk, g_e_new),
                           [ge_in, gv_in, gv_in, gu_in])
    return gv_in, ge_in, gu_in


def _forward(arrays: _SnapshotArrays, params: GnnParameters, training: bool = False,
             rng: np.random.Generator | None = None, memo: "InferenceMemo | None" = None):
    """Open-node logits of a snapshot's arrays, and in training mode the
    tape :func:`_backward` reads (None otherwise). Every layer but the last
    runs in full; the last computes only the open rows. A full first layer
    goes through *memo* when one is given."""
    hy = params.hyper
    with np.errstate(over="ignore", invalid="ignore"):
        v, feats = init_encoding(arrays, params)
        e = (params.edge_emb.data, arrays.edge_dir)
        u = np.zeros((1, hy.hidden))
        layer_tapes = []
        last = len(params.layer_blocks) - 1
        for depth, blocks in enumerate(params.layer_blocks):
            rows = arrays.open_rows if depth == last else None
            if depth == 0 and rows is None and memo is not None:
                v, e_new = memo.first_layer(v, e, u, arrays, blocks)
                u = _global_update(blocks.glob, u, v, False, None)[0]
            else:
                v, e_new, u, layer_tape = meta_layer(v, e, u, arrays, blocks, rows,
                                                     training, rng)
                layer_tapes.append(layer_tape)
            e = (e_new, None)
        logits = (v @ params.out_w.data + params.out_b.data)[:, 0]
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite value produced by the policy network")
    return logits, ((feats, layer_tapes, v) if training else None)


def _backward(arrays: _SnapshotArrays, params: GnnParameters, tape,
              g_logits: np.ndarray) -> None:
    """Adds every parameter's gradient for the logits' gradient *g_logits*.
    The last layer's global update was skipped, so its parameters get none."""
    feats, layer_tapes, v_head = tape
    g = g_logits[:, None]
    add_grad(params.out_w, v_head.T @ g)
    add_grad(params.out_b, g.sum(axis=0))
    g_v = g @ params.out_w.data.T
    g_e = g_u = None
    with np.errstate(over="ignore", invalid="ignore"):
        for blocks, layer_tape in zip(params.layer_blocks[::-1], layer_tapes[::-1]):
            g_v, g_e, g_u = _meta_layer_backward(blocks, layer_tape, g_v, g_e, g_u)
        add_grad(params.edge_emb, g_e)
        g_proj = g_v[arrays.mol_ids, params.hyper.rbf_n:]
        add_grad(params.ffn_w, feats.T @ g_proj)
        add_grad(params.ffn_b, g_proj.sum(axis=0))


def forward(snap: dict, params: GnnParameters) -> ForwardResult:
    """Inference-mode logits of a snapshot's open molecule nodes."""
    arrays = _snapshot_arrays(snap, params.hyper)
    return ForwardResult(logits=_forward(arrays, params)[0], open_ids=arrays.open_ids)


@dataclass
class ScoreResult:
    logit: dict[int, float]
    normalized: dict[int, float]   # softmax over open nodes; sums to 1


class InferenceMemo:
    """What :func:`score` keeps between calls with one network: a fingerprint
    row per molecule key, and the first meta layer's rows of the latest
    snapshot, by snapshot node id and by ``(src, dst)`` edge.

    The layer-0 global state is zero, so a first-layer edge row depends only
    on its direction and its endpoints' layer-0 rows, and a node row only on
    its own layer-0 row and its incoming edges. An edge row is reused when
    its direction and both endpoints' layer-0 rows are bit-equal to the
    memo's; a node row when its layer-0 row and in-degree are unchanged and
    every incoming edge was reused. Rows are validated by content, so a
    snapshot of another graph simply misses. A memo serves one network
    whose weights do not change, and holds only the latest snapshot's rows.
    Only networks of two or more layers read the first-layer rows; a
    one-layer network's only layer is pruned to the open rows.
    """

    def __init__(self) -> None:
        self.fingerprints: dict[str, np.ndarray] = {}
        self.node_v0 = np.zeros((0, 0))              # layer-0 rows
        self.node_v1 = np.zeros((0, 0))              # first-layer rows
        self.in_degree = np.zeros(0, dtype=np.int64)
        self.edge_keys = np.zeros(0, dtype=np.int64)  # src << 32 | dst, sorted
        self.edge_dir = np.zeros(0, dtype=np.int64)
        self.edge_e1 = np.zeros((0, 0))              # first-layer edge states
        self.edge_m1 = np.zeros((0, 0))              # and their messages

    def first_layer(self, v: np.ndarray, e: _Part, u: np.ndarray,
                    arrays: _SnapshotArrays, blocks: _LayerBlocks
                    ) -> tuple[np.ndarray, np.ndarray]:
        """:func:`meta_layer`'s new node and edge states for the full first
        layer (zero global state), without the global update. Rows that
        cannot be reused go through meta_layer's edge and node updates, one
        batch per block; each recomputed node averages all its incoming
        messages in edge order. The memo then holds this snapshot's rows."""
        src, dst, n = arrays.edge_src, arrays.edge_dst, arrays.n_nodes
        in_degree = np.bincount(dst, minlength=n)
        # same: layer-0 row unchanged; stable: also in-degree unchanged
        same = np.zeros(n, dtype=bool)
        stable = np.zeros(n, dtype=bool)
        m = min(n, len(self.node_v0))
        if m:
            same[:m] = (v[:m].view(np.uint64) == self.node_v0[:m].view(np.uint64)).all(axis=1)
            stable[:m] = same[:m] & (self.in_degree[:m] == in_degree[:m])
        keys = (src << 32) | dst
        pos = np.zeros(len(keys), dtype=np.int64)
        edge_hit = np.zeros(len(keys), dtype=bool)
        if len(self.edge_keys):
            pos = np.minimum(np.searchsorted(self.edge_keys, keys), len(self.edge_keys) - 1)
            edge_hit = ((self.edge_keys[pos] == keys) & (self.edge_dir[pos] == arrays.edge_dir)
                        & same[src] & same[dst])
        e_new = np.empty((len(keys), blocks.edge.width))
        per_edge = np.empty((len(keys), blocks.msg.width))
        if edge_hit.any():
            e_new[edge_hit] = self.edge_e1[pos[edge_hit]]
            per_edge[edge_hit] = self.edge_m1[pos[edge_hit]]
        miss = np.flatnonzero(~edge_hit)
        e_new[miss], per_edge[miss], _, _ = _edge_update(
            blocks, (e[0], e[1][miss]), v, src[miss], dst[miss], u, False, None)
        reuse = stable & (np.bincount(dst[miss], minlength=n) == 0)
        v_new = np.empty((n, blocks.node.width))
        if reuse.any():
            v_new[reuse] = self.node_v1[np.flatnonzero(reuse)]
        need = np.flatnonzero(~reuse)
        need_slot = np.full(n, -1, dtype=np.int64)
        need_slot[need] = np.arange(len(need))
        into_need = need_slot[dst] >= 0
        v_new[need], _ = _node_update(blocks, v, need, per_edge[into_need],
                                      need_slot[dst[into_need]], u, False, None)
        self.node_v0, self.node_v1, self.in_degree = v, v_new, in_degree
        order = np.argsort(keys)
        self.edge_keys, self.edge_dir = keys[order], arrays.edge_dir[order]
        self.edge_e1, self.edge_m1 = e_new[order], per_edge[order]
        return v_new, e_new


def score(snap: dict, params: GnnParameters,
          memo: InferenceMemo | None = None) -> ScoreResult:
    """Inference-mode scores for every open molecule node of a snapshot.

    A caller scoring many snapshots with one network may pass the same
    *memo* each time, so that each molecule is hashed once and first-layer
    rows that did not change since the previous snapshot are reused. Without
    one, an empty memo computes every row, and the logits equal
    :func:`forward`'s.
    """
    memo = InferenceMemo() if memo is None else memo
    arrays = _snapshot_arrays(snap, params.hyper, memo.fingerprints)
    if not arrays.open_ids:
        raise ValueError("snapshot has no open molecule nodes to score")
    raw = _forward(arrays, params, memo=memo)[0]
    shifted = np.exp(raw - raw.max())
    norm = shifted / shifted.sum()
    return ScoreResult(
        logit=dict(zip(arrays.open_ids, raw.tolist())),
        normalized=dict(zip(arrays.open_ids, norm.tolist())),
    )


@dataclass
class LossTerms:
    total: float
    bce: float
    rank: float
    grad: np.ndarray     # d total / d logits


def loss_terms(logits: np.ndarray, labels: np.ndarray, margin: float) -> LossTerms:
    """(total, bce, rank) and the total's gradient for one graph's open-node
    logits and 0/1 labels.

    The rank term penalizes every positive/negative pair whose logit gap
    falls short of the margin; it is zero by convention when either side is
    empty.
    """
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64)
    k = len(z)
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-z))
    bce = (y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)).sum() * (1.0 / k)
    grad = (sig - y) * (1.0 / k)
    pos_idx = np.flatnonzero(y == 1)
    neg_idx = np.flatnonzero(y == 0)
    rank = 0.0
    if len(pos_idx) and len(neg_idx):
        short = margin - (z[pos_idx, None] - z[None, neg_idx])
        active = short > 0.0
        scale = 1.0 / active.size
        rank = (short * active).sum() * scale
        grad[pos_idx] -= active.sum(axis=1) * scale
        grad[neg_idx] += active.sum(axis=0) * scale
    return LossTerms(total=float(bce + rank), bce=float(bce), rank=float(rank), grad=grad)


@dataclass
class _Prepared:
    """A training example as arrays: built once, read in every epoch."""

    arrays: _SnapshotArrays
    labels: np.ndarray           # 0/1 per open node, in open_ids order


def _prepare(example, hyper: GnnHyper,
             fingerprints: dict[str, np.ndarray] | None = None) -> _Prepared:
    if isinstance(example, _Prepared):
        return example
    arrays = _snapshot_arrays(example.snapshot, hyper, fingerprints)
    if sorted(example.labels) != arrays.open_ids:
        raise ValueError(
            f"label keys {sorted(example.labels)} do not match open nodes "
            f"{arrays.open_ids}"
        )
    labels = np.array([example.labels[i] for i in arrays.open_ids], dtype=np.float64)
    return _Prepared(arrays, labels)


def example_loss(example, params: GnnParameters, training: bool = False,
                 rng: np.random.Generator | None = None) -> LossTerms:
    """Loss terms for one training example (snapshot plus open-node labels).
    In training mode (dropout on) the total loss's gradient is also added
    into every parameter's ``.grad``, once the loss is known to be finite."""
    ex = _prepare(example, params.hyper)
    logits, tape = _forward(ex.arrays, params, training, rng)
    terms = loss_terms(logits, ex.labels, params.hyper.margin)
    if not math.isfinite(terms.total):
        raise FloatingPointError("non-finite loss produced by the policy network")
    if training:
        _backward(ex.arrays, params, tape, terms.grad)
    return terms


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
        terms = example_loss(ex, params, training=False)
        total += terms.total
        bce += terms.bce
        rank += terms.rank
    n = len(examples)
    return {"bce": bce / n, "rank": rank / n, "total": total / n}


def pairwise_accuracy(examples, params: GnnParameters) -> float:
    """Share of positive/negative open-node pairs ranked correctly."""
    correct = count = 0
    for ex in examples:
        out = forward(ex.snapshot, params)
        raw = out.logits.tolist()
        pos = [r for i, r in zip(out.open_ids, raw) if ex.labels[i] == 1]
        neg = [r for i, r in zip(out.open_ids, raw) if ex.labels[i] == 0]
        for p in pos:
            for q in neg:
                correct += p > q
                count += 1
    if count == 0:
        raise ValueError("dataset has no positive/negative pairs to rank")
    return correct / count


@np.errstate(over="ignore", invalid="ignore")   # divergence raises FloatingPointError
def train(train_set, val_set, hyper: GnnHyper, seed: int = 0, epochs: int = 20,
          batch_size: int = 32, lr: float = 1e-4) -> TrainResult:
    """Minibatch Adam training; per-graph losses are averaged within each
    batch, and the checkpoint with the lowest validation rank loss wins.

    Each example's arrays are built once, with one fingerprint per distinct
    molecule. Deterministic for a fixed seed: shuffling and dropout draw
    from seeded generators only.
    """
    if not train_set or not val_set:
        raise ValueError("training needs non-empty train and validation sets")
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")
    fingerprints: dict[str, np.ndarray] = {}
    train_set = [_prepare(ex, hyper, fingerprints) for ex in train_set]
    val_set = [_prepare(ex, hyper, fingerprints) for ex in val_set]
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
                # each example's tapes are freed before the next is built;
                # gradients accumulate on the parameters until the step
                terms = example_loss(ex, params, training=True, rng=drop_rng)
                sums["bce"] += terms.bce
                sums["rank"] += terms.rank
                sums["total"] += terms.total
            grads = [t.grad for t in params.tensors() if t.grad is not None]
            for g in grads:
                g *= 1.0 / len(batch)
            if not all(np.isfinite(g).all() for g in grads):
                raise FloatingPointError("non-finite gradient in the policy network")
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
