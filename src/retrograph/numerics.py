"""Minimal dense numerics: parameter tensors, residual MLP blocks on
arrays, Adam, radial-basis embeddings, and a versioned binary weight file.

Everything is numpy-backed and deterministic for a fixed seed. A
:class:`Tensor` holds a float64 array and its gradient. Gradients are
derived by hand: :class:`MlpBlock`'s backward and the value net's loss
step (``costmodel``) add into their parameters' ``.grad``, and Adam steps
the parameters from there. Finiteness is checked where a tensor is built
and once per loss or update; any NaN or Inf raises ``FloatingPointError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np


def _check_finite(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError("non-finite value produced by a tensor operation")
    return arr


class Tensor:
    """A float64 array and its gradient; a loss also holds its gradient step."""

    __slots__ = ("data", "grad", "_step")

    def __init__(self, data, step: Callable[[], None] | None = None):
        self.data = _check_finite(np.asarray(data, dtype=np.float64))
        self.grad: np.ndarray | None = None
        self._step = step

    def backward(self) -> None:
        """Runs the gradient step this loss was built with."""
        if self._step is None:
            raise ValueError("backward() needs a loss tensor built with its gradient step")
        self._step()


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def segment_mean_array(data: np.ndarray, segments: np.ndarray,
                       num_segments: int) -> np.ndarray:
    """Row-wise mean of *data* grouped by segment id (see
    :func:`segment_sum`); an empty segment gives a zero row, so an empty
    incoming-edge set contributes no message."""
    out = segment_sum(data, segments, num_segments)
    # an empty segment counts as size 1, so its zero sum stays zero
    out /= np.maximum(np.bincount(segments, minlength=num_segments), 1.0)[:, None]
    return out


def segment_sum(data: np.ndarray, segments: np.ndarray,
                num_segments: int) -> np.ndarray:
    """Row-wise sum of *data* grouped by segment id. Rows are added one at a
    time in their given order, so a segment's sum does not depend on which
    other segments are present; the bits equal ``np.add.at`` into zeros."""
    width = data.shape[1]
    flat = (segments[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(flat, weights=data.ravel(), minlength=num_segments * width)
    # with no rows at all, bincount returns integer zeros
    return out.astype(np.float64, copy=False).reshape(num_segments, width)


def dropout_mask(shape: tuple[int, ...], rate: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Inverted-scale keep mask: 0 with probability *rate*, else 1/(1-rate)."""
    return (rng.random(shape) >= rate) / (1.0 - rate)


def add_grad(t: Tensor, g: np.ndarray, part: slice = slice(None)) -> None:
    """Adds *g* into ``t.grad[part]``, starting from zero on first use."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad[part] += g


def kaiming_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


@dataclass
class BlockTape:
    """What :meth:`MlpBlock.backward_after_first` reads of one forward call."""

    h1: np.ndarray
    a1: np.ndarray                # relu(h1), after dropout
    h2: np.ndarray
    a2: np.ndarray
    m1: np.ndarray | None         # dropout masks (None: no dropout)
    m2: np.ndarray | None


class MlpBlock:
    """Three affine layers with ReLU and a residual connection, on arrays.

    The caller forms the first affine layer's output ``h1 = L1(x)`` itself,
    for example as a sum of one projection per input part, and passes it
    to :meth:`after_first`, which computes ``y = h1 + L3(ReLU(L2(ReLU(h1))))``
    with dropout after each ReLU in training mode. The residual is always
    on the first layer's output. :meth:`backward_after_first` reads the
    tape a training-mode call returns.
    """

    def __init__(self, in_width: int, width: int, drop_rate: float,
                 rng: np.random.Generator):
        self.width = width
        self.drop_rate = drop_rate
        self.w1 = Tensor(kaiming_uniform(rng, in_width, width))
        self.b1 = Tensor(np.zeros(width))
        self.w2 = Tensor(kaiming_uniform(rng, width, width))
        self.b2 = Tensor(np.zeros(width))
        self.w3 = Tensor(kaiming_uniform(rng, width, width))
        self.b3 = Tensor(np.zeros(width))

    def parameters(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def after_first(self, h1: np.ndarray, training: bool = False,
                    rng: np.random.Generator | None = None
                    ) -> tuple[np.ndarray, BlockTape | None]:
        """The block from its first affine layer's output *h1* on:
        (output, tape in training mode or None)."""
        drop = training and self.drop_rate > 0.0
        if drop and rng is None:
            raise ValueError("training-mode forward needs an rng for dropout")
        a1 = h1 * (h1 > 0.0)
        m1 = dropout_mask(a1.shape, self.drop_rate, rng) if drop else None
        if drop:
            a1 = a1 * m1
        h2 = a1 @ self.w2.data + self.b2.data
        a2 = h2 * (h2 > 0.0)
        m2 = dropout_mask(a2.shape, self.drop_rate, rng) if drop else None
        if drop:
            a2 = a2 * m2
        h3 = a2 @ self.w3.data + self.b3.data
        tape = BlockTape(h1, a1, h2, a2, m1, m2) if training else None
        return h1 + h3, tape

    def backward_after_first(self, tape: BlockTape, g: np.ndarray) -> np.ndarray:
        """Adds the gradients of w2, b2, w3 and b3 for output gradient *g*;
        returns the gradient of h1, residual included."""
        add_grad(self.w3, tape.a2.T @ g)
        add_grad(self.b3, g.sum(axis=0))
        g2 = (g @ self.w3.data.T) * (tape.h2 > 0.0)
        if tape.m2 is not None:
            g2 *= tape.m2
        add_grad(self.w2, tape.a1.T @ g2)
        add_grad(self.b2, g2.sum(axis=0))
        g1 = (g2 @ self.w2.data.T) * (tape.h1 > 0.0)
        if tape.m1 is not None:
            g1 *= tape.m1
        g1 += g
        return g1


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Adam with bias correction over a fixed parameter list (beta1 0.9,
    beta2 0.999, eps 1e-8)."""

    def __init__(self, params: Sequence[Tensor], lr: float):
        if not 0.0 <= lr < math.inf:
            raise ValueError(f"learning rate must be finite and >= 0, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """One update from the gradients stored on the parameters; a missing
        (None) gradient is treated as zero and leaves the parameter put."""
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = _BETA1 * self.m[i] + (1.0 - _BETA1) * g
            self.v[i] = _BETA2 * self.v[i] + (1.0 - _BETA2) * g * g
            m_hat = self.m[i] / (1.0 - _BETA1 ** self.t)
            v_hat = self.v[i] / (1.0 - _BETA2 ** self.t)
            p.data = _check_finite(p.data - self.lr * m_hat / (np.sqrt(v_hat) + _EPS))


def rbf(x: float, low: float = 0.0, high: float = 10.0, n: int = 64,
        tau: float | None = None) -> np.ndarray:
    """Radial-basis embedding of a scalar over n evenly spaced centers.

    Component i is exp(-(x - (low + i*(high-low)/n))**2 / tau); the default
    bandwidth is tau = (high-low)**2 / 4.
    """
    return rbf_matrix(np.array([x]), low, high, n, tau)[0]


def rbf_matrix(xs: np.ndarray, low: float = 0.0, high: float = 10.0, n: int = 64,
               tau: float | None = None) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if not np.all(np.isfinite(xs)):
        raise FloatingPointError("rbf input must be finite")
    if n < 1:
        raise ValueError(f"rbf needs n >= 1 centers, got {n}")
    if not high > low:
        raise ValueError(f"rbf needs high > low, got [{low}, {high}]")
    if tau is None:
        tau = (high - low) ** 2 / 4.0
    if tau <= 0.0:
        raise ValueError(f"rbf bandwidth must be > 0, got {tau}")
    centers = low + np.arange(n) * (high - low) / n
    return np.exp(-((xs[:, None] - centers[None, :]) ** 2) / tau)


# -- weight files -----------------------------------------------------------

WEIGHT_FILE_VERSION = 1


def save_weights(path: str | Path, named_arrays: Sequence[tuple[str, np.ndarray]],
                 hyper: dict) -> None:
    """Write a versioned JSON header plus the flat little-endian float64
    concatenation of the arrays, in order."""
    header = {
        "version": WEIGHT_FILE_VERSION,
        "hyper": hyper,
        "tensors": [{"name": name, "shape": list(arr.shape)} for name, arr in named_arrays],
    }
    blob = b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in named_arrays
    )
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(blob)


def load_weights(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a weight file back into {name: array} plus its hyperparameters.

    Version mismatches and truncated payloads raise before any array is
    returned.
    """
    raw = Path(path).read_bytes()
    split = raw.find(b"\n")
    if split < 0:
        raise ValueError(f"{path}: missing weight-file header")
    header = json.loads(raw[:split].decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError(f"{path}: weight-file header is not a JSON object")
    if header.get("version") != WEIGHT_FILE_VERSION:
        raise ValueError(
            f"{path}: unsupported weight-file version {header.get('version')!r}"
        )
    if not (isinstance(header.get("hyper"), dict) and isinstance(header.get("tensors"), list)):
        raise ValueError(f"{path}: weight-file header needs a 'hyper' object and a 'tensors' list")
    for spec in header["tensors"]:
        if not (isinstance(spec, dict) and isinstance(spec.get("name"), str)
                and isinstance(spec.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in spec["shape"])):
            raise ValueError(f"{path}: bad tensor entry {spec!r} in the weight-file header")
    blob = raw[split + 1:]
    expected = sum(int(np.prod(spec["shape"])) for spec in header["tensors"])
    if len(blob) != expected * 8:
        raise ValueError(
            f"{path}: weight payload has {len(blob)} bytes, expected {expected * 8}"
        )
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for spec in header["tensors"]:
        count = int(np.prod(spec["shape"]))
        flat = np.frombuffer(blob, dtype="<f8", count=count, offset=offset * 8)
        arrays[spec["name"]] = flat.astype(np.float64).reshape(spec["shape"])
        offset += count
    return arrays, header["hyper"]


def expect_arrays(path: str | Path, arrays: dict[str, np.ndarray],
                  shapes: dict[str, tuple[int, ...]]) -> list[np.ndarray]:
    """The arrays named in *shapes*, in its order; a missing array or one of
    another shape raises."""
    for name, shape in shapes.items():
        got = arrays[name].shape if name in arrays else "missing"
        if got != shape:
            raise ValueError(f"{path}: tensor {name!r} is {got}, expected shape {shape}")
    return [arrays[name] for name in shapes]
