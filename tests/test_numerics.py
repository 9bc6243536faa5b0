"""Tensor, MLP-block, optimizer, RBF, and weight-file tests.

Gradient correctness is checked against central finite differences; the
closed-form values (RBF components, Adam's first step) were computed by hand
and frozen here.
"""

import math

import numpy as np
import pytest

from retrograph.costmodel import value_net_loss
from retrograph.numerics import (
    AdamState,
    MlpBlock,
    Tensor,
    add_grad,
    dropout_mask,
    kaiming_uniform,
    load_weights,
    rbf,
    rbf_matrix,
    save_weights,
    segment_mean_array,
    segment_sum,
    zero_grads,
)
from retrograph.policygnn import GnnHyper


def numeric_grad(f, arrays, which, h=1e-6):
    """Central-difference gradient of scalar f with respect to arrays[which]."""
    base = arrays[which]
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = base[idx]
        base[idx] = orig + h
        up = f(arrays)
        base[idx] = orig - h
        down = f(arrays)
        base[idx] = orig
        grad[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return grad


def check_block_grads(block):
    """The block's hand-written backward from its first layer's output h1
    on, against central differences of sum(y * y). Dropout masks come from
    the same seed in every evaluation; nonzero biases keep a dropped row off
    the relu kink."""
    for b in (block.b2, block.b3):
        b.data = RNG.normal(size=b.data.shape)
    h1 = RNG.normal(size=(3, block.width))

    def run(h1):
        return block.after_first(h1, training=True, rng=np.random.default_rng(3))

    zero_grads(block.parameters())
    y, tape = run(h1)
    g1 = block.backward_after_first(tape, 2.0 * y)
    assert block.w1.grad is None and block.b1.grad is None
    params = block.parameters()[2:]
    hold = [p.data.copy() for p in params] + [h1]

    def f(arrs):
        for p, a in zip(params, arrs):
            p.data = a
        out = float(np.sum(run(arrs[-1])[0] ** 2))
        for p, a in zip(params, hold):
            p.data = a
        return out

    for i, got in enumerate([p.grad for p in params] + [g1]):
        fd = numeric_grad(f, [h.copy() for h in hold], i)
        np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-7)


RNG = np.random.default_rng(1234)


class TestGradients:
    def test_value_net_loss_gradients(self):
        # the value net's hand-derived step against central differences of
        # its loss, for w1, b1, w2 and b2
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(6, 5)), rng.normal(size=(6, 1))
        arrays = [rng.normal(size=(5, 4)), rng.normal(size=4),
                  rng.normal(size=(4, 1)), rng.normal(size=1)]
        assert np.abs(x @ arrays[0] + arrays[1]).min() > 1e-3   # off the relu kinks
        params = [Tensor(a.copy()) for a in arrays]
        value_net_loss(x, y, params).backward()

        def f(arrs):
            return value_net_loss(x, y, [Tensor(a) for a in arrs]).data.item()

        for i, p in enumerate(params):
            fd = numeric_grad(f, [a.copy() for a in arrays], i)
            np.testing.assert_allclose(p.grad, fd, rtol=1e-6, atol=1e-8)

    def test_mlp_block_gradients(self):
        check_block_grads(MlpBlock(5, 4, 0.0, np.random.default_rng(7)))

    def test_mlp_block_gradients_equal_width(self):
        # an equal-width block's residual is h1 too, not the block input
        check_block_grads(MlpBlock(4, 4, 0.0, np.random.default_rng(8)))

    def test_mlp_block_gradients_with_dropout(self):
        check_block_grads(MlpBlock(5, 4, 0.4, np.random.default_rng(7)))


class TestTensorBasics:
    def test_backward_needs_a_step(self):
        # only a loss built with its gradient step can run one
        with pytest.raises(ValueError, match="gradient step"):
            Tensor(np.ones(1)).backward()

    def test_nan_and_inf_raise(self):
        with pytest.raises(FloatingPointError):
            Tensor(np.array([np.nan]))
        with pytest.raises(FloatingPointError):
            Tensor(np.array([np.inf]))

    def test_zero_grads(self):
        a = Tensor(np.ones(2))
        add_grad(a, np.array([1.0, 2.0]))
        add_grad(a, np.array([3.0]), slice(1, 2))
        np.testing.assert_array_equal(a.grad, [1.0, 5.0])
        zero_grads([a])
        assert a.grad is None


class TestDropout:
    def test_rate_zero_is_identity(self):
        mask = dropout_mask((4, 4), 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(mask, np.ones((4, 4)))

    def test_invalid_rate(self):
        # the rate is checked where it enters, in the network's settings
        for rate in (-0.1, 1.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match="drop_rate"):
                GnnHyper(drop_rate=rate)

    def test_inverted_scaling_preserves_mean(self):
        mask = dropout_mask((400, 400), 0.3, np.random.default_rng(99))
        kept = mask[mask > 0]
        assert np.allclose(kept, 1.0 / 0.7)
        assert mask.mean() == pytest.approx(1.0, abs=0.01)

    def test_deterministic_given_rng_seed(self):
        out1 = dropout_mask((8, 8), 0.5, np.random.default_rng(5))
        out2 = dropout_mask((8, 8), 0.5, np.random.default_rng(5))
        np.testing.assert_array_equal(out1, out2)


class TestSegmentOps:
    def test_segment_mean_values_and_empty_segment(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = segment_mean_array(a, np.array([0, 0, 2]), 3)
        np.testing.assert_allclose(out, [[2.0, 3.0], [0.0, 0.0], [5.0, 6.0]])

    def test_segment_sum_matches_add_at_bits(self):
        data = RNG.normal(size=(40, 7))
        seg = RNG.integers(0, 9, size=40)
        want = np.zeros((12, 7))
        np.add.at(want, seg, data)
        np.testing.assert_array_equal(segment_sum(data, seg, 12), want)
        empty = segment_sum(np.zeros((0, 7)), np.zeros(0, dtype=np.int64), 3)
        assert empty.dtype == np.float64 and not empty.any() and empty.shape == (3, 7)


class TestMlpBlock:
    def test_training_without_rng_rejected(self):
        block = MlpBlock(4, 4, 0.2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            block.after_first(np.ones((2, 4)), training=True)

    def test_zero_weights_equal_width_is_identity(self):
        # the residual is the first layer's output h1, whatever the widths
        block = MlpBlock(3, 3, 0.0, np.random.default_rng(0))
        for p in block.parameters():
            p.data = np.zeros_like(p.data)
        h1 = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_allclose(block.after_first(h1)[0], h1)

    def test_zero_weights_projection_is_zero(self):
        # the residual is the projected path, which is all zeros when the
        # weights are
        block = MlpBlock(5, 3, 0.0, np.random.default_rng(0))
        for p in block.parameters():
            p.data = np.zeros_like(p.data)
        out, _ = block.after_first(np.ones((2, 5)) @ block.w1.data + block.b1.data)
        np.testing.assert_allclose(out, np.zeros((2, 3)))

    def test_output_shape(self):
        block = MlpBlock(7, 4, 0.0, np.random.default_rng(1))
        assert block.w1.data.shape == (7, 4)
        out, tape = block.after_first(np.ones((6, 4)))
        assert out.shape == (6, 4)
        assert tape is None     # no tape outside training


class TestKaiming:
    def test_bound_and_shape(self):
        w = kaiming_uniform(np.random.default_rng(0), 24, 8)
        assert w.shape == (24, 8)
        bound = math.sqrt(6.0 / 24)
        assert np.all(np.abs(w) <= bound)
        # the sample should actually use the range, not collapse near zero
        assert np.abs(w).max() > 0.8 * bound


class TestAdam:
    def test_first_step_matches_hand_computation(self):
        # one step with constant gradient 3.0 at lr 0.1:
        # m_hat = 3, v_hat = 9, delta = -0.1 * 3/(3 + 1e-8)
        p = Tensor(np.array([1.0]))
        opt = AdamState([p], lr=0.1)
        p.grad = np.array([3.0])
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.09999999966666669, abs=1e-15)

    def test_none_grad_is_noop(self):
        p = Tensor(np.array([5.0]))
        opt = AdamState([p], lr=0.5)
        p.grad = None
        opt.step()
        assert p.data[0] == 5.0

    def test_descends_quadratic(self):
        p = Tensor(np.array([4.0]))
        opt = AdamState([p], lr=0.05)
        for _ in range(400):
            zero_grads([p])
            add_grad(p, 2.0 * p.data)      # d(p^2)/dp
            opt.step()
        assert abs(p.data[0]) < 0.1

    def test_lr_is_required(self):
        with pytest.raises(TypeError):
            AdamState([Tensor(np.zeros(1))])

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            AdamState([Tensor(np.zeros(1))], lr=-1.0)


class TestRbf:
    def test_center_hit_is_one(self):
        emb = rbf(5.0, low=0.0, high=10.0, n=64)
        assert emb.shape == (64,)
        assert emb[32] == 1.0
        assert rbf(0.0)[0] == 1.0

    def test_unit_offset_value(self):
        # center 32 sits at exactly 5.0; tau = 25
        assert rbf(6.0)[32] == pytest.approx(0.9607894391523232, abs=1e-15)
        assert rbf(5.0)[0] == pytest.approx(0.36787944117144233, abs=1e-15)

    def test_matrix_matches_scalar(self):
        xs = np.array([0.0, 1.5, 9.0])
        mat = rbf_matrix(xs, n=16)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(mat[i], rbf(x, n=16))

    def test_validation(self):
        with pytest.raises(FloatingPointError):
            rbf(float("inf"))
        with pytest.raises(ValueError):
            rbf(1.0, n=0)
        with pytest.raises(ValueError):
            rbf(1.0, low=3.0, high=3.0)
        with pytest.raises(ValueError):
            rbf(1.0, tau=0.0)


class TestWeightFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        named = [("a", rng.normal(size=(3, 4))), ("b", rng.normal(size=(7,)))]
        path = tmp_path / "w.bin"
        save_weights(path, named, {"bits": 64, "variant": "test"})
        arrays, hyper = load_weights(path)
        assert hyper == {"bits": 64, "variant": "test"}
        assert set(arrays) == {"a", "b"}
        np.testing.assert_array_equal(arrays["a"], named[0][1])
        np.testing.assert_array_equal(arrays["b"], named[1][1])

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(path, [("a", np.ones((2, 2)))], {})
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="expected"):
            load_weights(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(path, [("a", np.ones(2))], {})
        raw = path.read_bytes()
        head, _, blob = raw.partition(b"\n")
        import json
        header = json.loads(head)
        header["version"] = 999
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        with pytest.raises(ValueError, match="version"):
            load_weights(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"\x00\x01\x02")
        with pytest.raises(ValueError):
            load_weights(path)
