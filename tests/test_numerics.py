"""Autodiff, MLP-block, optimizer, RBF, and weight-file tests.

Gradient correctness is checked against central finite differences; the
closed-form values (RBF components, Adam's first step) were computed by hand
and frozen here.
"""

import math

import numpy as np
import pytest

from retrograph.numerics import (
    AdamState,
    MlpBlock,
    Tensor,
    dropout_mask,
    kaiming_uniform,
    load_weights,
    matmul,
    rbf,
    rbf_matrix,
    relu,
    save_weights,
    segment_mean_array,
    segment_sum,
    tmean,
    tsum,
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


def check_grads(build, arrays, rtol=1e-6, atol=1e-8):
    """build(tensors) -> scalar Tensor; compares autodiff grads to FD."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(tensors)
    out.backward()

    def f(arrs):
        ts = [Tensor(a) for a in arrs]
        return build(ts).data.item()

    for i, t in enumerate(tensors):
        # numeric_grad perturbs entries in place, so hand it fresh copies
        fd = numeric_grad(f, [a.copy() for a in arrays], i)
        assert t.grad is not None, f"missing grad for input {i}"
        np.testing.assert_allclose(t.grad, fd, rtol=rtol, atol=atol)


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
    def test_add_mul_broadcast(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(1, 4))
        check_grads(lambda ts: tsum((ts[0] + ts[1]) * ts[0]), [a, b])

    def test_sub_and_scalar_ops(self):
        a = RNG.normal(size=(2, 3))
        check_grads(lambda ts: tsum(ts[0] * 2.0 - ts[0] * ts[0] + 1.0), [a])

    def test_matmul(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        check_grads(lambda ts: tsum(matmul(ts[0], ts[1])), [a, b])

    def test_relu(self):
        # keep values away from the kink where FD is ill-defined
        a = RNG.normal(size=(3, 3))
        a[np.abs(a) < 0.05] = 0.5
        check_grads(lambda ts: tsum(relu(ts[0]) * ts[0]), [a])

    def test_sum_axis_and_mean(self):
        # tsum and tmean reduce every entry; the value net's loss is a tmean
        a = RNG.normal(size=(3, 4))
        check_grads(lambda ts: tsum(ts[0] * 2.0) * tsum(ts[0]), [a])
        check_grads(lambda ts: tmean(ts[0] * ts[0]), [a])
        assert tmean(Tensor(a)).data.item() == pytest.approx(a.mean(), abs=1e-15)

    def test_shared_subexpression_accumulates(self):
        x = Tensor(np.array([[2.0]]), requires_grad=True)
        y = x * x + x * x        # 2x^2, dy/dx = 4x = 8
        tsum(y).backward()
        assert x.grad is not None and x.grad.item() == pytest.approx(8.0)

    def test_mlp_block_gradients(self):
        check_block_grads(MlpBlock(5, 4, 0.0, np.random.default_rng(7)))

    def test_mlp_block_gradients_equal_width(self):
        # an equal-width block's residual is h1 too, not the block input
        check_block_grads(MlpBlock(4, 4, 0.0, np.random.default_rng(8)))

    def test_mlp_block_gradients_with_dropout(self):
        check_block_grads(MlpBlock(5, 4, 0.4, np.random.default_rng(7)))


class TestTensorBasics:
    def test_backward_needs_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            t.backward()

    def test_requires_grad_propagates(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3))
        assert (a + b).requires_grad
        assert not (b + b).requires_grad

    def test_constant_branch_gets_no_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.full(3, 2.0))
        tsum(a * b).backward()
        assert b.grad is None
        np.testing.assert_allclose(a.grad, [2.0, 2.0, 2.0])

    def test_nan_and_inf_raise(self):
        with pytest.raises(FloatingPointError):
            Tensor(np.array([np.nan]))
        with pytest.raises(FloatingPointError):
            Tensor(np.array([np.inf]))
        with pytest.raises(FloatingPointError), np.errstate(over="ignore"):
            Tensor(np.array([1e308])) * 10.0

    def test_zero_grads(self):
        a = Tensor(np.ones(2), requires_grad=True)
        tsum(a * a).backward()
        assert a.grad is not None
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
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamState([p], lr=0.1)
        p.grad = np.array([3.0])
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.09999999966666669, abs=1e-15)

    def test_none_grad_is_noop(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = AdamState([p], lr=0.5)
        p.grad = None
        opt.step()
        assert p.data[0] == 5.0

    def test_descends_quadratic(self):
        p = Tensor(np.array([4.0]), requires_grad=True)
        opt = AdamState([p], lr=0.05)
        for _ in range(400):
            zero_grads([p])
            loss = tsum(p * p)
            loss.backward()
            opt.step()
        assert abs(p.data[0]) < 0.1

    def test_lr_is_required(self):
        with pytest.raises(TypeError):
            AdamState([Tensor(np.zeros(1), requires_grad=True)])

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            AdamState([Tensor(np.zeros(1), requires_grad=True)], lr=-1.0)


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
