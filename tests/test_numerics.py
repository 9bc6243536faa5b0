"""Autodiff, optimizer, RBF, and weight-file tests.

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
    concat,
    dropout,
    gather_rows,
    kaiming_uniform,
    load_weights,
    matmul,
    rbf,
    rbf_matrix,
    relu,
    reshape,
    save_weights,
    segment_mean,
    segment_sum,
    softplus,
    tile_rows,
    tmean,
    tsum,
    zero_grads,
)


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
    """The array block's hand-written backward against central differences
    of sum(y * y). Dropout masks come from the same seed in every
    evaluation; nonzero biases keep a dropped row off the relu kink."""
    for b in (block.b1, block.b2, block.b3):
        b.data = RNG.normal(size=b.data.shape)
    x = RNG.normal(size=(3, block.in_width))

    def run(x):
        return block(x, training=True, rng=np.random.default_rng(3))

    zero_grads(block.parameters())
    y, tape = run(x)
    gx = block.backward(tape, 2.0 * y)
    params = block.parameters()
    hold = [p.data.copy() for p in params] + [x]

    def f(arrs):
        for p, a in zip(params, arrs):
            p.data = a
        out = float(np.sum(run(arrs[-1])[0] ** 2))
        for p, a in zip(params, hold):
            p.data = a
        return out

    for i, got in enumerate([p.grad for p in params] + [gx]):
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
        check_grads(lambda ts: tsum(2.0 * ts[0] - ts[0] * ts[0] + 1.0), [a])

    def test_matmul(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        check_grads(lambda ts: tsum(matmul(ts[0], ts[1])), [a, b])

    def test_relu(self):
        # keep values away from the kink where FD is ill-defined
        a = RNG.normal(size=(3, 3))
        a[np.abs(a) < 0.05] = 0.5
        check_grads(lambda ts: tsum(relu(ts[0]) * ts[0]), [a])

    def test_softplus(self):
        a = RNG.uniform(0.5, 2.0, size=(2, 3))
        check_grads(lambda ts: tsum(softplus(ts[0])), [a])

    def test_sum_axis_and_mean(self):
        a = RNG.normal(size=(3, 4))
        check_grads(lambda ts: tsum(tsum(ts[0], axis=0, keepdims=True) * 2.0), [a])
        check_grads(lambda ts: tmean(ts[0] * ts[0]), [a])
        check_grads(lambda ts: tsum(tmean(ts[0], axis=1, keepdims=True)), [a])

    def test_concat_vstack(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(2, 2))
        check_grads(lambda ts: tsum(concat([ts[0], ts[1]], axis=1) * 1.5), [a, b])
        c = RNG.normal(size=(3, 3))
        check_grads(lambda ts: tsum(concat([ts[0], ts[1]], axis=0) * ts[2]),
                    [a[:, :3].copy() if a.shape[1] >= 3 else a, c,
                     RNG.normal(size=(5, 3))])

    def test_gather_rows_with_repeats(self):
        a = RNG.normal(size=(4, 3))
        idx = np.array([0, 2, 0, 3])
        check_grads(lambda ts: tsum(gather_rows(ts[0], idx) * 2.0), [a])

    def test_segment_mean(self):
        a = RNG.normal(size=(5, 3))
        seg = np.array([0, 0, 2, 2, 2])
        check_grads(lambda ts: tsum(segment_mean(ts[0], seg, 4) * 3.0), [a])

    def test_tile_reshape(self):
        a = RNG.normal(size=(1, 4))
        check_grads(lambda ts: tsum(tile_rows(ts[0], 3) * 0.5), [a])
        b = RNG.normal(size=(2, 6))
        check_grads(lambda ts: tsum(reshape(ts[0], (3, 4)) * 2.0), [b])

    def test_shared_subexpression_accumulates(self):
        x = Tensor(np.array([[2.0]]), requires_grad=True)
        y = x * x + x * x        # 2x^2, dy/dx = 4x = 8
        tsum(y).backward()
        assert x.grad is not None and x.grad.item() == pytest.approx(8.0)

    def test_mlp_block_gradients(self):
        check_block_grads(MlpBlock(5, 4, 0.0, np.random.default_rng(7)))

    def test_mlp_block_gradients_equal_width(self):
        check_block_grads(MlpBlock(4, 4, 0.0, np.random.default_rng(8)))

    def test_mlp_block_gradients_with_dropout(self):
        check_block_grads(MlpBlock(5, 4, 0.4, np.random.default_rng(7)))

    def test_mlp_block_after_first_matches_call(self):
        # a caller-formed first layer gives the same output and gradients
        block = MlpBlock(6, 3, 0.0, np.random.default_rng(2))
        x = RNG.normal(size=(4, 6))
        y, tape = block(x, training=True)
        g = RNG.normal(size=y.shape)
        block.backward(tape, g)
        want = [p.grad.copy() for p in block.parameters()[2:]]
        zero_grads(block.parameters())
        y2, tape2 = block.after_first(x @ block.w1.data + block.b1.data, training=True)
        np.testing.assert_array_equal(y2, y)
        g1 = block.backward_after_first(tape2, g)
        for got, ref in zip([p.grad for p in block.parameters()[2:]], want):
            np.testing.assert_array_equal(got, ref)
        assert block.w1.grad is None
        np.testing.assert_allclose(x.T @ g1, tape.x.T @ g1)


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
        a = Tensor(np.ones((4, 4)))
        assert dropout(a, 0.0, np.random.default_rng(0)) is a

    def test_invalid_rate(self):
        a = Tensor(np.ones(2))
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                dropout(a, rate, np.random.default_rng(0))

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(99)
        a = Tensor(np.ones((400, 400)))
        out = dropout(a, 0.3, rng)
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 1.0 / 0.7)
        assert out.data.mean() == pytest.approx(1.0, abs=0.01)

    def test_deterministic_given_rng_seed(self):
        a = Tensor(np.ones((8, 8)))
        out1 = dropout(a, 0.5, np.random.default_rng(5)).data
        out2 = dropout(a, 0.5, np.random.default_rng(5)).data
        np.testing.assert_array_equal(out1, out2)


class TestSegmentOps:
    def test_segment_mean_values_and_empty_segment(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        out = segment_mean(a, np.array([0, 0, 2]), 3)
        np.testing.assert_allclose(out.data, [[2.0, 3.0], [0.0, 0.0], [5.0, 6.0]])

    def test_gather_rows_values(self):
        a = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = gather_rows(a, np.array([2, 0, 2]))
        np.testing.assert_allclose(out.data, [[3.0], [1.0], [3.0]])

    def test_segment_sum_matches_add_at_bits(self):
        data = RNG.normal(size=(40, 7))
        seg = RNG.integers(0, 9, size=40)
        want = np.zeros((12, 7))
        np.add.at(want, seg, data)
        np.testing.assert_array_equal(segment_sum(data, seg, 12), want)
        empty = segment_sum(np.zeros((0, 7)), np.zeros(0, dtype=np.int64), 3)
        assert empty.dtype == np.float64 and not empty.any() and empty.shape == (3, 7)

    def test_tile_rows_rejects_multirow(self):
        with pytest.raises(ValueError):
            tile_rows(Tensor(np.ones((2, 3))), 4)


class TestMlpBlock:
    def test_wrong_input_width_rejected(self):
        block = MlpBlock(4, 4, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            block(np.ones((2, 5)))

    def test_training_without_rng_rejected(self):
        block = MlpBlock(4, 4, 0.2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            block(np.ones((2, 4)), training=True)

    def test_zero_weights_equal_width_is_identity(self):
        block = MlpBlock(3, 3, 0.0, np.random.default_rng(0))
        for p in block.parameters():
            p.data = np.zeros_like(p.data)
        x = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_allclose(block(x)[0], x)

    def test_zero_weights_projection_is_zero(self):
        # with a projecting first layer the residual is the projected path,
        # which is all zeros when the weights are
        block = MlpBlock(5, 3, 0.0, np.random.default_rng(0))
        for p in block.parameters():
            p.data = np.zeros_like(p.data)
        out, _ = block(np.ones((2, 5)))
        np.testing.assert_allclose(out, np.zeros((2, 3)))

    def test_output_shape(self):
        block = MlpBlock(7, 4, 0.0, np.random.default_rng(1))
        out, tape = block(np.ones((6, 7)))
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
