"""Reverse-mode engine: forward values, gradient correctness against
central finite differences, and graph bookkeeping."""

import numpy as np
import pytest

from molpeco import autodiff as ad
from molpeco.autodiff import Tensor, TransformerBlockParams
from molpeco.errors import ShapeError

FD_STEP = 1e-5
PRIMITIVE_TOL = 1e-6


def finite_difference_grad(fn, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.reshape(-1)
    base = x.astype(np.float64).copy()
    for i in range(base.size):
        bumped = base.copy().reshape(-1)
        bumped[i] += h
        up = fn(bumped.reshape(x.shape))
        bumped[i] -= 2 * h
        down = fn(bumped.reshape(x.shape))
        flat[i] = (up - down) / (2 * h)
    return grad


def assert_grad_close(analytic, numeric, tol=PRIMITIVE_TOL):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    assert np.max(np.abs(analytic - numeric) / denom) <= tol


def check_unary(op_fn, x_values, tol=PRIMITIVE_TOL):
    x = Tensor(x_values, requires_grad=True)
    loss = op_fn(x).sum()
    ad.backward(loss)
    numeric = finite_difference_grad(lambda v: float(op_fn(Tensor(v)).values.sum()),
                                     np.asarray(x_values, dtype=np.float64))
    assert_grad_close(x.grad, numeric, tol)


class TestForwardValues:
    def test_matmul_identity(self):
        m = np.arange(9.0).reshape(3, 3)
        out = ad.matmul(Tensor(np.eye(3)), Tensor(m))
        assert np.array_equal(out.values, m)

    def test_matmul_small(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.values.tolist() == [[11.0]]

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        # the right factor is 2D, also when the batch dims would match
        with pytest.raises(ShapeError, match=r"\(4, 2, 3\).*\(4, 3, 5\)"):
            ad.matmul(Tensor(np.zeros((4, 2, 3))), Tensor(np.zeros((4, 3, 5))))

    def test_selu_bit_identical_to_masked_formula(self):
        # the reference is the np.where form of selu and its derivative
        rng = np.random.default_rng(15)
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 710.0, -750.0]
        x = np.concatenate([specials, rng.normal(scale=3.0, size=20000)])
        positive = x > 0.0
        exp_neg = np.exp(np.where(positive, 0.0, x))
        expected = ad.SELU_LAMBDA * np.where(positive, x, ad.SELU_ALPHA * (exp_neg - 1.0))
        local = ad.SELU_LAMBDA * np.where(positive, 1.0, ad.SELU_ALPHA * exp_neg)
        g = rng.normal(size=x.shape)
        out = ad.selu(Tensor(x, requires_grad=True))
        (grad,) = out.grad_fn(g)
        assert np.array_equal(out.values.view(np.int64), expected.view(np.int64))
        assert np.array_equal(grad.view(np.int64), (g * local).view(np.int64))

    def test_selu_fixed_points(self):
        out = ad.selu(Tensor([0.0, 1.0]))
        assert out.values[0] == 0.0
        assert abs(out.values[1] - 1.0507009873554805) < 1e-15

    def test_sigmoid_values(self):
        with np.errstate(over="raise"):
            out = ad.logistic(np.array([0.0, 50.0, -50.0, 1e308, -1e308]))
        assert out[0] == 0.5
        assert 1.0 - out[1] < 1e-20
        assert out[2] < 1e-20
        assert out[3:].tolist() == [1.0, 0.0]


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.backward(x.sum())
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_elementwise_square(self):
        values = np.array([1.0, -2.0, 3.0])
        x = Tensor(values, requires_grad=True)
        ad.backward(ad.mul(x, x).sum())
        assert np.array_equal(x.grad, 2 * values)

    def test_fan_out_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        ad.backward(ad.add(x, x).sum())
        assert x.grad.tolist() == [2.0]

    def test_double_backward_doubles_grads(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = ad.mul(x, x).sum()
        ad.backward(loss)
        first = x.grad.copy()
        ad.backward(loss)
        assert np.array_equal(x.grad, 2 * first)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            ad.backward(ad.mul(x, x))

    def test_inputs_never_mutated(self):
        rng = np.random.default_rng(1)
        a_values = rng.normal(size=(3, 3))
        b_values = rng.normal(size=(3, 3))
        a = Tensor(a_values.copy(), requires_grad=True)
        b = Tensor(b_values.copy(), requires_grad=True)
        loss = ad.selu(ad.matmul(a, ad.selu(b))).sum()
        ad.backward(loss)
        assert np.array_equal(a.values, a_values)
        assert np.array_equal(b.values, b_values)

    def test_matmul_grad_of_sum_is_ones_times_bt(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b_values = rng.normal(size=(4, 5))
        ad.backward(ad.matmul(a, Tensor(b_values)).sum())
        expected = np.ones((3, 5)) @ b_values.T
        np.testing.assert_allclose(a.grad, expected, rtol=0, atol=1e-12)


class TestPrimitiveGradients:
    """Every primitive against the central-difference oracle."""

    def test_add_broadcast(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        bias = Tensor(rng.normal(size=4), requires_grad=True)
        ad.backward(ad.add(x, bias).sum())
        numeric = finite_difference_grad(
            lambda v: float((x.values + v).sum()), bias.values)
        assert_grad_close(bias.grad, numeric)

    def test_mul(self):
        rng = np.random.default_rng(4)
        other = rng.normal(size=(2, 3))
        check_unary(lambda t: ad.mul(t, Tensor(other)), rng.normal(size=(2, 3)))

    def test_div(self):
        rng = np.random.default_rng(5)
        denom = rng.uniform(0.5, 2.0, size=(2, 3))
        check_unary(lambda t: ad.div(t, Tensor(denom)), rng.normal(size=(2, 3)))
        check_unary(lambda t: ad.div(Tensor(denom), t),
                    rng.uniform(0.5, 2.0, size=(2, 3)))

    def test_matmul_both_sides(self):
        rng = np.random.default_rng(6)
        a_values = rng.normal(size=(3, 4))
        b_values = rng.normal(size=(4, 2))
        a = Tensor(a_values, requires_grad=True)
        b = Tensor(b_values, requires_grad=True)
        ad.backward(ad.matmul(a, b).sum())
        assert_grad_close(a.grad, finite_difference_grad(
            lambda v: float((v @ b_values).sum()), a_values))
        assert_grad_close(b.grad, finite_difference_grad(
            lambda v: float((a_values @ v).sum()), b_values))

    def test_matmul_batched(self):
        rng = np.random.default_rng(7)
        a_values = rng.normal(size=(5, 3, 4))
        w_values = rng.normal(size=(4, 2))
        a = Tensor(a_values, requires_grad=True)
        w = Tensor(w_values, requires_grad=True)
        ad.backward(ad.matmul(a, w).sum())
        assert_grad_close(a.grad, finite_difference_grad(
            lambda v: float((v @ w_values).sum()), a_values))
        assert_grad_close(w.grad, finite_difference_grad(
            lambda v: float((a_values @ v).sum()), w_values))

    def test_selu_gradient(self):
        check_unary(ad.selu, np.array([-2.0, -1.0, -0.3, 0.4, 1.7]))

    def test_sqrt_gradient(self):
        check_unary(ad.sqrt, np.array([0.3, 1.0, 4.2]))

    def test_sum_rows_exact_gradient(self):
        rng = np.random.default_rng(10)
        weights = rng.normal(size=(1, 4))
        check_unary(lambda t: ad.mul(ad.sum_rows_exact(t, [5]), Tensor(weights)),
                    rng.normal(size=(5, 4)))
        segment_weights = rng.normal(size=(3, 4))
        check_unary(lambda t: ad.mul(ad.sum_rows_exact(t, [1, 3, 2]),
                                     Tensor(segment_weights)),
                    rng.normal(size=(6, 4)))

    def test_segmented_sum_rows_exact_permutation_invariant_per_segment(self):
        rng = np.random.default_rng(22)
        sizes = [4, 1, 7, 3]
        h = rng.normal(size=(15, 5)) * np.logspace(-3, 3, 5)
        expected = ad.sum_rows_exact(Tensor(h), sizes).values
        assert expected.shape == (4, 5)
        starts = np.cumsum([0, *sizes[:-1]])
        for start, size, row in zip(starts, sizes, expected):
            alone = ad.sum_rows_exact(Tensor(h[start:start + size]), [size])
            assert np.array_equal(alone.values[0], row)
        for _ in range(10):
            order = np.concatenate([start + rng.permutation(size)
                                    for start, size in zip(starts, sizes)])
            assert np.array_equal(ad.sum_rows_exact(Tensor(h[order]), sizes).values,
                                  expected)

    def test_block_matmul_gradient(self):
        rng = np.random.default_rng(23)
        mats = [rng.normal(size=(n, n)) for n in (2, 1, 3)]
        weights = rng.normal(size=(6, 4))
        check_unary(lambda t: ad.mul(ad.block_matmul(mats, t), Tensor(weights)),
                    rng.normal(size=(6, 4)))

    def test_block_matmul_equals_block_diagonal_product(self):
        rng = np.random.default_rng(24)
        mats = [rng.normal(size=(n, n)) for n in (3, 2, 4)]
        h = rng.normal(size=(9, 5))
        full = np.zeros((9, 9))
        start = 0
        for m in mats:
            full[start:start + len(m), start:start + len(m)] = m
            start += len(m)
        np.testing.assert_allclose(ad.block_matmul(mats, Tensor(h)).values, full @ h,
                                   rtol=0, atol=1e-12)
        with pytest.raises(ShapeError):
            ad.block_matmul(mats, Tensor(h[:8]))

    def test_rowwise_matmul_gradient(self):
        rng = np.random.default_rng(25)
        a_values = rng.normal(size=(3, 4))
        b_values = rng.normal(size=(4, 2))
        weights = rng.normal(size=(3, 2))
        check_unary(lambda t: ad.mul(ad.rowwise_matmul(t, Tensor(b_values)),
                                     Tensor(weights)), a_values)
        check_unary(lambda t: ad.mul(ad.rowwise_matmul(Tensor(a_values), t),
                                     Tensor(weights)), b_values)

    def test_rowwise_matmul_rows_equal_single_row_products(self):
        rng = np.random.default_rng(26)
        a_values = rng.normal(size=(30, 32))
        b_values = rng.normal(size=(32, 7))
        out = ad.rowwise_matmul(Tensor(a_values), Tensor(b_values)).values
        for row in range(30):
            assert np.array_equal(out[row], (a_values[row].reshape(1, -1) @ b_values)[0])

    def test_gather_rows_gradient(self):
        rng = np.random.default_rng(11)
        table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 5])
        ad.backward(ad.gather_rows(table, idx).sum())
        expected = np.zeros((6, 3))
        np.add.at(expected, idx, np.ones((4, 3)))
        assert np.array_equal(table.grad, expected)

    def test_gather_rows_gradient_bit_equal_to_add_at(self):
        # repeated rows must be summed in index order, as np.add.at does;
        # weights spanning many magnitudes make any other order show
        rng = np.random.default_rng(14)
        table = Tensor(rng.normal(size=(87, 32)), requires_grad=True)
        idx = rng.choice([0, 1, 1, 1, 6, 6, 6, 6, 7, 8, 16, 86], size=1300)
        weights = rng.normal(size=(1300, 32)) * np.exp(rng.normal(scale=10.0, size=(1300, 1)))
        ad.backward(ad.mul(ad.gather_rows(table, idx), Tensor(weights)).sum())
        expected = np.zeros((87, 32))
        np.add.at(expected, idx, weights)
        assert np.array_equal(table.grad.view(np.int64), expected.view(np.int64))

    def test_layer_norm_gradient(self):
        # the layer norms inside the encoder op: input, gain and bias
        # gradients of both norms of a block
        rng = np.random.default_rng(12)
        block = make_block_params(rng, 4)
        for norm in ("ln1", "ln2"):
            getattr(block, f"{norm}_gain").values = rng.uniform(0.5, 1.5, size=4)
            getattr(block, f"{norm}_bias").values = rng.normal(size=4)
        x_values = rng.normal(size=(2, 3, 4))
        x = Tensor(x_values, requires_grad=True)
        weights = rng.normal(size=(2, 3, 4))
        ad.backward(ad.mul(ad.transformer_encoder(x, [block]), Tensor(weights)).sum())

        def loss_at(values):
            return float((ad.transformer_encoder(Tensor(values), [block]).values
                          * weights).sum())
        assert_grad_close(x.grad, finite_difference_grad(loss_at, x_values), tol=1e-5)
        for name in ("ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias"):
            param = getattr(block, name)
            base = param.values

            def loss_with(values, param=param):
                param.values = values
                return loss_at(x_values)
            numeric = finite_difference_grad(loss_with, base)
            param.values = base
            assert_grad_close(param.grad, numeric, tol=1e-5)


class TestNoGrad:
    def test_outputs_have_no_parents(self):
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        with ad.no_grad():
            out = ad.selu(ad.matmul(Tensor(np.ones((1, 3))), w))
        assert out.parents == () and out.grad_fn is None and not out.requires_grad
        after = ad.matmul(Tensor(np.ones((1, 3))), w)
        assert after.requires_grad and after.parents

    def test_mode_restored_after_exception(self):
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            with ad.no_grad():
                with ad.no_grad():
                    pass
                assert not ad.matmul(Tensor(np.ones((1, 3))), w).requires_grad
                ad.matmul(w, w)
        ad.backward(ad.matmul(Tensor(np.ones((1, 3))), w).sum())
        assert np.array_equal(w.grad, np.ones((3, 2)))


def make_block_params(rng, d, zero_outputs=False):
    def glorot(shape):
        return Tensor(ad.glorot_uniform(rng, shape), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    return TransformerBlockParams(
        ln1_gain=Tensor(np.ones(d), requires_grad=True), ln1_bias=zeros(d),
        wq=glorot((d, d)), bq=zeros(d), wk=glorot((d, d)), bk=zeros(d),
        wv=glorot((d, d)), bv=zeros(d),
        wo=zeros(d, d) if zero_outputs else glorot((d, d)), bo=zeros(d),
        ln2_gain=Tensor(np.ones(d), requires_grad=True), ln2_bias=zeros(d),
        ffn_w1=glorot((d, 2 * d)), ffn_b1=zeros(2 * d),
        ffn_w2=zeros(2 * d, d) if zero_outputs else glorot((2 * d, d)),
        ffn_b2=zeros(d),
    )


class TestSoftmaxAttention:
    # through the encoder op: wo = I and a zero feed-forward output make a
    # block return x + its attention output

    def test_single_unmasked_row_returns_v(self):
        # a zero ln1 gain makes every row's normalized input its bias, and
        # wv = I makes v = bias + bv exactly; q and k are large and random
        rng = np.random.default_rng(13)
        block = make_block_params(rng, 4, zero_outputs=True)
        block.wo.values = np.eye(4)
        block.ln1_gain.values = np.zeros(4)
        block.ln1_bias.values = rng.normal(size=4)
        block.wv.values = np.eye(4)
        block.bv.values = rng.normal(size=4)
        for t in (block.wq, block.bq, block.wk, block.bk):
            t.values = 10.0 * rng.normal(size=t.values.shape)
        x_values = rng.normal(size=(3, 1, 4))
        out = ad.transformer_encoder(Tensor(x_values), [block])
        v = block.ln1_bias.values + block.bv.values
        np.testing.assert_allclose(out.values, x_values + v, rtol=0, atol=1e-15)

    def test_identical_keys_average_v(self):
        rng = np.random.default_rng(14)
        block = make_block_params(rng, 4, zero_outputs=True)
        block.wo.values = np.eye(4)
        block.wk.values = np.zeros((4, 4))
        block.bk.values = rng.normal(size=4)
        block.bv.values = rng.normal(size=4)
        x_values = rng.normal(size=(2, 3, 4))
        out = ad.transformer_encoder(Tensor(x_values), [block])
        centered = x_values - x_values.mean(axis=-1, keepdims=True)
        normalized = centered / np.sqrt((centered ** 2).mean(axis=-1, keepdims=True) + 1e-5)
        v = normalized @ block.wv.values + block.bv.values
        expected = x_values + v.mean(axis=-2, keepdims=True)
        np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-12)


class TestTransformerBlock:
    def test_zeroed_projections_give_identity(self):
        rng = np.random.default_rng(17)
        blocks = [make_block_params(rng, 4, zero_outputs=True) for _ in range(2)]
        x_values = rng.normal(size=(3, 5, 4))
        out = ad.transformer_encoder(Tensor(x_values), blocks)
        np.testing.assert_allclose(out.values, x_values, rtol=0, atol=1e-15)

    def test_output_shape_preserved(self):
        rng = np.random.default_rng(18)
        params = make_block_params(rng, 8)
        for shape in ((6, 8), (3, 6, 8)):
            out = ad.transformer_encoder(Tensor(rng.normal(size=shape)), [params])
            assert out.values.shape == shape

    def test_gradient_through_stacked_blocks(self):
        # end-to-end check through 4 blocks on 4 rows, d=8
        rng = np.random.default_rng(20)
        d, rows = 8, 4
        blocks = [make_block_params(rng, d) for _ in range(4)]
        x_values = rng.normal(size=(rows, d))
        weights = rng.normal(size=(rows, d))

        def run(v):
            return float((ad.transformer_encoder(Tensor(v), blocks).values * weights).sum())

        x = Tensor(x_values, requires_grad=True)
        ad.backward(ad.mul(ad.transformer_encoder(x, blocks), Tensor(weights)).sum())
        assert_grad_close(x.grad, finite_difference_grad(run, x_values), tol=1e-4)
