"""Engine tests: primitive behavior, gradient oracles, loss contracts.

Every gradient is checked against (Richardson-extrapolated) central
finite differences in 64-bit mode.  Inputs for kinked primitives (relu, the window max-pool) are
constructed away from their kinks so the numeric oracle is valid.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from tagflow import autodiff
from tagflow.autodiff import (
    Tape,
    Tensor,
    add,
    backward,
    concat,
    constant,
    distinct_rows,
    dropout,
    embedding_gather,
    gradcheck,
    kl_divergence,
    matmul,
    mul,
    relu,
    reshape,
    softmax_last_axis,
    sum_,
    tanh,
    window_matrix,
    window_max_pool,
    window_scores,
    windows,
)


def _p(rng, *shape):
    """Random float64 parameter, bounded away from zero for kink safety."""
    data = rng.uniform(0.25, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    return Tensor(data, requires_grad=True, dtype=np.float64)


class TestTensorBasics:
    def test_default_dtype_is_float32(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32

    def test_float64_preserved(self):
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64

    def test_grad_reads_zeros_before_backward(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        npt.assert_array_equal(t.grad, np.zeros((2, 2)))

    def test_non_scalar_backward_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            y = relu(x)
        with pytest.raises(ValueError, match="scalar"):
            backward(y)

    def test_backward_without_tape_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = sum_(relu(x))  # no tape active: nothing recorded
        with pytest.raises(ValueError, match="tape"):
            backward(y)


class TestForwardValues:
    def test_relu_definition(self):
        out = relu(constant([-3.0, 0.0, 2.0]))
        npt.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_softmax_uniform_over_71(self):
        out = softmax_last_axis(constant(np.full((1, 71), 3.25)))
        npt.assert_allclose(out.data, np.full((1, 71), 1.0 / 71), rtol=1e-6)

    def test_softmax_is_distribution_for_extreme_inputs(self):
        rng = np.random.default_rng(0)
        for scale in (1.0, 100.0, 10000.0):
            x = constant(rng.normal(scale=scale, size=(4, 9)))
            out = softmax_last_axis(x).data
            assert (out >= 0).all()
            npt.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_matmul_shape_mismatch_reports_both_shapes(self):
        a, b = constant(np.ones((2, 3))), constant(np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"\(2, 3\) x \(2, 3\)"):
            matmul(a, b)

    def test_add_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            add(constant(np.ones((2, 3))), constant(np.ones((4, 5))))


class TestHandGradients:
    def test_linear_case_grad_matches_hand_derivative(self):
        # loss = sum(W @ x) => dloss/dW = column of ones times x^T (outer structure)
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
        x = constant(rng.normal(size=(4, 1)).astype(np.float64))
        with Tape():
            loss = sum_(matmul(w, x))
        backward(loss)
        expected = np.tile(x.data.reshape(1, 4), (3, 1))
        npt.assert_allclose(w.grad, expected, rtol=1e-12)

    def test_tanh_grad_at_zero_is_one(self):
        w = Tensor(np.zeros(()), requires_grad=True, dtype=np.float64)
        with Tape():
            loss = tanh(w)
        backward(loss)
        npt.assert_allclose(w.grad, 1.0)

    def test_gradients_accumulate_when_tensor_reused(self):
        x = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
        with Tape():
            loss = sum_(mul(x, x))
        backward(loss)
        npt.assert_allclose(x.grad, [6.0])

    def test_unreachable_parameter_gets_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        unused = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        with Tape():
            loss = sum_(mul(x, x))
        backward(loss)
        npt.assert_array_equal(unused.grad, np.zeros(2))


class TestFiniteDifferenceOracle:
    """Central-difference verification, h = 1e-3, 64-bit, rtol 1e-4."""

    def test_matmul(self):
        rng = np.random.default_rng(3)
        a, b = _p(rng, 3, 4), _p(rng, 4, 2)
        gradcheck(lambda: sum_(matmul(a, b)), [a, b], samples=8)

    def test_add_with_broadcasting(self):
        rng = np.random.default_rng(4)
        a, b = _p(rng, 3, 4), _p(rng, 1, 4)
        gradcheck(lambda: sum_(mul(add(a, b), add(a, b))), [a, b], samples=8)

    def test_mul_with_broadcasting(self):
        rng = np.random.default_rng(6)
        a, b = _p(rng, 3, 4), _p(rng, 1, 4)
        gradcheck(lambda: sum_(mul(a, b)), [a, b], samples=8)

    @pytest.mark.parametrize("op", [tanh, relu])
    def test_elementwise_activations(self, op):
        rng = np.random.default_rng(7)
        x = _p(rng, 4, 5)  # bounded away from relu's kink
        gradcheck(lambda: sum_(op(x)), [x], samples=8)

    def test_concat_both_axes(self):
        rng = np.random.default_rng(10)
        a, b = _p(rng, 2, 3), _p(rng, 2, 2)
        gradcheck(lambda: sum_(mul(concat([a, b], axis=-1), concat([a, b], axis=-1))), [a, b], samples=8)
        c, d = _p(rng, 2, 3), _p(rng, 1, 3)
        gradcheck(lambda: sum_(mul(concat([c, d], axis=0), concat([c, d], axis=0))), [c, d], samples=8)

    def test_reshape(self):
        rng = np.random.default_rng(12)
        x = _p(rng, 2, 6)
        gradcheck(lambda: sum_(mul(reshape(x, (3, 4)), reshape(x, (3, 4)))), [x], samples=8)

    def test_sum_all_and_axis(self):
        rng = np.random.default_rng(14)
        x = _p(rng, 3, 4)
        gradcheck(lambda: sum_(mul(x, x)), [x], samples=6)
        gradcheck(lambda: sum_(mul(sum_(x, axis=0), sum_(x, axis=0))), [x], samples=6)

    def test_softmax_last_axis(self):
        rng = np.random.default_rng(15)
        x = _p(rng, 2, 5)
        w = constant(rng.normal(size=(2, 5)))
        gradcheck(lambda: sum_(mul(softmax_last_axis(x), w)), [x], samples=10)

    def test_embedding_gather_with_repeats(self):
        rng = np.random.default_rng(16)
        table = _p(rng, 6, 3)
        idx = np.array([0, 2, 2, 5, 0])
        gradcheck(lambda: sum_(mul(embedding_gather(table, idx), embedding_gather(table, idx))), [table], samples=10)

    def test_dropout_with_fixed_stream(self):
        rng = np.random.default_rng(17)
        x = _p(rng, 4, 4)
        # the mask must be identical on every call for the oracle to hold
        gradcheck(lambda: sum_(dropout(x, 0.5, np.random.default_rng(99))), [x], samples=8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_small_graph(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = _p(rng, 3, 4), _p(rng, 4, 3), _p(rng, 1, 3)

        def fn():
            h = tanh(matmul(a, b))
            h = add(h, c)
            s = softmax_last_axis(h)
            return sum_(mul(s, tanh(h)))

        gradcheck(fn, [a, b, c], samples=6)

    def test_windows(self):
        rng = np.random.default_rng(21)
        x = _p(rng, 6, 3)
        w = constant(rng.normal(size=(9, 2)))
        # every row of x sits in up to three windows, so the folds must add
        gradcheck(lambda: sum_(mul(matmul(windows(x, 3), w), matmul(windows(x, 3), w))), [x], samples=18)

    def test_window_max_pool(self):
        rng = np.random.default_rng(22)
        x, w = _p(rng, 7, 2), _p(rng, 6, 4)
        b = Tensor(rng.uniform(-0.2, 0.2, size=(1, 4)), requires_grad=True, dtype=np.float64)
        xw = windows(x, 3)
        scores = xw.data @ w.data
        top2 = np.sort(scores, axis=0)[-2:]
        assert (top2[1] - top2[0]).min() > 0.05 and (top2[1] + b.data[0]).min() > 0.05  # off the kinks
        g = constant(rng.normal(size=4))
        gradcheck(lambda: sum_(mul(window_max_pool(windows(x, 3), w, b, distinct_rows(x.data)), g)), [x, w, b],
                  samples=14)


def _pool(xw, w, b, g):
    """window_max_pool over float64 arrays; returns (out, dxw, dw, db) for upstream gradient g.

    ``xw`` stands for the width-1 windows of itself.
    """
    xw = Tensor(np.asarray(xw, dtype=np.float64), requires_grad=True, dtype=np.float64)
    w = Tensor(np.asarray(w, dtype=np.float64), requires_grad=True, dtype=np.float64)
    b = Tensor(np.asarray(b, dtype=np.float64).reshape(1, -1), requires_grad=True, dtype=np.float64)
    with Tape():
        out = window_max_pool(xw, w, b, distinct_rows(xw.data))
        loss = sum_(mul(out, constant(np.asarray(g, dtype=np.float64))))
    backward(loss)
    return out.data, xw.grad, w.grad, b.grad


class TestWindows:
    def test_window_matrix_is_a_read_only_view(self):
        x = np.arange(12, dtype=np.float32).reshape(4, 3)
        view = window_matrix(x, 2)
        npt.assert_array_equal(view, [np.r_[x[t], x[t + 1]] for t in range(3)])
        assert np.shares_memory(view, x) and not view.flags.writeable

    def test_windows_fold_gradient_back_onto_rows(self):
        x = Tensor(np.zeros((4, 2)), requires_grad=True, dtype=np.float64)
        with Tape():
            loss = sum_(windows(x, 3))
        backward(loss)
        # row t sits in min(t + 1, 4 - t, 2) of the two windows
        npt.assert_array_equal(x.grad, [[1, 1], [2, 2], [2, 2], [1, 1]])

    def test_window_wider_than_sequence_rejected(self):
        with pytest.raises(ValueError, match="3 rows"):
            windows(constant(np.zeros((2, 4))), 3)

    def test_pool_is_relu_of_max_plus_bias(self):
        rng = np.random.default_rng(23)
        xw, w, b = rng.normal(size=(9, 5)), rng.normal(size=(5, 6)), rng.normal(size=6)
        out, *_ = _pool(xw, w, b, np.ones(6))
        npt.assert_array_equal(out, np.maximum((xw @ w).max(axis=0) + b, 0))

    def test_pool_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"\(4, 3\) x \(2, 5\)"):
            window_max_pool(constant(np.ones((4, 3))), constant(np.ones((2, 5))), constant(np.ones((1, 5))),
                            distinct_rows(np.ones((4, 3))))

    def test_pool_rejects_distinct_rows_of_another_sequence(self):
        x = np.arange(15.0).reshape(5, 3)
        xw, w, b = windows(constant(x), 2), constant(np.ones((6, 4))), constant(np.ones((1, 4)))
        # one row short, rows of another width, one row over
        for other in (x[:4], x.reshape(3, 5), np.ones((6, 3))):
            with pytest.raises(ValueError, match=r"-wide rows of a \d-row sequence"):
                window_max_pool(xw, w, b, distinct_rows(other))

    def test_filters_winning_on_the_same_window_add_their_gradients(self):
        xw = np.array([[1.0, 0.0], [3.0, 2.0], [0.0, 1.0]])
        w = np.array([[1.0, 2.0, -1.0], [0.5, -1.0, 1.0]])
        # scores [[1, 2, -1], [4, 4, -1], [0.5, -1, 1]]: filters 0 and 1 win on window 1
        out, dxw, dw, db = _pool(xw, w, np.zeros(3), [10.0, 100.0, 1000.0])
        npt.assert_array_equal(out, [4.0, 4.0, 1.0])
        npt.assert_array_equal(dxw, [[0, 0], [10 * 1 + 100 * 2, 10 * 0.5 - 100], [-1000, 1000]])
        npt.assert_array_equal(dw, [[30, 300, 0], [20, 200, 1000]])
        npt.assert_array_equal(db, [[10, 100, 1000]])

    def test_ties_send_gradient_to_the_first_maximum(self):
        xw = np.array([[1.0], [3.0], [3.0], [2.0]])
        out, dxw, dw, _ = _pool(xw, [[2.0]], [0.0], [5.0])
        assert out[0] == 6.0
        npt.assert_array_equal(dxw[:, 0], [0, 10, 0, 0])
        npt.assert_array_equal(dw, [[15.0]])

    def test_filters_at_or_below_zero_get_exactly_zero_gradient(self):
        xw = np.array([[1.0, 2.0], [-1.0, 0.5]])
        w = np.array([[1.0, -1.0, 1.0], [1.0, -1.0, 0.0]])
        # maxima 3, 0.5, 1; biases -3, -1, 0.5 put filters 0 and 1 at relu's zero
        out, dxw, dw, db = _pool(xw, w, [-3.0, -1.0, 0.5], [7.0, 7.0, 7.0])
        npt.assert_array_equal(out, [0.0, 0.0, 1.5])
        npt.assert_array_equal(dw[:, :2], 0.0)
        npt.assert_array_equal(db, [[0.0, 0.0, 7.0]])
        npt.assert_array_equal(dxw, [[7.0, 0.0], [0.0, 0.0]])

    def test_nan_score_reaches_the_output_and_gives_w_and_b_no_gradient(self):
        xw = np.array([[1.0, 3.0], [2.0, 0.0]])
        w = np.array([[1.0, np.nan], [0.0, 1.0]])
        out, _, dw, db = _pool(xw, w, [0.0, 0.0], [1.0, 1.0])
        assert out[0] == 2.0 and np.isnan(out[1])
        npt.assert_array_equal(db, [[1.0, 0.0]])
        npt.assert_array_equal(dw, [[2.0, 0.0], [0.0, 0.0]])


def _repeated(rng, seq_len, dim, vocab):
    """(seq_len, dim) float64 rows drawn from ``vocab`` distinct rows."""
    return rng.standard_normal((vocab, dim))[rng.integers(0, vocab, size=seq_len)]


class TestWindowScores:
    @pytest.mark.parametrize("rows", ["repeated", "distinct", "padding"])
    @pytest.mark.parametrize("c", [1, 2, 5])
    def test_equal_the_window_matrix_product(self, rows, c):
        rng = np.random.default_rng(c)
        x = {"repeated": _repeated(rng, 150, 6, 3),
             "distinct": rng.standard_normal((150, 6)),
             "padding": np.zeros((150, 6))}[rows]
        w = rng.standard_normal((c * 6, 2048))  # 16 windows to a block of scores
        distinct = distinct_rows(x)
        assert distinct[0].shape[0] == {"repeated": 3, "distinct": 150, "padding": 1}[rows]
        npt.assert_allclose(window_scores(distinct, w), window_matrix(x, c) @ w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_windows_with_the_same_rows_score_the_same_bits(self, dtype):
        rng = np.random.default_rng(31)
        x = _repeated(rng, 200, 5, 4).astype(dtype)
        x[141:144] = x[7:10]
        # 1024 filters: 32 or 64 windows to a block, so 7 and 141 are in different blocks
        scores = window_scores(distinct_rows(x), rng.standard_normal((15, 1024)).astype(dtype))
        assert scores.dtype == dtype
        npt.assert_array_equal(scores[141], scores[7])

    def test_distinct_rows_index_back_to_the_input(self):
        rng = np.random.default_rng(32)
        x = _repeated(rng, 30, 4, 5)
        x[3, 1], x[4] = -0.0, np.nan
        rows, inverse = distinct_rows(x)
        assert rows.shape == (7, 4) and inverse.shape == (30,)
        assert rows[inverse].tobytes() == x.tobytes()
        # the same set of rows in another order gives the same rows
        npt.assert_array_equal(distinct_rows(x[::-1])[0], rows)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_distinct_rows_are_the_bytes_np_unique_gives(self, dtype):
        """The sort-and-compare in ``distinct_rows`` against ``np.unique`` on void
        keys: the same (rows, inverse) bytes, NaN rows and 0.0 / -0.0 kept apart."""
        rng = np.random.default_rng(33)
        values = np.array([0.0, -0.0, np.nan, 1.0, -1.0, np.inf, 2.5], dtype=dtype)
        for _ in range(200):
            n_rows, dim, vocab = int(rng.integers(0, 60)), int(rng.integers(1, 7)), int(rng.integers(1, 10))
            x = values[rng.integers(0, len(values), size=(vocab, dim))][rng.integers(0, vocab, size=n_rows)]
            keys = x.view(np.dtype((np.void, dim * x.itemsize))).ravel()
            unique, inverse = np.unique(keys, return_inverse=True)
            rows, got_inverse = distinct_rows(x)
            assert rows.dtype == dtype and rows.shape == (len(unique), dim)
            assert rows.tobytes() == unique.tobytes()
            assert got_inverse.dtype == inverse.dtype and got_inverse.tobytes() == inverse.ravel().tobytes()


class TestDropout:
    def test_p_zero_is_identity(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_fixed_seed_reproducible(self):
        x = constant(np.ones((100, 10)))
        a = dropout(x, 0.4, np.random.default_rng(7)).data
        b = dropout(x, 0.4, np.random.default_rng(7)).data
        npt.assert_array_equal(a, b)

    def test_kept_entries_scaled_by_inverse_keep_rate(self):
        x = constant(np.ones((200, 50)))
        out = dropout(x, 0.4, np.random.default_rng(3)).data
        kept = out[out != 0]
        npt.assert_allclose(kept, 1.0 / 0.6, rtol=1e-6)
        assert abs((out != 0).mean() - 0.6) < 0.02

    def test_invalid_rate_rejected(self):
        x = constant(np.ones(3))
        with pytest.raises(ValueError):
            dropout(x, 1.0, np.random.default_rng(0))


class TestKlDivergence:
    def test_identical_distributions_give_zero(self):
        d = np.array([0.2, 0.3, 0.5])
        assert float(kl_divergence(constant(d), constant(d)).data) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_versus_uniform_pair(self):
        loss = kl_divergence(constant([1.0, 0.0]), constant([0.5, 0.5]))
        assert float(loss.data) == pytest.approx(np.log(2.0), rel=1e-6)

    def test_zero_times_log_zero_is_zero(self):
        loss = kl_divergence(constant([1.0, 0.0]), constant([1.0, 0.0]))
        assert np.isfinite(float(loss.data))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(18)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            t = rng.random(n) + 1e-12
            p = rng.random(n) + 1e-12
            t, p = t / t.sum(), p / p.sum()
            value = float(kl_divergence(constant(t), constant(p)).data)
            assert value >= -1e-9

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            kl_divergence(constant([1.5, -0.5]), constant([0.5, 0.5]))

    def test_non_distribution_rejected(self):
        with pytest.raises(ValueError, match="summing to 1"):
            kl_divergence(constant([0.7, 0.7]), constant([0.5, 0.5]))

    def test_weights_of_one_reduce_to_plain_kl(self):
        t, p = np.array([0.25, 0.75]), np.array([0.5, 0.5])
        plain = float(kl_divergence(constant(t), constant(p)).data)
        weighted = float(kl_divergence(constant(t), constant(p), weights=np.ones(2)).data)
        assert weighted == pytest.approx(plain, rel=1e-12)

    def test_weight_scales_one_hot_loss_linearly(self):
        t, p = np.array([1.0, 0.0]), np.array([0.25, 0.75])
        w1 = float(kl_divergence(constant(t), constant(p), weights=np.array([1.0, 1.0])).data)
        w2 = float(kl_divergence(constant(t), constant(p), weights=np.array([2.0, 1.0])).data)
        assert w2 == pytest.approx(2.0 * w1, rel=1e-9)

    def test_gradient_through_softmax_composite(self):
        rng = np.random.default_rng(19)
        logits = _p(rng, 1, 6)
        t = rng.random(6)
        t /= t.sum()

        def fn():
            probs = reshape(softmax_last_axis(logits), (-1,))
            return kl_divergence(t, probs)

        gradcheck(fn, [logits], samples=6)

    def test_weighted_gradient_through_softmax_composite(self):
        rng = np.random.default_rng(20)
        logits = _p(rng, 1, 5)
        t = rng.random(5)
        t /= t.sum()
        w = rng.uniform(0.5, 3.0, size=5)

        def fn():
            probs = reshape(softmax_last_axis(logits), (-1,))
            return kl_divergence(t, probs, weights=w)

        gradcheck(fn, [logits], samples=6)

    def test_prediction_below_eps_gets_exactly_zero_gradient(self):
        # the clamp at eps = 1e-8 is a dead zone: a true tag predicted below
        # it contributes loss but no gradient
        t = np.array([0.5, 0.0, 0.5, 0.0])
        pred = Tensor(np.array([0.5, 0.5 - 2e-9, 1e-9, 1e-9]), requires_grad=True, dtype=np.float64)
        with Tape():
            loss = kl_divergence(t, pred)
        backward(loss)
        assert float(loss.data) == pytest.approx(0.5 * np.log(0.5 / 1e-8), rel=1e-12)
        assert pred.grad[2] == 0.0
        assert pred.grad[0] == -1.0

    def test_records_one_tape_node(self):
        pred = Tensor(np.array([0.25, 0.75]), requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            kl_divergence(np.array([0.5, 0.5]), pred, weights=np.array([2.0, 1.0]))
        assert len(tape) == 1


def test_readme_primitive_list_matches_the_engine():
    """README's ``autodiff`` row names real primitives, as many as it says."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    row = next(line for line in readme.splitlines() if line.startswith("| `autodiff`"))
    match = re.search(r"(\d+) primitives \(([^)]*)\)", row)
    assert match, row
    names = re.findall(r"`(\w+)`", match.group(2))
    assert len(names) == int(match.group(1))
    for name in names:
        assert callable(getattr(autodiff, name, None)), name
