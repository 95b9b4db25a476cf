"""Optimizer contract: hand-computed updates, determinism, abort safety."""

from __future__ import annotations

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from tagflow.autodiff import Tensor
from tagflow.errors import NumericError
from tagflow.optim import BLOCK, EPS, RHO, RmsProp


def _param(value):
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=True, dtype=np.float64)


def test_zero_gradient_leaves_parameters_unchanged():
    p = _param([1.5, -2.0])
    opt = RmsProp({"p": p}, lr=1e-4)
    before = p.data.copy()
    opt.step()  # grad reads as zeros
    npt.assert_array_equal(p.data, before)


def test_single_step_hand_calculation():
    # v0=0, rho=0.9, g=1, lr=1e-4, eps=1e-8: v=0.1, delta = -1e-4/(sqrt(0.1)+1e-8)
    p = _param([0.0])
    opt = RmsProp({"p": p}, lr=1e-4)
    p._grad = np.array([1.0])
    opt.step()
    expected = -1e-4 / (np.sqrt(0.1) + 1e-8)
    npt.assert_allclose(p.data, [expected], rtol=1e-15)
    npt.assert_allclose(opt.square_avg["p"], [0.1], rtol=1e-15)


def test_two_steps_follow_the_running_average_recurrence():
    p = _param([0.0])
    opt = RmsProp({"p": p}, lr=1e-2)
    v = 0.0
    x = 0.0
    for g in (1.0, -2.0):
        p._grad = np.array([g])
        opt.step()
        p.zero_grad()
        v = 0.9 * v + 0.1 * g * g
        x -= 1e-2 * g / (np.sqrt(v) + 1e-8)
    npt.assert_allclose(p.data, [x], rtol=1e-14)


def test_same_gradient_stream_gives_bitwise_identical_parameters():
    def run():
        rng = np.random.default_rng(5)
        p = _param(np.zeros((3, 2)))
        opt = RmsProp({"p": p}, lr=1e-3)
        for _ in range(10):
            p._grad = rng.normal(size=(3, 2))
            opt.step()
            p.zero_grad()
        return p.data

    npt.assert_array_equal(run(), run())


def test_non_finite_gradient_aborts_before_touching_any_parameter():
    a, b = _param([1.0]), _param([2.0])
    opt = RmsProp({"a": a, "b": b}, lr=0.1)
    a._grad = np.array([np.inf])
    b._grad = np.array([1.0])
    with pytest.raises(NumericError, match="'a'"):
        opt.step()
    npt.assert_array_equal(a.data, [1.0])
    npt.assert_array_equal(b.data, [2.0])
    npt.assert_array_equal(opt.square_avg["b"], [0.0])


def test_zero_grad_clears_accumulated_gradients():
    p = _param([1.0])
    p._grad = np.array([3.0])
    RmsProp({"p": p}).zero_grad()
    npt.assert_array_equal(p.grad, [0.0])


def test_lr_zero_is_bitwise_noop():
    p = _param([1.2345678901234567])
    before = p.data.copy()
    opt = RmsProp({"p": p}, lr=0.0)
    for g in (1.0, -3.0, 0.5):
        p._grad = np.array([g])
        opt.step()
    npt.assert_array_equal(p.data, before)


def _whole_array_step(data, square_avg, g, lr, rho, eps):
    """The update rule on whole arrays, in the rule's operation order."""
    square_avg *= rho
    square_avg += (1.0 - rho) * g * g
    data -= lr * g / (np.sqrt(square_avg) + eps)


@pytest.mark.parametrize("shape", [(1,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (3, BLOCK // 2 + 1)],
                         ids=["1", "block-1", "block", "block+1", "2d"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_step_is_bit_identical_to_the_whole_array_rule(shape, dtype):
    rng = np.random.default_rng(11)
    p = Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype)
    data, square_avg = p.data.copy(), np.zeros(shape, dtype)
    opt = RmsProp({"p": p}, lr=1e-3)
    for _ in range(3):
        g = rng.standard_normal(shape).astype(dtype)
        p._grad = g
        opt.step()
        _whole_array_step(data, square_avg, g, 1e-3, RHO, EPS)
    assert p.data.dtype == dtype
    npt.assert_array_equal(p.data, data)
    npt.assert_array_equal(opt.square_avg["p"], square_avg)


def test_nan_in_the_last_block_of_the_last_parameter_touches_nothing():
    rng = np.random.default_rng(12)
    params = {name: Tensor(rng.standard_normal(size), requires_grad=True)
              for name, size in (("a", 7), ("b", 2 * BLOCK + 5))}
    opt = RmsProp(params, lr=1e-2)
    for p in params.values():
        p._grad = rng.standard_normal(p.data.shape).astype(np.float32)
    opt.step()
    before = {name: (p.data.copy(), opt.square_avg[name].copy()) for name, p in params.items()}
    for p in params.values():
        p._grad = rng.standard_normal(p.data.shape).astype(np.float32)
    params["b"]._grad[-1] = np.nan
    with pytest.raises(NumericError, match="'b'"):
        opt.step()
    for name, p in params.items():
        npt.assert_array_equal(p.data, before[name][0])
        npt.assert_array_equal(opt.square_avg[name], before[name][1])


def test_a_step_allocates_no_full_size_temporary():
    # 4M float32 elements are 16 MB, and a boolean mask of them 4 MB
    n = 4 * 1024 * 1024
    p = Tensor(np.zeros(n, np.float32), requires_grad=True)
    p._grad = np.full(n, 0.5, np.float32)
    opt = RmsProp({"p": p}, lr=1e-3)
    opt.step()  # the first step allocates the per-dtype scratch
    tracemalloc.start()
    try:
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_a_parameter_backward_never_reached_steps_as_with_a_zero_gradient():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(2 * BLOCK + 5).astype(np.float32)
    grads = [rng.standard_normal(values.size).astype(np.float32), None, None]
    params = {name: Tensor(values.copy(), requires_grad=True) for name in ("unreached", "zero")}
    opt = RmsProp(params, lr=1e-2)
    for g in grads:
        params["unreached"]._grad = None if g is None else g.copy()
        params["zero"]._grad = np.zeros_like(values) if g is None else g.copy()
        opt.step()
    assert params["unreached"].data.tobytes() == params["zero"].data.tobytes()
    assert opt.square_avg["unreached"].tobytes() == opt.square_avg["zero"].tobytes()
    assert not np.array_equal(params["zero"].data, values)


def test_a_step_allocates_nothing_for_a_parameter_backward_never_reached():
    n = 4 * 1024 * 1024
    p = Tensor(np.zeros(n, np.float32), requires_grad=True)
    opt = RmsProp({"p": p}, lr=1e-3)
    opt.step()
    tracemalloc.start()
    try:
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
