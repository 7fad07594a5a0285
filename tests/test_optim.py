"""Adam update contracts."""

import numpy as np
import pytest

from soekit import tensor as T
from soekit.optim import Adam, MissingGradientError
from soekit.tensor import Tensor, backward


def test_zero_gradient_leaves_params_unchanged():
    p = Tensor(np.array([1.5, -2.0], np.float32), requires_grad=True)
    p.grad = np.zeros(2, np.float32)
    opt = Adam({"p": p}, lr=0.1)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)
    assert opt.step_count == 1
    assert p.grad is None  # cleared after the step


def test_constant_gradient_decreases_param_monotonically():
    # scalar simulation of the Adam recurrence with g > 0
    p = Tensor(np.array([0.7], np.float32), requires_grad=True)
    opt = Adam({"p": p}, lr=0.01)
    values = [p.data[0]]
    for _ in range(50):
        p.grad = np.array([0.3], np.float32)
        opt.step()
        values.append(p.data[0])
    diffs = np.diff(values)
    assert (diffs < 0).all()


def test_step_one_bias_correction_gives_lr_sized_update():
    # at step 1 the update is lr * g / (|g| + eps) ~= lr * sign(g)
    for g in (1e-4, 0.5, 40.0, -3.0):
        p = Tensor(np.array([0.0], np.float32), requires_grad=True)
        opt = Adam({"p": p}, lr=0.01)
        p.grad = np.array([g], np.float32)
        opt.step()
        assert abs(abs(p.data[0]) - 0.01) < 0.01 * 0.01
        assert np.sign(p.data[0]) == -np.sign(g)


def test_missing_gradient_names_parameter():
    a = Tensor(np.ones(2, np.float32), requires_grad=True)
    b = Tensor(np.ones(2, np.float32), requires_grad=True)
    a.grad = np.ones(2, np.float32)
    opt = Adam({"a": a, "b": b})
    with pytest.raises(MissingGradientError, match="'b'"):
        opt.step()


def test_moment_buffers_match_param_shapes():
    p = Tensor(np.zeros((3, 4), np.float32), requires_grad=True)
    opt = Adam({"p": p})
    assert opt.m["p"].shape == (3, 4)
    assert opt.v["p"].shape == (3, 4)


def test_adam_converges_on_quadratic():
    p = Tensor(np.array([5.0], np.float32), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(300):
        loss = T.mean(T.mul(p, p))
        backward(loss)
        opt.step()
    assert abs(p.data[0]) < 1e-2

