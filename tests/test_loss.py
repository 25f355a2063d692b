import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit

from ulskit import (
    Dataset,
    LOGISTIC,
    SQUARED,
    RngStream,
    compute_stats,
    concat_datasets,
    estimators,
    loss_grad,
    loss_value,
    ols_fit,
    pretrain,
)
from ulskit.data_model import LOSS_IDS
from ulskit.loss import sigmoid

UNKNOWN_LOSS = re.escape(str(LOSS_IDS))


def test_a_loss_is_its_name():
    assert (SQUARED, LOGISTIC) == LOSS_IDS == ("squared", "logistic")


def test_unknown_loss_name_rejected():
    d = Dataset(np.array([[3.0, -1.0]]), np.array([2.0]))
    empty = Dataset(np.empty((0, 2)), np.empty(0), "forget")
    for data in (d, empty, compute_stats(d)):
        with pytest.raises(ValueError, match=UNKNOWN_LOSS):
            loss_grad("hinge", np.zeros(2), data)
    for data in (d, empty):
        with pytest.raises(ValueError, match=UNKNOWN_LOSS):
            loss_value("hinge", np.zeros(2), data)


def test_pretrain_rejects_an_unknown_loss_before_fitting(monkeypatch):
    # real-valued responses: the name is checked before the logistic {0, 1}
    # label check, and before either fit starts
    def no_fit(*args):
        raise AssertionError("pretrain fitted under an unknown loss")

    monkeypatch.setattr(estimators, "ols_fit", no_fit)
    monkeypatch.setattr(estimators, "_fit_logistic", no_fit)
    d = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([0.5, -1.5, 2.5]))
    with pytest.raises(ValueError, match=UNKNOWN_LOSS):
        pretrain("hinge", d, n_forget=1)


def test_squared_value_single_row():
    d = Dataset(np.array([[3.0, -1.0]]), np.array([2.0]))
    assert loss_value(SQUARED, np.zeros(2), d) == 4.0


def test_logistic_value_at_zero():
    d = Dataset(np.array([[0.7, 0.1]]), np.array([1.0]))
    assert loss_value(LOGISTIC, np.zeros(2), d) == pytest.approx(np.log(2.0))


def test_squared_value_matches_row_loop():
    rng = RngStream(0, 0)
    d = Dataset(rng.standard_normal((3, 2)), rng.standard_normal(3))
    theta = rng.standard_normal(2)
    by_hand = sum((d.y[i] - d.x[i] @ theta) ** 2 for i in range(3))
    assert loss_value(SQUARED, theta, d) == pytest.approx(by_hand, rel=1e-14)


def test_squared_grad_zero_at_ols():
    rng = RngStream(1, 0)
    d = Dataset(rng.standard_normal((30, 3)), rng.standard_normal(30))
    theta = ols_fit(d).theta
    assert np.linalg.norm(loss_grad(SQUARED, theta, d)) < 1e-8


def test_squared_grad_formula():
    rng = RngStream(2, 0)
    d = Dataset(rng.standard_normal((10, 3)), rng.standard_normal(10))
    theta = rng.standard_normal(3)
    assert_allclose(
        loss_grad(SQUARED, theta, d),
        -2.0 * d.x.T @ (d.y - d.x @ theta),
        rtol=1e-14,
    )


def _central_difference(f, theta, d, h=1e-5):
    grad = np.empty_like(theta)
    for j in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (loss_value(f, up, d) - loss_value(f, down, d)) / (2.0 * h)
    return grad


@pytest.mark.parametrize("f", [SQUARED, LOGISTIC], ids=["squared", "logistic"])
@pytest.mark.parametrize("seed", range(4))
def test_grad_matches_finite_differences(f, seed):
    rng = RngStream(seed, 0)
    x = rng.standard_normal((5, 3))
    if f == LOGISTIC:
        y = (rng.uniform(5) < 0.5).astype(float)
    else:
        y = rng.standard_normal(5)
    d = Dataset(x, y)
    theta = 0.5 * rng.standard_normal(3)
    grad = loss_grad(f, theta, d)
    approx = _central_difference(f, theta, d)
    assert np.linalg.norm(grad - approx) <= 1e-5 * (1.0 + np.linalg.norm(grad))


def test_empty_dataset_grad_is_zero():
    d = Dataset(np.empty((0, 4)), np.empty(0), "forget")
    assert loss_value(SQUARED, np.ones(4), d) == 0.0
    assert_allclose(loss_grad(SQUARED, np.ones(4), d), np.zeros(4))


def test_squared_grad_from_statistics():
    # -2 n (m - sigma theta) is -2 X'(y - X theta); the logistic loss needs rows
    rng = RngStream(5, 0)
    d = Dataset(rng.standard_normal((30, 4)), rng.standard_normal(30))
    theta = rng.standard_normal(4)
    st = compute_stats(d)
    assert_allclose(loss_grad(SQUARED, theta, st), loss_grad(SQUARED, theta, d),
                    rtol=1e-12, atol=1e-12 * np.linalg.norm(d.x.T @ d.y))
    with pytest.raises(ValueError, match="needs the rows"):
        loss_grad(LOGISTIC, theta, st)


def test_grad_additive_over_concat():
    rng = RngStream(3, 0)
    d1 = Dataset(rng.standard_normal((6, 2)), rng.standard_normal(6))
    d2 = Dataset(rng.standard_normal((4, 2)), rng.standard_normal(4))
    both = concat_datasets([d1, d2], "remaining")
    theta = rng.standard_normal(2)
    lhs = loss_grad(SQUARED, theta, both)
    rhs = loss_grad(SQUARED, theta, d1) + loss_grad(SQUARED, theta, d2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(lhs)))


@pytest.mark.parametrize("seed", range(4))
def test_logistic_midpoint_convexity(seed):
    rng = RngStream(seed, 0)
    d = Dataset(
        rng.standard_normal((12, 3)), (rng.uniform(12) < 0.5).astype(float)
    )
    t1, t2 = rng.standard_normal(3), rng.standard_normal(3)
    mid = loss_value(LOGISTIC, 0.5 * (t1 + t2), d)
    avg = 0.5 * (loss_value(LOGISTIC, t1, d) + loss_value(LOGISTIC, t2, d))
    assert mid <= avg + 1e-10


def test_logistic_rejects_bad_labels():
    d = Dataset(np.ones((2, 1)), np.array([0.0, 2.0]))
    with pytest.raises(ValueError):
        loss_value(LOGISTIC, np.zeros(1), d)
    with pytest.raises(ValueError):
        loss_grad(LOGISTIC, np.zeros(1), d)


def test_sigmoid_tails_against_expit():
    # the suite turns RuntimeWarning into an error, so exp(800)'s overflow
    # must stay silent; the error is at most an ulp of 1 (2.2e-16)
    u = np.concatenate([np.linspace(-800.0, 800.0, 160_001), [-709.79, 709.79]])
    assert np.max(np.abs(sigmoid(u) - expit(u))) <= 2.3e-16
    d = Dataset(np.array([[800.0], [-800.0]]), np.array([1.0, 0.0]))
    assert loss_grad(LOGISTIC, np.ones(1), d).tolist() == [0.0]
