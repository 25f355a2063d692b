"""One test decides whether a Gram matrix is positive definite: the Cholesky
factor with a pivot floor on the equilibrated pivots. GradDiff's pencil is
reduced through that same factor, and the floor holds on designs whose
columns differ in scale by orders of magnitude."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh

from helpers import linear_instance
from ulskit import (
    SQUARED,
    Dataset,
    NotPositiveDefinite,
    RngStream,
    SingularGram,
    cholesky,
    concat_datasets,
    cv_select,
    ols_fit,
    prepare,
    pretrain,
    subsample,
)
from ulskit.estimators import SOLVERS, graddiff_threshold


@pytest.mark.parametrize("instance", [
    dict(seed=20, n_sub=150),
    dict(seed=21, p=8, n_sub=9),  # n_sub close to p
    dict(seed=22, n_r=2000, n_f=200, p=50, n_sub=300),
])
def test_pencil_matches_the_generalized_eigh(instance):
    model, _, forget, sub = linear_instance(**instance)
    pb = prepare(model, forget, sub)
    mu, v = pb.pencil
    sigma_f, sigma_sub = pb.st_f.sigma, pb.st_sub.sigma
    assert_allclose(mu, eigh(sigma_f, sigma_sub, eigvals_only=True), rtol=1e-12)
    assert_allclose(v.T @ sigma_sub @ v, np.eye(model.p), rtol=0.0, atol=1e-10)
    assert_allclose(sigma_f @ v, sigma_sub @ v * mu, rtol=0.0, atol=1e-10)
    assert graddiff_threshold(pb) == mu[-1]


def _block_scaled(x):
    """x with its columns in three blocks scaled by 1e4, 1 and 1e-4."""
    p = x.shape[1]
    return x * np.repeat([1e4, 1.0, 1e-4], [p - 2 * (p // 3), p // 3, p // 3])


def test_scaled_design_fits_like_lstsq():
    # the smallest pivot is ~1e-8 of the largest, but every equilibrated
    # pivot is ~1: the system is well conditioned once the columns are scaled
    rng = RngStream(30, 0)
    x = rng.standard_normal((20000, 50))
    y = x @ rng.standard_normal(50) + rng.standard_normal(20000)
    xs = _block_scaled(x)
    theta = ols_fit(Dataset(xs, y)).theta
    reference = np.linalg.lstsq(xs, y, rcond=None)[0]
    assert np.linalg.norm(theta - reference) <= 1e-10 * np.linalg.norm(reference)
    # exact in exact arithmetic: the unscaled fit, mapped through the scaling
    exact = np.linalg.lstsq(x, y, rcond=None)[0] / (xs[0] / x[0])
    assert_allclose(theta, exact, rtol=1e-12)


def test_scaled_design_unlearns_and_tunes_graddiff():
    rng = RngStream(31, 0)
    theta_r = rng.standard_normal(50)
    x_r, x_f = rng.standard_normal((20000, 50)), rng.standard_normal((1000, 50))
    remaining = Dataset(_block_scaled(x_r), x_r @ theta_r + rng.standard_normal(20000))
    forget = Dataset(_block_scaled(x_f), x_f @ (theta_r + 0.3) + rng.standard_normal(1000),
                     "forget")
    model = pretrain(SQUARED, concat_datasets([remaining, forget], "remaining"), 1000)
    pb = prepare(model, forget, subsample(remaining, 2000, RngStream(31, 1)))
    fit = SOLVERS["uls"].fit(pb)
    assert np.all(np.isfinite(fit.theta))
    lam, _ = cv_select("graddiff", pb, rng=RngStream(31, 2))
    assert lam > graddiff_threshold(pb)
    SOLVERS["graddiff"].fit(pb, lam)  # must not raise IndefiniteObjective


def test_near_collinear_columns_are_still_singular():
    rng = RngStream(32, 0)
    x = rng.standard_normal((20000, 50))
    x[:, 1] = x[:, 0] + 1e-9 * rng.standard_normal(20000)
    y = x @ rng.standard_normal(50) + rng.standard_normal(20000)
    with pytest.raises(SingularGram):
        ols_fit(Dataset(x, y))


def test_matrix_near_overflow_is_judged_without_warnings():
    # trace(a) overflows here; the equilibrated pivots lie in (0, 1]
    a = 1e308 * np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = cholesky(a)
        with pytest.raises(NotPositiveDefinite):
            cholesky(1e308 * np.ones((2, 2)))
    assert_allclose(f[:, 0], [1e154, 0.5e154, 0.0], rtol=1e-15)
    assert np.all(np.isfinite(f))
