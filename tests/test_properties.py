"""Property tests of the closed forms and their paths.

Rescaling the columns of the design rescales every closed form's
coefficients and leaves GradDiff's threshold alone, for scales far apart
enough that a pivot floor relative to trace(A) would reject the Gram. An
empty forget set is the identity. GradDiff's path is feasible exactly above
the threshold, up to the pivot floor. Pooling and then removing statistics
gives them back up to rounding; the order of the rows does not matter; and
the interval variance is nonnegative and homogeneous of degree 2 in v. With
the whole remaining set as the subsample, uls is the retrained least squares
fit; and gradient descent stops within its residual's reach of uls."""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import eigh

from helpers import linear_instance
from ulskit import (
    Dataset,
    RngStream,
    SufficientStats,
    gd_unlearn,
    ols_fit,
    prepare,
    uls,
)
from ulskit.estimators import SOLVERS, graddiff_threshold
from ulskit.inference import uls_interval

P = 5
MODEL, _, FORGET, SUB = linear_instance(40, p=P, n_sub=150)
PROBLEM = prepare(MODEL, FORGET, SUB)
LAMS = {"ols": None, "uls": None, "uls+": 0.5,
        "graddiff": 2.0 * graddiff_threshold(PROBLEM) + 1.0}


def _scaled(d: Dataset, c) -> Dataset:
    return Dataset(d.x * c, d.y, d.role)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.lists(st.floats(-4.0, 4.0), min_size=P, max_size=P))
def test_column_scaling_rescales_the_coefficients(exponents):
    c = 10.0 ** np.array(exponents)  # log-uniform in [1e-4, 1e4]
    model = replace(MODEL, theta_p=MODEL.theta_p / c)
    scaled = prepare(model, _scaled(FORGET, c), _scaled(SUB, c))
    for method, lam in LAMS.items():
        theta = SOLVERS[method].fit(PROBLEM, lam).theta
        theta_scaled = SOLVERS[method].fit(scaled, lam).theta
        assert_allclose(theta_scaled * c, theta, rtol=1e-9,
                        atol=1e-12 * np.linalg.norm(theta), err_msg=method)
    assert_allclose(graddiff_threshold(scaled), graddiff_threshold(PROBLEM),
                    rtol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(0, 10**6), st.integers(1, 8), st.integers(0, 40),
       st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=8))
def test_empty_forget_set_is_the_identity(seed, p, n_f, lams):
    # whatever forget count the model was pretrained with
    model, _, _, sub = linear_instance(seed, n_f=n_f, p=p, n_sub=3 * p + 10)
    empty = Dataset(np.empty((0, p)), np.empty(0), "forget")
    assert np.array_equal(uls(model, empty, sub).theta, model.theta_p)
    thetas = SOLVERS["uls+"].path(prepare(model, empty, sub), np.array(lams))
    assert np.array_equal(thetas, np.repeat(model.theta_p[:, None], len(lams), axis=1))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.integers(0, 10**6), st.integers(1, 8),
       st.lists(st.floats(-10.0, 3.0), min_size=1, max_size=8))
@example(seed=0, p=5, exponents=[-10.0])
def test_graddiff_path_is_feasible_exactly_above_the_threshold(seed, p, exponents):
    model, _, forget, sub = linear_instance(seed, p=p, n_sub=3 * p + 10)
    pb = prepare(model, forget, sub)
    mu_max = eigh(pb.st_f.sigma, pb.st_sub.sigma, eigvals_only=True)[-1]
    gaps = 10.0 ** np.array(exponents)  # relative distances from mu_max
    path = SOLVERS["graddiff"].path
    assert np.all(np.isfinite(path(pb, mu_max * (1.0 + gaps)))), mu_max
    assert np.all(np.isnan(path(pb, mu_max * (1.0 - gaps)))), mu_max


def _stats(rng: RngStream, n: int, p: int, spread: float) -> SufficientStats:
    """Moments of n rows with entries of magnitudes across 10^(+-spread)."""
    scale = 10.0 ** (spread * (2.0 * rng.uniform(p) - 1.0))
    sigma = rng.standard_normal((p, p)) * np.outer(scale, scale)
    return SufficientStats(sigma=sigma + sigma.T, m=rng.standard_normal(p) * scale, n=n)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 10**6),
       st.integers(1, 10**6), st.floats(0.0, 4.0))
def test_pooling_then_removing_gives_the_statistics_back(seed, p, n_a, n_b, spread):
    rng = RngStream(seed, 0)
    a, b = _stats(rng, n_a, p, spread), _stats(rng, n_b, p, spread)
    back = (a + b) - b
    assert back.n == a.n
    # each of the two merges rounds the pooled sums n_a a + n_b b a few times
    # over, and the result divides them by n_a
    eps = np.finfo(np.float64).eps
    for got, want, other in ((back.sigma, a.sigma, b.sigma), (back.m, a.m, b.m)):
        bound = 4.0 * eps * (np.abs(want) + (n_b / n_a) * np.abs(other))
        assert np.all(np.abs(got - want) <= bound)


PERMUTATION_LAMS = {"ols": None, "uls": None, "uls+": 0.5, "tl": 0.5}


def _permuted(d: Dataset, rng: RngStream) -> Dataset:
    idx = rng.permutation(d.n)
    return Dataset(d.x[idx], d.y[idx], d.role)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 60))
def test_row_order_does_not_move_the_fits(seed, p, n_f):
    model, _, forget, sub = linear_instance(seed, n_f=n_f, p=p, n_sub=3 * p + 10)
    rng = RngStream(seed, 1)
    pb = prepare(model, forget, sub)
    shuffled = prepare(model, _permuted(forget, rng), _permuted(sub, rng))
    lams = dict(PERMUTATION_LAMS, graddiff=2.0 * graddiff_threshold(pb) + 1.0)
    for method, lam in lams.items():
        theta = SOLVERS[method].fit(pb, lam).theta
        moved = SOLVERS[method].fit(shuffled, lam).theta - theta
        assert np.linalg.norm(moved) <= 1e-12 * np.linalg.norm(theta), method


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(1, 8),
       st.floats(-6.0, 6.0), st.booleans())
def test_interval_variance_is_nonnegative_and_quadratic_in_v(seed, p, log_c, negate):
    model, _, forget, sub = linear_instance(seed, p=p, n_sub=3 * p + 10)
    pb = prepare(model, forget, sub)
    theta = SOLVERS["uls"].fit(pb).theta
    v = RngStream(seed, 2).standard_normal(p)
    c = (-1.0 if negate else 1.0) * 10.0 ** log_c
    variance = uls_interval(pb, theta, v, 0.05).variance
    scaled = uls_interval(pb, theta, c * v, 0.05).variance
    assert variance >= 0.0
    assert_allclose(scaled, c**2 * variance, rtol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(1, 8), st.integers(0, 60),
       st.integers(0, 200))
def test_uls_with_the_remaining_set_is_exact_unlearning(seed, p, n_f, extra):
    model, remaining, forget, sub = linear_instance(
        seed, n_r=2 * p + extra, n_f=n_f, p=p, sub_is_remaining=True)
    theta = uls(model, forget, sub).theta
    retrained = ols_fit(remaining).theta
    assert np.linalg.norm(theta - retrained) <= 1e-10 * np.linalg.norm(retrained)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(0, 10**6), st.integers(1, 8), st.integers(0, 60))
def test_gd_fixed_point_is_uls(seed, p, n_f):
    # GD's residual is 2 Nr sigma_sub (theta - uls): its stopping residual
    # bounds the distance to uls by residual / (2 Nr lambda_min(sigma_sub))
    model, _, forget, sub = linear_instance(seed, n_f=n_f, p=p, n_sub=3 * p + 10)
    fit = gd_unlearn(model, forget, sub)
    target = uls(model, forget, sub).theta
    pb = prepare(model, forget, sub)
    curvature = 2.0 * model.n_remaining * np.linalg.eigvalsh(pb.st_sub.sigma)[0]
    reach = 1.01 * fit.grad_residual / curvature
    assert np.linalg.norm(fit.theta - target) <= reach + 1e-12 * np.linalg.norm(target)
