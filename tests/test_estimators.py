import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from helpers import linear_instance, logistic_instance
from ulskit import (
    Dataset,
    Diverged,
    GdConfig,
    IndefiniteObjective,
    LOGISTIC,
    NotConverged,
    RngStream,
    SQUARED,
    SingularGram,
    compute_stats,
    concat_datasets,
    default_step_size,
    gd_unlearn,
    graddiff,
    loss_grad,
    loss_value,
    ols_fit,
    prepare,
    pretrain,
    transfer_ridge,
    uls,
    uls_objective_grad,
    uls_plus,
)
from ulskit.estimators import SOLVERS, _result


def test_ols_sample_mean():
    d = Dataset(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
    fit = ols_fit(d)
    assert_allclose(fit.theta, [2.0], rtol=1e-14)
    assert fit.iterations == 0


def test_ols_noiseless_interpolation():
    rng = RngStream(0, 0)
    x = rng.standard_normal((40, 4))
    theta_star = rng.standard_normal(4)
    fit = ols_fit(Dataset(x, x @ theta_star))
    assert np.linalg.norm(fit.theta - theta_star) < 1e-8


def test_ols_underdetermined():
    rng = RngStream(1, 0)
    with pytest.raises(SingularGram):
        ols_fit(Dataset(rng.standard_normal((3, 5)), rng.standard_normal(3)))


def test_uls_empty_forget_is_identity():
    model, _, _, sub = linear_instance(2)
    empty = Dataset(np.empty((0, model.p)), np.empty(0), "forget")
    fit = uls(model, empty, sub)
    assert np.array_equal(fit.theta, model.theta_p)
    assert fit.grad_residual == 0.0


def test_uls_exact_unlearning_with_full_subsample():
    model, remaining, forget, sub = linear_instance(3, sub_is_remaining=True)
    fit = uls(model, forget, sub)
    retrain = ols_fit(remaining, method="retrain")
    gap = np.linalg.norm(fit.theta - retrain.theta)
    assert gap <= 1e-8 * (1.0 + np.linalg.norm(retrain.theta))


def test_uls_worked_scalar_example():
    # remaining x=(1,1), y=(1,3); forget x=(1), y=(10): full-data fit is 14/3
    # and unlearning with the full remaining set recovers the retrained 2.
    remaining = Dataset(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
    forget = Dataset(np.array([[1.0]]), np.array([10.0]), "forget")
    full = concat_datasets([remaining, forget], "remaining")
    model = pretrain(SQUARED, full, n_forget=1)
    assert model.theta_p[0] == pytest.approx(14.0 / 3.0, rel=1e-14)
    fit = uls(model, forget, remaining.with_role("subsample"))
    assert fit.theta[0] == pytest.approx(2.0, rel=1e-12)


def _uls_objective(theta, model, forget, sub, lam=0.0):
    w = model.weights()
    st_sub = compute_stats(sub)
    st_f = compute_stats(forget)
    sigma_mix = w.omega_r * st_sub.sigma + w.omega_f * st_f.sigma
    gap = model.theta_p - theta
    value = (
        -(w.omega_f / forget.n) * loss_value(SQUARED, theta, forget)
        + gap @ sigma_mix @ gap
    )
    if lam:
        value += lam / sub.n * loss_value(SQUARED, theta, sub)
    return value


@pytest.mark.parametrize("seed", range(5))
def test_uls_output_is_stationary(seed):
    model, _, forget, sub = linear_instance(seed)
    fit = uls(model, forget, sub)
    grad = uls_objective_grad(fit.theta, model, forget, sub)
    assert np.linalg.norm(grad) < 1e-6 * (1.0 + np.linalg.norm(model.theta_p))


def test_uls_objective_grad_matches_finite_differences():
    model, _, forget, sub = linear_instance(7)
    rng = RngStream(7, 2)
    theta = model.theta_p + 0.3 * rng.standard_normal(model.p)
    grad = uls_objective_grad(theta, model, forget, sub)
    h = 1e-6
    approx = np.empty_like(theta)
    for j in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        approx[j] = (
            _uls_objective(up, model, forget, sub)
            - _uls_objective(down, model, forget, sub)
        ) / (2.0 * h)
    assert np.linalg.norm(grad - approx) <= 1e-5 * (1.0 + np.linalg.norm(grad))


def test_uls_objective_grad_empty_forget_at_pretrained():
    model, _, _, sub = linear_instance(4)
    empty = Dataset(np.empty((0, model.p)), np.empty(0), "forget")
    grad = uls_objective_grad(model.theta_p, model, empty, sub)
    assert np.max(np.abs(grad)) <= 1e-12


def test_uls_plus_reduces_to_uls_at_zero():
    model, _, forget, sub = linear_instance(5)
    base = uls(model, forget, sub)
    plus = uls_plus(model, forget, sub, 0.0)
    assert np.linalg.norm(plus.theta - base.theta) <= 1e-10
    assert plus.lambda_used == 0.0


def test_uls_plus_large_lambda_limit():
    model, _, forget, sub = linear_instance(6)
    plus = uls_plus(model, forget, sub, 1e8)
    target = ols_fit(sub).theta
    assert np.linalg.norm(plus.theta - target) <= 1e-4


def test_uls_plus_empty_forget_is_identity():
    model, _, _, sub = linear_instance(8)
    empty = Dataset(np.empty((0, model.p)), np.empty(0), "forget")
    fit = uls_plus(model, empty, sub, 3.0)
    assert np.array_equal(fit.theta, model.theta_p)


def test_uls_plus_matches_independent_optimizer():
    # 20x3 instance: the closed form must agree with a from-scratch numeric
    # minimization of the penalized objective.
    model, _, forget, sub = linear_instance(9, n_r=20, n_f=6, p=3, n_sub=20)
    lam = 0.7
    fit = uls_plus(model, forget, sub, lam)
    res = minimize(
        _uls_objective,
        x0=model.theta_p,
        args=(model, forget, sub, lam),
        method="BFGS",
        options={"gtol": 1e-12, "maxiter": 5000},
    )
    assert np.linalg.norm(fit.theta - res.x) <= 1e-6


def test_graddiff_large_lambda_limit():
    model, _, forget, sub = linear_instance(10)
    fit = graddiff(model, forget, sub, 1e8)
    assert np.linalg.norm(fit.theta - ols_fit(sub).theta) <= 1e-4


def test_graddiff_indefinite_detection():
    model, _, forget, sub = linear_instance(11)
    with pytest.raises(IndefiniteObjective):
        graddiff(model, forget, sub, 1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_graddiff_stationary_point(seed):
    model, _, forget, sub = linear_instance(seed + 20)
    lam = 25.0
    fit = graddiff(model, forget, sub, lam)
    grad = (
        -loss_grad(SQUARED, fit.theta, forget) / forget.n
        + lam / sub.n * loss_grad(SQUARED, fit.theta, sub)
    )
    assert np.linalg.norm(grad) < 1e-6


@pytest.mark.parametrize("method", ["uls+", "graddiff", "tl"])
@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_non_finite_lambda_is_an_input_error(method, lam):
    model, _, forget, sub = linear_instance(4)
    with pytest.raises(ValueError):
        SOLVERS[method].fit(prepare(model, forget, sub), lam)


def test_certificate_norm_survives_overflowing_squares():
    # the squares of 1e300 overflow; the rescaled norm does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = _result("tl", np.zeros(4), np.full(4, 1e300), 1.0)
        assert fit.grad_residual == pytest.approx(2e300, rel=1e-15)
        for grad in ([1.0, np.inf], [np.nan, 1.0], [1.5e308, 1.5e308]):
            with pytest.raises(ValueError, match="certificate overflows"):
                _result("tl", np.zeros(2), np.array(grad), 1.0)


def test_transfer_ridge_limits():
    model, _, _, sub = linear_instance(12)
    near_zero = transfer_ridge(model, sub, 1e-10)
    assert np.linalg.norm(near_zero.theta - ols_fit(sub).theta) <= 1e-6
    huge = transfer_ridge(model, sub, 1e8)
    assert np.linalg.norm(huge.theta - model.theta_p) <= 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_transfer_ridge_stationary_point(seed):
    model, _, _, sub = linear_instance(seed + 30)
    lam = 0.4
    fit = transfer_ridge(model, sub, lam)
    grad = loss_grad(SQUARED, fit.theta, sub) / sub.n + 2.0 * lam * (
        fit.theta - model.theta_p
    )
    assert np.linalg.norm(grad) < 1e-6


def test_gd_matches_closed_form():
    model, _, forget, sub = linear_instance(13)
    fit = gd_unlearn(SQUARED, model, forget, sub)
    target = uls(model, forget, sub).theta
    assert np.linalg.norm(fit.theta - target) <= 1e-6
    assert fit.iterations <= 10_000


def test_gd_empty_forget_stops_immediately():
    model, _, _, sub = linear_instance(14)
    empty = Dataset(np.empty((0, model.p)), np.empty(0), "forget")
    fit = gd_unlearn(SQUARED, model, empty, sub)
    assert fit.iterations == 0
    assert np.array_equal(fit.theta, model.theta_p)


def test_gd_with_full_subsample_reaches_retrain():
    model, remaining, forget, sub = linear_instance(15, sub_is_remaining=True)
    fit = gd_unlearn(SQUARED, model, forget, sub, GdConfig(grad_tol=1e-12))
    retrain = ols_fit(remaining).theta
    assert np.linalg.norm(fit.theta - retrain) <= 1e-6


def test_gd_error_contraction():
    model, _, forget, sub = linear_instance(16)
    target = uls(model, forget, sub).theta
    errors = [np.linalg.norm(model.theta_p - target)]
    gd_unlearn(
        SQUARED,
        model,
        forget,
        sub,
        GdConfig(grad_tol=1e-12),
        callback=lambda t, theta: errors.append(np.linalg.norm(theta - target)),
    )
    errors = np.array(errors)
    keep = errors > 1e-10  # ignore the floating-point floor
    tracked = errors[keep]
    assert np.all(np.diff(tracked) <= 1e-12)
    ratios = tracked[2:] / tracked[1:-1]
    assert np.all(ratios < 1.0)


def test_gd_divergence_detected():
    model, _, forget, sub = linear_instance(17)
    huge = 1e4 * default_step_size(SQUARED, model, sub)
    with pytest.raises(Diverged):
        gd_unlearn(SQUARED, model, forget, sub, GdConfig(alpha=huge))


def test_gd_loss_mismatch_rejected():
    model, _, forget, sub = linear_instance(18)
    with pytest.raises(ValueError):
        gd_unlearn(LOGISTIC, model, forget, sub)


def test_pretrain_squared_equals_ols():
    rng = RngStream(19, 0)
    d = Dataset(rng.standard_normal((60, 4)), rng.standard_normal(60))
    model = pretrain(SQUARED, d, n_forget=10)
    assert np.array_equal(model.theta_p, ols_fit(d).theta)
    assert (model.n_total, model.n_remaining, model.n_forget) == (60, 50, 10)


def test_pretrain_logistic_reaches_tolerance():
    model, remaining, forget = logistic_instance(21, n_r=900, n_f=100)
    full = concat_datasets([remaining, forget], "remaining")
    grad = loss_grad(LOGISTIC, model.theta_p, full)
    assert np.linalg.norm(grad) <= 1e-8 * full.n


def test_pretrain_separable_logistic_fails():
    x = np.linspace(-2.0, 2.0, 40).reshape(-1, 1)
    y = (x[:, 0] > 0).astype(float)
    with pytest.raises(NotConverged):
        pretrain(LOGISTIC, Dataset(x, y), n_forget=0, t_max=300)


@pytest.mark.parametrize("seed", range(3))
def test_row_permutation_equivariance(seed):
    model, _, forget, sub = linear_instance(seed + 40)
    rng = RngStream(seed, 5)
    forget_perm = Dataset(*_permute(forget, rng), "forget")
    sub_perm = Dataset(*_permute(sub, rng), "subsample")
    for fit_fn in (
        lambda f, s: uls(model, f, s).theta,
        lambda f, s: uls_plus(model, f, s, 0.5).theta,
        lambda f, s: graddiff(model, f, s, 25.0).theta,
        lambda f, s: transfer_ridge(model, s, 0.5).theta,
    ):
        base = fit_fn(forget, sub)
        permuted = fit_fn(forget_perm, sub_perm)
        assert np.max(np.abs(base - permuted)) <= 1e-12 * (1.0 + np.max(np.abs(base)))


def _permute(d, rng):
    idx = rng.permutation(d.n)
    return d.x[idx], d.y[idx]
