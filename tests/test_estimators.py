import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from helpers import linear_instance, logistic_instance, near_range_instance
from ulskit import (
    Dataset,
    Diverged,
    GdConfig,
    IndefiniteObjective,
    LOGISTIC,
    NotConverged,
    PretrainedModel,
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
    uls_plus,
)
from ulskit.estimators import SOLVERS, _result, _uls_grad
from ulskit.simulation import pooled_problem


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
    retrain = ols_fit(remaining)
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
    fit = uls(model, forget, Dataset(remaining.x, remaining.y, "subsample"))
    assert fit.theta[0] == pytest.approx(2.0, rel=1e-12)


def _uls_objective(theta, model, forget, sub, lam=0.0):
    w = model
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
    grad = _uls_grad(fit.theta, prepare(model, forget, sub))
    assert np.linalg.norm(grad) < 1e-6 * (1.0 + np.linalg.norm(model.theta_p))


def test_uls_objective_grad_matches_finite_differences():
    model, _, forget, sub = linear_instance(7)
    rng = RngStream(7, 2)
    theta = model.theta_p + 0.3 * rng.standard_normal(model.p)
    grad = _uls_grad(theta, prepare(model, forget, sub))
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
    grad = _uls_grad(model.theta_p, prepare(model, empty, sub))
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


def test_uls_plus_endpoints_are_exactly_uls_and_ols():
    # uls+ weighs the uls and ols fits by w = lam / (omega_r + lam), which is
    # exactly 0 at lam = 0 and rounds to exactly 1 at lam = 1e308
    model, _, forget, sub = linear_instance(3, p=6, n_sub=150)
    assert np.array_equal(uls_plus(model, forget, sub, 0.0).theta,
                          uls(model, forget, sub).theta)
    assert np.array_equal(uls_plus(model, forget, sub, 1e308).theta, ols_fit(sub).theta)


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


def test_closed_form_certificate_overflow_names_no_lam():
    # theta_p = 1e308 and sigma_f = 1.5 with omega_f / omega_r = 1/4: the fit,
    # theta_p (1 + 1.5 / 4), is finite, but sigma_f theta in its certificate
    # is not; uls takes no lam, so its message names none
    model = PretrainedModel(np.full(1, 1e308), n_total=100, n_remaining=80, n_forget=20)
    forget = Dataset(np.full((20, 1), math.sqrt(1.5)), np.zeros(20), "forget")
    sub = Dataset(np.ones((40, 1)), np.zeros(40), "subsample")
    with pytest.raises(ValueError) as exc:
        uls(model, forget, sub)
    assert str(exc.value) == "the fit's gradient certificate overflows"


def test_gd_stops_at_an_overflowing_gradient():
    # grad(theta_p; forget) overflows at the start: a named error at once,
    # not t_max iterations of NaN ending in NotConverged
    model, forget, sub = near_range_instance()
    seen = []
    with pytest.raises(ValueError, match="GD objective.s gradient overflows"):
        gd_unlearn(model, forget, sub, callback=lambda t, theta: seen.append(t))
    assert seen == []


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
    fit = gd_unlearn(model, forget, sub)
    target = uls(model, forget, sub).theta
    assert np.linalg.norm(fit.theta - target) <= 1e-6
    assert fit.iterations <= 10_000


def test_gd_empty_forget_stops_immediately():
    model, _, _, sub = linear_instance(14)
    empty = Dataset(np.empty((0, model.p)), np.empty(0), "forget")
    fit = gd_unlearn(model, empty, sub)
    assert fit.iterations == 0
    assert np.array_equal(fit.theta, model.theta_p)


def test_gd_with_full_subsample_reaches_retrain():
    model, remaining, forget, sub = linear_instance(15, sub_is_remaining=True)
    fit = gd_unlearn(model, forget, sub, GdConfig(grad_tol=1e-12))
    retrain = ols_fit(remaining).theta
    assert np.linalg.norm(fit.theta - retrain) <= 1e-6


def test_gd_error_contraction():
    model, _, forget, sub = linear_instance(16)
    target = uls(model, forget, sub).theta
    errors = [np.linalg.norm(model.theta_p - target)]
    gd_unlearn(
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
    huge = 1e4 * default_step_size(model, sub)
    with pytest.raises(Diverged):
        gd_unlearn(model, forget, sub, GdConfig(alpha=huge))


def test_gd_on_rows_and_on_their_statistics_agree():
    # the rows are reduced to the same statistics, step size included
    model, _, forget, sub = linear_instance(19)
    rows = gd_unlearn(model, forget, sub)
    stats = gd_unlearn(model, compute_stats(forget), compute_stats(sub))
    assert np.array_equal(rows.theta, stats.theta)
    assert rows.iterations == stats.iterations > 0
    assert rows.grad_residual == stats.grad_residual


def test_gd_solver_needs_no_forget_rows():
    # the simulation's problem holds the forget set's statistics only
    model, remaining, forget, sub = linear_instance(20)
    pb = pooled_problem(compute_stats(remaining), compute_stats(sub),
                        compute_stats(forget), sub)
    assert pb.forget is None
    fit = SOLVERS["gd"].fit(pb)
    assert fit.iterations > 0
    assert np.linalg.norm(fit.theta - SOLVERS["uls"].fit(pb).theta) <= 1e-6


def test_logistic_gd_rejects_statistics():
    model, remaining, forget = logistic_instance(22, n_r=300, n_f=30)
    sub = Dataset(remaining.x, remaining.y, "subsample")
    with pytest.raises(ValueError, match="needs the rows"):
        gd_unlearn(model, compute_stats(forget), compute_stats(sub))


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
