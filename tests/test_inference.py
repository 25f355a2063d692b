import numpy as np
import pytest

from helpers import linear_instance
from ulskit import (
    Dataset,
    DegenerateDirection,
    InferenceReport,
    NoiseTerms,
    RngStream,
    SingularGram,
    ci_ols,
    ci_uls,
    noise_terms,
    normal_quantile,
    uls,
    variance_uls,
)

Z_975 = 1.9599639845400545


def test_normal_quantile_value():
    assert normal_quantile(0.975) == pytest.approx(Z_975, abs=1e-9)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)


def test_normal_quantile_bits():
    # the bits of scipy.stats.norm.ppf(0.975), which start-up no longer imports
    assert normal_quantile(0.975) == float.fromhex("0x1.f5c0331eeff84p+0")


def test_noise_terms_b_vanishes_when_thetas_agree():
    model, _, _, sub = linear_instance(0)
    theta = model.theta_p
    terms = noise_terms(np.eye(model.p)[0], sub, theta, theta)
    assert np.max(np.abs(terms.b)) == 0.0


def test_noise_terms_a_vanishes_without_residuals():
    rng = RngStream(1, 0)
    x = rng.standard_normal((50, 3))
    theta = rng.standard_normal(3)
    sub = Dataset(x, x @ theta, "subsample")
    terms = noise_terms(np.eye(3)[1], sub, theta, theta + 1.0)
    assert np.max(np.abs(terms.a)) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_noise_terms_b_centered(seed):
    model, _, forget, sub = linear_instance(seed)
    fit = uls(model, forget, sub)
    v = RngStream(seed, 3).standard_normal(model.p)
    terms = noise_terms(v, sub, fit.theta, model.theta_p)
    assert abs(terms.b.mean()) <= 1e-10 * (1.0 + np.max(np.abs(terms.b)))


def test_variance_full_sample_degenerates():
    a = np.array([1.0, -2.0, 0.5])
    b = np.array([5.0, 5.0, 5.0])
    # n_sub == n_r: the b weights vanish and only sum(a^2)/n_r^2 remains
    assert variance_uls(NoiseTerms(a, b), 3, 3) == pytest.approx(
        np.sum(a**2) / 9.0, rel=1e-14
    )


def test_variance_hand_value():
    terms = NoiseTerms(np.ones(2), np.zeros(2))
    assert variance_uls(terms, 4, 2) == pytest.approx(0.25, rel=1e-14)


def test_variance_homogeneous_degree_two():
    rng = RngStream(2, 0)
    terms = NoiseTerms(rng.standard_normal(10), rng.standard_normal(10))
    doubled = NoiseTerms(2.0 * terms.a, 2.0 * terms.b)
    assert variance_uls(doubled, 40, 10) == pytest.approx(
        4.0 * variance_uls(terms, 40, 10), rel=1e-12
    )


def test_variance_nonnegative():
    rng = RngStream(3, 0)
    for _ in range(20):
        terms = NoiseTerms(rng.standard_normal(8), rng.standard_normal(8))
        assert variance_uls(terms, 30, 8) >= 0.0


def test_ci_uls_z_multiplier():
    model, _, forget, sub = linear_instance(4)
    report = ci_uls(model, forget, sub, np.eye(model.p)[0], alpha=0.05)
    half = 0.5 * (report.ci_hi - report.ci_lo)
    assert half == pytest.approx(Z_975 * np.sqrt(report.variance), rel=1e-12)
    assert report.ci_lo <= report.point <= report.ci_hi
    assert report.method == "uls"


def test_ci_uls_zero_direction_rejected():
    model, _, forget, sub = linear_instance(5)
    with pytest.raises(DegenerateDirection):
        ci_uls(model, forget, sub, np.zeros(model.p), alpha=0.05)


def test_ci_ols_noiseless_zero_width():
    rng = RngStream(6, 0)
    x = rng.standard_normal((40, 3))
    theta_star = rng.standard_normal(3)
    sub = Dataset(x, x @ theta_star, "subsample")
    report = ci_ols(sub, np.eye(3)[0], alpha=0.05)
    assert report.ci_hi - report.ci_lo <= 1e-10
    assert report.point == pytest.approx(theta_star[0], abs=1e-8)


def test_ci_ols_sample_mean_formula():
    # p=1 with x == 1 reduces to the textbook CI for a sample mean
    rng = RngStream(7, 0)
    y = 3.0 + 0.8 * rng.standard_normal(200)
    sub = Dataset(np.ones((200, 1)), y, "subsample")
    report = ci_ols(sub, np.array([1.0]), alpha=0.05)
    s = np.sqrt(np.sum((y - y.mean()) ** 2) / (200 - 1))
    expected_half = Z_975 * s / np.sqrt(200)
    assert 0.5 * (report.ci_hi - report.ci_lo) == pytest.approx(
        expected_half, rel=1e-12
    )
    assert report.point == pytest.approx(y.mean(), rel=1e-12)


def test_ci_ols_needs_degrees_of_freedom():
    rng = RngStream(8, 0)
    sub = Dataset(rng.standard_normal((3, 3)), rng.standard_normal(3), "subsample")
    with pytest.raises(SingularGram):
        ci_ols(sub, np.eye(3)[0])


def test_direction_scaling():
    model, _, forget, sub = linear_instance(9)
    v = RngStream(9, 3).standard_normal(model.p)
    base = ci_uls(model, forget, sub, v, alpha=0.05)
    scaled = ci_uls(model, forget, sub, 3.0 * v, alpha=0.05)
    assert scaled.point == pytest.approx(3.0 * base.point, rel=1e-12)
    assert np.sqrt(scaled.variance) == pytest.approx(
        3.0 * np.sqrt(base.variance), rel=1e-12
    )


def test_report_json_shape():
    model, _, forget, sub = linear_instance(10)
    report = ci_uls(model, forget, sub, np.eye(model.p)[0], alpha=0.1)
    payload = report.to_json_dict()
    assert set(payload) == {"v", "point", "variance", "ci", "alpha", "method"}
    assert payload["ci"] == [report.ci_lo, report.ci_hi]
    assert payload["alpha"] == 0.1


def test_report_non_finite_variance_is_a_numerics_error():
    nan = float("nan")
    with pytest.raises(SingularGram):
        InferenceReport(
            v=np.ones(2), point=0.0, variance=nan, ci_lo=nan, ci_hi=nan,
            alpha=0.05, method="uls",
        )
