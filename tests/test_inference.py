import math

import numpy as np
import pytest
from scipy.special import ndtri

from helpers import linear_instance
from ulskit import (
    Dataset,
    DegenerateDirection,
    InferenceReport,
    RngStream,
    SingularGram,
    ci_ols,
    ci_uls,
    normal_quantile,
    prepare,
    uls,
    variance_uls,
)
from ulskit.inference import _noise_terms

Z_975 = 1.9599639845400545


def test_normal_quantile_value():
    assert normal_quantile(0.975) == pytest.approx(Z_975, abs=1e-9)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("q", [-0.1, 1.5, math.inf])
def test_normal_quantile_outside_the_unit_interval_is_nan(q):
    assert math.isnan(normal_quantile(q))


def test_normal_quantile_at_the_ends_is_infinite():
    assert normal_quantile(0.0) == -math.inf and normal_quantile(1.0) == math.inf


def test_normal_quantile_bits():
    # the bits of scipy.stats.norm.ppf(0.975), which start-up no longer imports
    assert normal_quantile(0.975) == float.fromhex("0x1.f5c0331eeff84p+0")


def test_normal_quantile_matches_ndtri_bit_for_bit():
    rng = RngStream(7, 0)
    edges = [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)]
    qs = np.concatenate([
        rng.uniform(3000),
        10.0 ** (-300.0 * rng.uniform(3000)),  # the far lower tail
        1.0 - 10.0 ** (-16.0 * rng.uniform(3000)),  # the upper tail
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        [0.0, 1.0, 5e-324, 0.5],
    ])
    got = np.array([normal_quantile.__wrapped__(float(q)) for q in qs])
    assert got.tobytes() == ndtri(qs).tobytes()


def noise_terms(v, sub, theta_uls, theta_p):
    """The noise terms (a, b) against the subsample's own Cholesky factor."""
    return _noise_terms(v, sub, prepare(None, None, sub).sub_factor, theta_uls, theta_p)


def test_noise_terms_b_vanishes_when_thetas_agree():
    model, _, _, sub = linear_instance(0)
    theta = model.theta_p
    _, b = noise_terms(np.eye(model.p)[0], sub, theta, theta)
    assert np.max(np.abs(b)) == 0.0


def test_noise_terms_a_vanishes_without_residuals():
    rng = RngStream(1, 0)
    x = rng.standard_normal((50, 3))
    theta = rng.standard_normal(3)
    sub = Dataset(x, x @ theta, "subsample")
    a, _ = noise_terms(np.eye(3)[1], sub, theta, theta + 1.0)
    assert np.max(np.abs(a)) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_noise_terms_b_centered(seed):
    model, _, forget, sub = linear_instance(seed)
    fit = uls(model, forget, sub)
    v = RngStream(seed, 3).standard_normal(model.p)
    _, b = noise_terms(v, sub, fit.theta, model.theta_p)
    assert abs(b.mean()) <= 1e-10 * (1.0 + np.max(np.abs(b)))


def test_variance_full_sample_degenerates():
    a = np.array([1.0, -2.0, 0.5])
    b = np.array([5.0, 5.0, 5.0])
    # n_sub == n_r: the b weights vanish and only sum(a^2)/n_r^2 remains
    assert variance_uls(a, b, 3) == pytest.approx(
        np.sum(a**2) / 9.0, rel=1e-14
    )


def test_variance_hand_value():
    assert variance_uls(np.ones(2), np.zeros(2), 4) == pytest.approx(0.25, rel=1e-14)


def test_variance_homogeneous_degree_two():
    rng = RngStream(2, 0)
    a, b = rng.standard_normal(10), rng.standard_normal(10)
    assert variance_uls(2.0 * a, 2.0 * b, 40) == pytest.approx(
        4.0 * variance_uls(a, b, 40), rel=1e-12
    )


def test_variance_nonnegative():
    rng = RngStream(3, 0)
    for _ in range(20):
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        assert variance_uls(a, b, 30) >= 0.0


def test_variance_rejects_more_terms_than_remaining_rows():
    # one term per subsample row, and the subsample is drawn from the n_r rows
    a, b = np.ones(5), np.zeros(5)
    assert variance_uls(a, b, 5) == pytest.approx(0.2, rel=1e-14)
    with pytest.raises(ValueError, match="n_sub=5 cannot exceed n_r=4"):
        variance_uls(a, b, 4)


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
