import numpy as np
import pytest
from numpy.testing import assert_allclose

from ulskit import (
    DimensionMismatch,
    NotPositiveDefinite,
    RngStream,
    ar1_covariance,
    cholesky,
    sample_gaussian,
    spd_solve,
)
from ulskit.numerics import bartlett_factor, max_eigenvalue


def test_cholesky_identity():
    f = cholesky(np.eye(3))
    assert_allclose(f.lower, np.eye(3))


def test_cholesky_reconstruction():
    a = np.array([[4.0, 2.0], [2.0, 3.0]])
    f = cholesky(a)
    assert_allclose(f.lower, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    assert_allclose(f.lower @ f.lower.T, a, rtol=1e-14)


def test_cholesky_indefinite():
    # eigenvalues 3 and -1
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_rejects_asymmetric():
    with pytest.raises(ValueError):
        cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_cholesky_singular_gram_rank_deficient():
    # Gram of a single row in R^2 has rank 1
    x = np.array([[1.0, 2.0]])
    with pytest.raises(NotPositiveDefinite):
        cholesky(x.T @ x)


def test_spd_solve_identity():
    b = np.array([3.0, -1.0, 0.5])
    assert_allclose(spd_solve(cholesky(np.eye(3)), b), b)


def test_spd_solve_small_system():
    a = np.array([[4.0, 2.0], [2.0, 3.0]])
    x = spd_solve(cholesky(a), np.array([6.0, 5.0]))
    assert_allclose(x, [1.0, 1.0], rtol=1e-12)
    assert_allclose(a @ x, [6.0, 5.0], rtol=1e-12)


def test_spd_solve_diagonal_scaling():
    a = np.diag([2.0, 2.0])
    assert_allclose(spd_solve(cholesky(a), [4.0, -4.0]), [2.0, -2.0], rtol=1e-12)


def test_spd_solve_non_finite_rhs():
    with pytest.raises(ValueError, match="non-finite"):
        spd_solve(cholesky(np.eye(2)), [np.inf, 0.0])


def test_spd_solve_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        spd_solve(cholesky(np.eye(2)), np.ones(3))


@pytest.mark.parametrize("seed", range(8))
def test_solve_roundtrip_random_spd(seed):
    rng = RngStream(seed, 0)
    b = rng.standard_normal((6, 6))
    a = b.T @ b + np.eye(6)
    x = rng.standard_normal(6)
    out = spd_solve(cholesky(a), a @ x)
    assert np.linalg.norm(out - x) <= 1e-8 * np.linalg.norm(x)


def test_ar1_scalar():
    assert_allclose(ar1_covariance(1, 0.7), [[1.0]])


def test_ar1_entries():
    expected = np.array(
        [[1.0, 0.3, 0.09], [0.3, 1.0, 0.3], [0.09, 0.3, 1.0]]
    )
    assert_allclose(ar1_covariance(3, 0.3), expected)


def test_ar1_zero_rho_is_identity():
    assert_allclose(ar1_covariance(2, 0.0), np.eye(2))


@pytest.mark.parametrize("rho", [-0.9, -0.5, 0.3, 0.9])
@pytest.mark.parametrize("p", [2, 50, 200])
def test_ar1_positive_definite(rho, p):
    cholesky(ar1_covariance(p, rho))  # raises if any eigenvalue is <= 0


def test_sample_gaussian_mean():
    n = 100_000
    draws = sample_gaussian(RngStream(1, 0), np.zeros(3), cholesky(np.eye(3)), n)
    assert np.all(np.abs(draws.mean(axis=0)) < 4.0 / np.sqrt(n))


def test_sample_gaussian_deterministic():
    args = (np.zeros(2), cholesky(ar1_covariance(2, 0.3)), 100)
    first = sample_gaussian(RngStream(5, 9), *args)
    second = sample_gaussian(RngStream(5, 9), *args)
    assert np.array_equal(first, second)


def test_sample_gaussian_lag1_correlation():
    n = 100_000
    draws = sample_gaussian(
        RngStream(2, 0), np.zeros(2), cholesky(ar1_covariance(2, 0.3)), n
    )
    corr = np.corrcoef(draws.T)[0, 1]
    assert 0.29 <= corr <= 0.31


def test_rng_stream_reproducible():
    a = RngStream(123, 45).standard_normal(64)
    b = RngStream(123, 45).standard_normal(64)
    assert np.array_equal(a, b)


def test_rng_streams_differ_by_id():
    a = RngStream(123, 0).standard_normal(64)
    b = RngStream(123, 1).standard_normal(64)
    assert not np.array_equal(a, b)


def test_max_eigenvalue_when_ones_is_an_eigenvector():
    # the all-ones vector is the lambda = 1 eigenvector here, so a power
    # iteration started from it never sees lambda = 2
    a = np.array([[1.5, -0.5], [-0.5, 1.5]])
    assert max_eigenvalue(a) == pytest.approx(2.0, rel=1e-14)


def test_bartlett_factor_moments():
    # W = A A' ~ Wishart(df, I): E W = df I, Var W_ii = 2 df, Var W_ij = df,
    # and A z ~ N(0, df I) marginally. Tolerances are about 5 Monte Carlo
    # standard errors at this draw count.
    p, df, draws = 3, 7, 20_000
    rng = RngStream(11, 0)
    w = np.empty((draws, p, p))
    s = np.empty((draws, p))
    for k in range(draws):
        a = bartlett_factor(rng, df, p).lower
        assert np.array_equal(a, np.tril(a)) and np.all(np.diag(a) > 0)
        w[k] = a @ a.T
        s[k] = a @ rng.standard_normal(p)
    off = ~np.eye(p, dtype=bool)
    assert_allclose(w.mean(axis=0), df * np.eye(p), atol=0.15)
    var_w = w.var(axis=0)
    assert_allclose(np.diag(var_w), 2 * df, rtol=0.08)
    assert_allclose(var_w[off], df, rtol=0.08)
    cov_s = s.T @ s / draws
    assert_allclose(np.diag(cov_s), df, rtol=0.08)
    assert_allclose(cov_s[off], 0.0, atol=0.3)


def test_bartlett_factor_needs_df_at_least_p():
    assert bartlett_factor(RngStream(0, 0), 3, 3).dim == 3
    with pytest.raises(ValueError):
        bartlett_factor(RngStream(0, 0), 2, 3)
