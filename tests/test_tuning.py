import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import linear_instance
from ulskit import (
    SQUARED,
    CvSpec,
    Dataset,
    InsufficientData,
    NoFeasibleLambda,
    RngStream,
    cv_select,
    graddiff,
    log_grid,
    ols_fit,
    plugin_lambda,
    prepare,
    pretrain,
    transfer_ridge,
    uls_plus,
)
from ulskit.data_model import compute_stats
from ulskit.errors import IndefiniteObjective, SingularGram
from ulskit.estimators import SOLVERS, graddiff_threshold
from ulskit.simulation import mpe
from ulskit.tuning import CV_METHODS, search_spec


def test_log_grid_decades():
    assert_allclose(log_grid(1.0, 100.0, 3), [1.0, 10.0, 100.0], rtol=1e-14)


def test_log_grid_paper_range():
    grid = log_grid(1e-4, 1e4, 20)
    assert grid[0] == 1e-4 and grid[-1] == 1e4
    ratios = np.diff(np.log(grid))
    assert np.max(np.abs(ratios - ratios[0])) < 1e-12


def test_log_grid_two_points():
    assert log_grid(0.5, 8.0, 2) == [0.5, 8.0]


def test_single_candidate_grid():
    model, _, forget, sub = linear_instance(0, n_sub=120)
    spec = CvSpec(folds=4, grid=(2.0,))
    lam, table = cv_select("tl", prepare(model, forget, sub), spec, RngStream(0, 9))
    assert lam == 2.0
    assert len(table) == 4
    assert all(math.isfinite(mse) for _, _, mse in table)


def test_cv_deterministic():
    model, _, forget, sub = linear_instance(1, n_sub=150)
    spec = CvSpec(folds=5, grid=tuple(log_grid(1e-3, 1e3, 8)))
    first = cv_select("uls+", prepare(model, forget, sub), spec, RngStream(3, 1))
    second = cv_select("uls+", prepare(model, forget, sub), spec, RngStream(3, 1))
    assert first == second


def test_selected_lambda_minimizes_table_mean():
    model, _, forget, sub = linear_instance(2, n_sub=150)
    spec = CvSpec(folds=5, grid=tuple(log_grid(1e-3, 1e3, 10)))
    lam, table = cv_select("tl", prepare(model, forget, sub), spec, RngStream(5, 1))
    means = {}
    for grid_lam, _, mse in table:
        means.setdefault(grid_lam, []).append(mse)
    means = {k: np.mean(v) for k, v in means.items()}
    assert means[lam] <= min(means.values()) + 1e-15


def test_graddiff_infeasible_grid():
    model, _, forget, sub = linear_instance(3, n_sub=150)
    spec = CvSpec(folds=5, grid=(1e-8, 1e-7, 1e-6))
    with pytest.raises(NoFeasibleLambda):
        cv_select("graddiff", prepare(model, forget, sub), spec, RngStream(0, 0))


def test_graddiff_selected_lambda_feasible_on_full_subsample():
    model, _, forget, sub = linear_instance(4, n_sub=200)
    spec = CvSpec(folds=5, grid=tuple(log_grid(1e-4, 1e4, 20)))
    lam, _ = cv_select("graddiff", prepare(model, forget, sub), spec, RngStream(1, 1))
    graddiff(model, forget, sub, lam)  # must not raise IndefiniteObjective


def test_insufficient_rows():
    model, _, forget, sub = linear_instance(5, n_sub=20, p=5)
    spec = CvSpec(folds=5, grid=(1.0, 2.0))
    with pytest.raises(InsufficientData):
        cv_select("uls+", prepare(model, forget, sub), spec, RngStream(0, 0))


def _brute_force_cv(method, model, forget, sub, spec, rng):
    """Row-slicing re-implementation of the fold loop, as an oracle."""
    perm = rng.permutation(sub.n)
    folds = [np.sort(perm[j :: spec.folds]) for j in range(spec.folds)]
    means = []
    for lam in spec.grid:
        scores = []
        for idx in folds:
            keep = np.setdiff1d(np.arange(sub.n), idx)
            train = Dataset(sub.x[keep], sub.y[keep], "subsample")
            held = Dataset(sub.x[idx], sub.y[idx], "test")
            if method == "uls+":
                theta = uls_plus(model, forget, train, lam).theta
            elif method == "graddiff":
                theta = graddiff(model, forget, train, lam).theta
            else:
                theta = transfer_ridge(model, train, lam).theta
            scores.append(mpe(theta, held))
        means.append(np.mean(scores))
    best = min(means)
    return max(l for l, m in zip(spec.grid, means) if m <= best + 1e-13)


@pytest.mark.parametrize("method", ["uls+", "tl"])
def test_cv_matches_brute_force(method):
    model, _, forget, sub = linear_instance(6, n_r=600, n_f=60, n_sub=180)
    spec = CvSpec(folds=3, grid=tuple(log_grid(1e-2, 1e2, 7)))
    lam, _ = cv_select(method, prepare(model, forget, sub), spec, RngStream(8, 1))
    oracle = _brute_force_cv(method, model, forget, sub, spec, RngStream(8, 1))
    assert lam == oracle


def test_uls_plus_cv_prefers_retain_term_under_large_shift():
    # when the forget model is far away, the retain loss should be active
    model, _, forget, sub = linear_instance(
        7, n_r=600, n_f=300, n_sub=200, delta=25.0
    )
    spec = CvSpec(folds=5, grid=tuple(log_grid(1e-4, 1e4, 20)))
    lam, _ = cv_select("uls+", prepare(model, forget, sub), spec, RngStream(2, 1))
    assert lam > spec.grid[0]


def test_plugin_lambda_definition():
    model, _, forget, sub = linear_instance(8, n_r=600, n_f=80, n_sub=200)
    lam = plugin_lambda(prepare(model, forget, sub))
    w = model
    delta_hat = np.linalg.norm(ols_fit(sub).theta - ols_fit(forget).theta)
    assert lam == pytest.approx(w.omega_r * w.omega_f * delta_hat, rel=1e-12)
    assert lam > 0.0


def test_plugin_lambda_tracks_true_discrepancy():
    model, _, forget, sub = linear_instance(
        9, n_r=4000, n_f=500, p=4, n_sub=1500, delta=5.0
    )
    w = model
    lam = plugin_lambda(prepare(model, forget, sub))
    # delta_hat estimates the true shift of 5, so lam should sit near the
    # omega_r*omega_f*delta oracle value
    oracle = w.omega_r * w.omega_f * 5.0
    assert 0.7 * oracle <= lam <= 1.3 * oracle


def test_spec_validation():
    with pytest.raises(ValueError):
        CvSpec(folds=1, grid=(1.0,))
    with pytest.raises(ValueError):
        CvSpec(folds=3, grid=())
    with pytest.raises(ValueError):
        CvSpec(folds=3, grid=(2.0, 1.0))
    with pytest.raises(ValueError):
        log_grid(1.0, 0.5, 3)


def test_cv_select_rejects_an_untuned_method():
    model, _, forget, sub = linear_instance(0, n_sub=120)
    with pytest.raises(ValueError, match="unknown CV method 'uls'"):
        cv_select("uls", prepare(model, forget, sub))


def test_search_spec_only_for_tuned_methods():
    assert search_spec(("retrain", "uls", "gd"), 1, 5.0, 1.0, 1) is None
    spec = search_spec(("uls", "tl"), 3, 1e-2, 1e2, 5)
    assert spec == CvSpec(folds=3, grid=tuple(log_grid(1e-2, 1e2, 5)))
    with pytest.raises(ValueError, match="need at least two grid points"):
        search_spec(("uls+",), 5, 1.0, 2.0, 1)


def _normal_equations(method, pb, lam):
    """The method's normal equations at lam, as (matrix, right-hand side)."""
    sub, f, w, theta_p = pb.st_sub, pb.st_f, pb.model, pb.theta_p
    if method == "uls+":
        mix = w.omega_r * sub.sigma + w.omega_f * f.sigma
        return ((w.omega_r + lam) * sub.sigma,
                mix @ theta_p + lam * sub.m - w.omega_f * f.m)
    if method == "graddiff":
        return lam * sub.sigma - f.sigma, lam * sub.m - f.m
    return sub.sigma + lam * np.eye(len(theta_p)), sub.m + lam * theta_p


def _assert_path_is_fit(method, pb, grid):
    """Column k of the path solves the method's normal equations at grid[k]
    (uls+ on an empty forget set: the no-op), or is NaN where fit rejects it."""
    thetas = SOLVERS[method].path(pb, np.array(grid))
    assert thetas.shape == (pb.st_sub.m.shape[0], len(grid))
    rejected = []
    for k, lam in enumerate(grid):
        if np.isnan(thetas[:, k]).any():
            rejected.append(k)
            assert np.all(np.isnan(thetas[:, k])), (method, lam)
            with pytest.raises(IndefiniteObjective):
                SOLVERS[method].fit(pb, lam)
            continue
        if method == "uls+" and pb.st_f.n == 0:
            expected = pb.theta_p
        else:
            expected = np.linalg.solve(*_normal_equations(method, pb, lam))
        assert_allclose(thetas[:, k], expected, rtol=1e-10, atol=0.0)
    return rejected


@pytest.mark.parametrize("method", CV_METHODS)
@pytest.mark.parametrize("instance", [
    dict(seed=10, n_sub=150),
    dict(seed=11, n_r=600, n_f=0, n_sub=150),  # empty forget set
    dict(seed=12, p=8, n_sub=9),  # n_sub close to p
])
def test_path_columns_are_fits(method, instance):
    model, _, forget, sub = linear_instance(**instance)
    pb = prepare(model, forget, sub)
    grid = log_grid(1e-4, 1e4, 20)
    rejected = _assert_path_is_fit(method, pb, grid)
    if method != "graddiff":
        assert rejected == []
    if method == "uls+" and forget.n == 0:
        thetas = SOLVERS[method].path(pb, np.array(grid))
        assert np.array_equal(thetas, np.repeat(model.theta_p[:, None], 20, axis=1))


def test_graddiff_path_infeasible_exactly_where_fit_rejects():
    model, _, forget, sub = linear_instance(13, n_sub=150)
    pb = prepare(model, forget, sub)
    mu_max = graddiff_threshold(pb)
    scales = (0.25, 0.5, 0.9, 0.99, 0.999, 1.001, 1.01, 1.1, 2.0, 10.0)
    rejected = _assert_path_is_fit("graddiff", pb, [mu_max * c for c in scales])
    assert rejected == [0, 1, 2, 3, 4]


def test_graddiff_path_singular_gram_rejects_every_lambda():
    # n_sub = 3 < p = 5: sigma_sub is singular, so no lambda is feasible
    model, _, forget, sub = linear_instance(14, n_sub=3)
    pb = prepare(model, forget, sub)
    assert graddiff_threshold(pb) == math.inf
    grid = log_grid(1e-2, 1e6, 9)
    assert _assert_path_is_fit("graddiff", pb, grid) == list(range(9))
    with pytest.raises(SingularGram):  # as uls+'s fit does
        SOLVERS["uls+"].path(pb, np.array(grid))


def test_graddiff_cv_never_picks_a_lambda_fit_rejects():
    # the first candidate lies within rounding of the convexity threshold,
    # where fit's Cholesky factorization can fail
    model, _, forget, sub = linear_instance(4, n_sub=200)
    pb = prepare(model, forget, sub)
    mu_max = graddiff_threshold(pb)
    grid = (mu_max * (1 + 1e-13), mu_max * (1 + 1e-3), 2.0 * mu_max)
    for seed in range(5):
        lam, _ = cv_select("graddiff", pb, CvSpec(folds=5, grid=grid),
                           RngStream(seed, 1))
        SOLVERS["graddiff"].fit(pb, lam)  # must not raise IndefiniteObjective


def test_graddiff_fit_rejects_what_its_path_rejects():
    # within the pivot floor of the threshold, the fit is the path's NaN column
    model, _, forget, sub = linear_instance(4, n_sub=200)
    pb = prepare(model, forget, sub)
    lam = graddiff_threshold(pb) * (1 + 1e-13)
    assert np.all(np.isnan(SOLVERS["graddiff"].path(pb, np.array([lam]))))
    with pytest.raises(IndefiniteObjective):
        SOLVERS["graddiff"].fit(pb, lam)


def test_tl_fit_and_path_agree_at_huge_lambda():
    # the fit divides its system by max(1, lam), the path holds lam in ratios
    model, _, forget, sub = linear_instance(2, p=6, n_sub=150)
    pb = prepare(model, forget, sub)
    lams = np.array([1e4, 1e300, 1e308])
    thetas = SOLVERS["tl"].path(pb, lams)
    for k, lam in enumerate(lams):
        assert_allclose(SOLVERS["tl"].fit(pb, lam).theta, thetas[:, k], rtol=1e-12)


@pytest.mark.parametrize("seed", [2, 4, 5, 6])
def test_uls_plus_cv_scores_a_huge_lambda(seed):
    # at lam = 1e308 the path is the subsample's ols fit, so one huge grid
    # point is scored like any other instead of failing the whole search
    model, _, forget, sub = linear_instance(seed, p=6, n_sub=150)
    lam, table = cv_select("uls+", prepare(model, forget, sub), CvSpec(grid=(1.0, 1e308)))
    assert lam == 1.0
    assert all(math.isfinite(mse) for _, _, mse in table)


def test_uls_plus_cv_empty_forget_ties_exactly_at_p50():
    # the no-op scores bit-equal at every lambda, so the largest one wins;
    # at p = 50 a BLAS product would score equal columns differently
    model, _, forget, sub = linear_instance(15, n_r=1200, n_f=0, p=50, n_sub=400)
    spec = CvSpec(folds=5, grid=tuple(log_grid(1e-4, 1e4, 20)))
    lam, table = cv_select("uls+", prepare(model, forget, sub), spec, RngStream(2, 1))
    assert lam == spec.grid[-1]
    for fold in range(5):
        assert len({mse for _, j, mse in table if j == fold}) == 1


def test_graddiff_cv_table_inf_pattern():
    # a lambda at or below the whole subsample's threshold is inf on every
    # fold; any other is inf from the first fold it is infeasible on onward
    model, _, forget, sub = linear_instance(18, n_sub=150)
    pb = prepare(model, forget, sub)
    rng_seed = (3, 1)
    perm = RngStream(*rng_seed).permutation(sub.n)
    fold_mu = []
    for j in range(5):
        idx = np.sort(perm[j::5])
        held = compute_stats(Dataset(sub.x[idx], sub.y[idx], "subsample"))
        fold_mu.append(graddiff_threshold(replace(pb, st_sub=pb.st_sub - held)))
    mu_max = graddiff_threshold(pb)
    thresholds = np.array([mu_max, *fold_mu])
    grid = [lam for lam in np.geomspace(0.5 * mu_max, 2.0 * thresholds.max(), 60)
            if np.min(np.abs(lam / thresholds - 1.0)) > 1e-9]
    # on this instance the first folds' thresholds lie below the whole one's
    assert any(fold_mu[0] < lam <= mu_max for lam in grid)
    _, table = cv_select("graddiff", pb, CvSpec(folds=5, grid=tuple(grid)),
                         RngStream(*rng_seed))
    patterns = set()
    for k, lam in enumerate(grid):
        row = [math.isinf(mse) for _, _, mse in table[5 * k:5 * k + 5]]
        if lam <= mu_max:
            expected = [True] * 5
        else:
            bad = [j for j in range(5) if lam <= fold_mu[j]]
            first = bad[0] if bad else 5
            expected = [j >= first for j in range(5)]
        assert row == expected, lam
        patterns.add(tuple(row))
    assert len(patterns) >= 3


def _exact_normal_equations(method, pb, lam):
    """_normal_equations in exact arithmetic on the float statistics."""
    def exact(a):
        return [[Fraction(v) for v in row] for row in a] if a.ndim == 2 else [
            Fraction(v) for v in a]

    sub, f, tp = exact(pb.st_sub.sigma), exact(pb.st_f.sigma), exact(pb.theta_p)
    m_sub, m_f = exact(pb.st_sub.m), exact(pb.st_f.m)
    om_f, om_r, lam = (Fraction(float(v)) for v in (pb.model.omega_f, pb.model.omega_r, lam))
    p = len(tp)
    rows = range(p)
    if method == "uls+":
        mix = [[om_r * sub[i][j] + om_f * f[i][j] for j in rows] for i in rows]
        return ([[(om_r + lam) * v for v in row] for row in sub],
                [sum(mix[i][j] * tp[j] for j in rows) + lam * m_sub[i] - om_f * m_f[i]
                 for i in rows])
    if method == "graddiff":
        return ([[lam * sub[i][j] - f[i][j] for j in rows] for i in rows],
                [lam * m_sub[i] - m_f[i] for i in rows])
    return ([[sub[i][j] + (lam if i == j else 0) for j in rows] for i in rows],
            [m_sub[i] + lam * tp[i] for i in rows])


def _exact_solve(a, b):
    """Gaussian elimination on Fractions: the exact solution of a x = b."""
    aug = [row + [bi] for row, bi in zip(a, b)]
    n = len(b)
    for c in range(n):
        pivot = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        for r in range(c + 1, n):
            ratio = aug[r][c] / aug[c][c]
            aug[r] = [u - ratio * v for u, v in zip(aug[r], aug[c])]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (aug[i][n] - sum(aug[i][k] * x[k] for k in range(i + 1, n))) / aug[i][i]
    return x


@pytest.mark.parametrize("direct", [False, True])
@pytest.mark.parametrize("scales", [(1e4, 1.0, 1e-4), (1e-4, 1.0, 1e4), (1e-6, 1.0, 1e6)])
@pytest.mark.parametrize("seed", range(2))
def test_path_columns_match_an_exact_solve_on_block_scaled_columns(scales, seed, direct,
                                                                   monkeypatch):
    # column blocks scaled by 1e4, 1 and 1e-4: an eigendecomposition's error is
    # relative to the largest eigenvalue, 1e16 times the smallest, so a path
    # column is exact to rounding only once that error is refined away; in
    # the ascending order one step of refinement is not enough, and at 1e6
    # apart and small lam no number of steps is, so the column is solved by
    # Cholesky instead, as every column is with ``direct``
    if direct:
        monkeypatch.setattr("ulskit.estimators._REFINED", -1.0)
    p, n, n_f = 6, 800, 80
    scale = np.repeat(scales, p // 3)
    rng = RngStream(seed, 0)
    x = rng.standard_normal((n, p)) * scale
    y = x @ (rng.standard_normal(p) / scale) + rng.standard_normal(n)
    model = pretrain(SQUARED, Dataset(x, y), n_forget=n_f)
    forget = Dataset(x[-n_f:], y[-n_f:], "forget")
    pb = prepare(model, forget, Dataset(x[:300], y[:300], "subsample"))
    grid = log_grid(1e-4, 1e3, 8)
    for method in CV_METHODS:
        thetas = SOLVERS[method].path(pb, np.array(grid))
        solved = 0
        for k, lam in enumerate(grid):
            if np.isnan(thetas[:, k]).any():  # below graddiff's threshold
                continue
            solved += 1
            exact = _exact_solve(*_exact_normal_equations(method, pb, lam))
            err = max(abs((Fraction(t) - e) / e) for t, e in zip(thetas[:, k], exact))
            assert err <= 1e-12, (method, lam, float(err))
        assert solved >= 3, method


def test_tl_rejects_a_lambda_at_which_a_singular_gram_stays_singular():
    # a duplicated column: sigma_sub + lam I at lam = 1e-14 has an equilibrated
    # pivot below the floor, so the eigendecomposition's column there would be
    # rounding noise along the null direction; Cholesky's pivot floor decides
    model, _, forget, sub = linear_instance(3)
    x = sub.x.copy()
    x[:, -1] = x[:, -2]
    pb = prepare(model, forget, Dataset(x, sub.y, "subsample"))
    thetas = SOLVERS["tl"].path(pb, np.array([1e-14, 1e-4]))
    assert np.isnan(thetas[:, 0]).all() and np.isfinite(thetas[:, 1]).all()
    with pytest.raises(IndefiniteObjective):
        SOLVERS["tl"].fit(pb, 1e-14)
