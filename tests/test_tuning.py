import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import linear_instance
from ulskit import (
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
    transfer_ridge,
    uls_plus,
)
from ulskit.simulation import mpe


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
    w = model.weights()
    delta_hat = np.linalg.norm(ols_fit(sub).theta - ols_fit(forget).theta)
    assert lam == pytest.approx(w.omega_r * w.omega_f * delta_hat, rel=1e-12)
    assert lam > 0.0


def test_plugin_lambda_tracks_true_discrepancy():
    model, _, forget, sub = linear_instance(
        9, n_r=4000, n_f=500, p=4, n_sub=1500, delta=5.0
    )
    w = model.weights()
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
