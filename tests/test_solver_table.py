"""The solver table forms and factors each subsample Gram once per problem,
and tuning reads that problem instead of forming its Grams again.

The counts are taken by replacing `cholesky` and `compute_stats` under every
name a ulskit module binds them to, as `from .numerics import cholesky` does.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from helpers import linear_instance
from ulskit import (
    RngStream,
    SingularGram,
    ci_uls,
    cv_select,
    data_model,
    numerics,
    prepare,
    save_csv,
    save_model,
    transfer_ridge,
    uls,
)
from ulskit.cli import main
from ulskit.estimators import SOLVERS, graddiff_threshold
from ulskit.simulation import SimConfig, _run_rep, draw_truth
from ulskit.tuning import CvSpec, log_grid


@pytest.fixture
def calls(monkeypatch):
    """Counter of calls by name, plus the datasets compute_stats saw."""
    tally = Counter()
    seen = []

    def counting(fn):
        def counted(*args, **kwargs):
            tally[fn.__name__] += 1
            if fn.__name__ == "compute_stats":
                seen.append(args[0])
            return fn(*args, **kwargs)
        return counted

    for fn in (numerics.cholesky, data_model.compute_stats):
        wrapper = counting(fn)
        for name, mod in list(sys.modules.items()):
            if name.startswith("ulskit"):
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        monkeypatch.setattr(mod, attr, wrapper)
    return tally, seen


def test_ci_uls_forms_and_factors_the_sub_gram_once(calls):
    model, _, forget, sub = linear_instance(3)
    tally, seen = calls
    tally.clear()
    ci_uls(model, forget, sub, np.eye(model.p)[0])
    assert sum(d is sub for d in seen) == 1
    assert tally["cholesky"] == 1


def test_replication_counts(calls):
    cfg = SimConfig(n_r=400, n_f=40, p=5, subsample_ratio=0.3, reps=1,
                    seed=4, methods=("uls", "ols"))
    theta_r, theta_f = draw_truth(cfg, RngStream(cfg.seed, 0))
    tally, _ = calls
    records = _run_rep(cfg, 0, theta_r, theta_f, {})
    assert all(r.error is not None and r.covered is not None for r in records)
    assert tally["cholesky"] <= 3
    assert tally["compute_stats"] == 2


def test_cv_uls_plus_factors_each_fold_once(calls):
    model, _, forget, sub = linear_instance(5, n_sub=200)
    tally, _ = calls
    tally.clear()
    spec = CvSpec(folds=5, grid=tuple(log_grid(1e-4, 1e4, 20)))
    _, table = cv_select("uls+", prepare(model, forget, sub), spec, RngStream(1, 1))
    assert len(table) == 100
    assert tally["cholesky"] == 5


def test_sub_factor_is_formed_only_by_solvers_that_need_it():
    # n_sub = 3 < p = 5: the subsample Gram is singular, which the ridge
    # solver never factors, while uls must report it
    model, _, forget, sub = linear_instance(6, n_sub=3)
    fit = transfer_ridge(model, sub, 1.0)
    assert np.all(np.isfinite(fit.theta))
    with pytest.raises(SingularGram):
        uls(model, forget, sub)


def test_tuned_replication_forms_the_grams_once(calls):
    # the sim_tuned method set: the CV of uls+, graddiff and tl and the GD
    # step size all read the replication's problem
    cfg = SimConfig(n_r=400, n_f=40, p=5, subsample_ratio=0.5, reps=1,
                    seed=4, methods=("uls", "uls+", "graddiff", "tl", "gd"))
    theta_r, theta_f = draw_truth(cfg, RngStream(cfg.seed, 0))
    tally, _ = calls
    tally.clear()
    records = _run_rep(cfg, 0, theta_r, theta_f, {})
    assert all(r.error is not None for r in records)
    assert tally["compute_stats"] == 2
    # the AR(rho) design factor, theta_p, the subsample factor (which also
    # gives graddiff's pencil, read by its CV and its fit), one per uls+ and
    # one per graddiff CV fold, and the tl fit; the tl CV path factors nothing
    assert tally["cholesky"] == 14


def test_graddiff_threshold_reuses_the_sub_factor(calls):
    # the pencil is reduced through the factor uls already formed
    model, _, forget, sub = linear_instance(10, n_sub=150)
    pb = prepare(model, forget, sub)
    uls_fit = SOLVERS["uls"].fit(pb)
    tally, _ = calls
    tally.clear()
    assert graddiff_threshold(pb) < np.inf
    assert np.all(np.isfinite(SOLVERS["graddiff"].path(pb, np.array([1e3]))))
    assert tally["cholesky"] == 0
    assert "pencil" in vars(pb)  # reduced once, then shared by the path
    assert np.array_equal(SOLVERS["uls"].fit(pb).theta, uls_fit.theta)


def test_graddiff_fit_reuses_the_pencil(calls):
    # the fit is a column of the path, so after the threshold it factors nothing
    model, _, forget, sub = linear_instance(11, n_sub=150)
    pb = prepare(model, forget, sub)
    lam = 2.0 * graddiff_threshold(pb)
    tally, _ = calls
    tally.clear()
    fit = SOLVERS["graddiff"].fit(pb, lam)
    assert tally["cholesky"] == 0
    column = SOLVERS["graddiff"].path(pb, np.array([lam]))[:, 0]
    assert np.array_equal(fit.theta, column)


def test_cli_unlearn_uls_plus_cv_forms_the_grams_once(calls, tmp_path):
    model, _, forget, sub = linear_instance(7, n_sub=200)
    paths = {name: tmp_path / f"{name}.csv" for name in ("forget", "sub")}
    save_csv(forget, paths["forget"])
    save_csv(sub, paths["sub"])
    save_model(model, tmp_path / "model.json")
    tally, _ = calls
    tally.clear()
    assert main([
        "unlearn", "--model", str(tmp_path / "model.json"),
        "--forget", str(paths["forget"]), "--sub", str(paths["sub"]),
        "--method", "uls+", "--out", str(tmp_path / "r.json"),
    ]) == 0
    assert tally["compute_stats"] == 2


def test_gd_solver_forms_no_gram_beyond_prepare(calls):
    model, _, forget, sub = linear_instance(8)
    pb = prepare(model, forget, sub)
    tally, _ = calls
    tally.clear()
    fit = SOLVERS["gd"].fit(pb)
    assert fit.iterations > 0
    assert tally["compute_stats"] == 0


def test_bench_forms_each_gram_once(calls, tmp_path):
    # the pretrained fit pools the remaining and forget statistics, so no
    # Gram of the concatenated rows is formed, and retrain reads the same one
    model, remaining, forget, _ = linear_instance(9)
    paths = {}
    for d in (remaining, forget, remaining.with_role("test")):
        paths[d.role] = tmp_path / f"{d.role}.csv"
        save_csv(d, paths[d.role])
    tally, seen = calls
    tally.clear()
    seen.clear()
    assert main([
        "bench", "--remaining", str(paths["remaining"]),
        "--forget", str(paths["forget"]), "--test", str(paths["test"]),
        "--ratio", "0.3", "--out", str(tmp_path / "mpe.csv"),
    ]) == 0
    assert tally["compute_stats"] == 3
    assert sorted((d.role, d.n) for d in seen) == [
        ("forget", 40), ("remaining", 400), ("subsample", 120),
    ]
