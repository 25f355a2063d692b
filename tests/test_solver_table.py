"""The solver table forms and factors each subsample Gram once per problem,
and tuning reads that problem instead of forming its Grams again.

The counts are taken by replacing `cholesky`, `compute_stats` and tuning's
`_fold_stats` under every name a ulskit module binds them to, as
`from .numerics import cholesky` does.
"""

import sys
import warnings
from contextlib import suppress
from collections import Counter

import numpy as np
import pytest

from helpers import linear_instance, near_range_instance
from ulskit import (
    Dataset,
    RngStream,
    SingularGram,
    UlsError,
    ci_ols,
    ci_uls,
    cv_select,
    data_model,
    estimators,
    numerics,
    prepare,
    pretrain,
    save_csv,
    save_model,
    transfer_ridge,
    tuning,
    uls,
)
from ulskit.cli import main
from ulskit.estimators import SOLVERS, graddiff_threshold
from ulskit.simulation import SimConfig, _run_rep, draw_truth, run_experiment
from ulskit.tuning import CV_METHODS, CvSpec, log_grid


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

    for fn in (numerics.cholesky, data_model.compute_stats, tuning._fold_stats):
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
    records = _run_rep(cfg, 0, theta_r, theta_f, {}, None)
    assert all(r.error is not None and r.covered is not None for r in records)
    assert tally["cholesky"] <= 3
    # the subsample's Gram only: the forget set is drawn as statistics
    assert tally["compute_stats"] == 1


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
    records = _run_rep(cfg, 0, theta_r, theta_f, {}, CvSpec())
    assert all(r.error is not None for r in records)
    assert tally["compute_stats"] == 1
    # the three searches share the replication's 5 folds
    assert tally["_fold_stats"] == 5
    # the AR(rho) design factor (the config's first replication forms it),
    # theta_p, the subsample factor (which also gives graddiff's pencil, read
    # by its CV and its fit) and one per CV fold, shared by the uls+ path and
    # graddiff's fold pencils; the tl path and fit factor nothing
    assert tally["cholesky"] == 8


def test_tuned_experiment_forms_the_ar_factor_once(calls):
    cfg = SimConfig(n_r=400, n_f=40, p=5, subsample_ratio=0.5, reps=2,
                    seed=4, methods=("uls", "uls+", "graddiff", "tl", "gd"))
    tally, _ = calls
    tally.clear()
    records, _ = run_experiment(cfg)
    assert all(r.error is not None for r in records)
    # the AR factor once, then 7 a replication as above
    assert tally["cholesky"] == 1 + 2 * 7
    assert tally["_fold_stats"] == 2 * 5


def test_cv_searches_on_one_problem_and_stream_share_their_folds(calls):
    model, _, forget, sub = linear_instance(12, n_sub=150)
    spec = CvSpec(folds=5, grid=tuple(log_grid(1e-3, 1e3, 8)))
    pb = prepare(model, forget, sub)
    pb.pencil  # graddiff's feasibility check reads the problem's own factor
    tally, _ = calls
    tally.clear()
    rng = RngStream(9, 2)
    shared = {method: cv_select(method, pb, spec, rng) for method in CV_METHODS}
    assert tally["cholesky"] == 5 and tally["_fold_stats"] == 5
    for method, result in shared.items():  # as if it were the only search
        assert result == cv_select(method, prepare(model, forget, sub), spec,
                                   RngStream(9, 2))
    # another stream object draws its own folds, even with the same ids
    tally.clear()
    assert cv_select("tl", pb, spec, RngStream(9, 2)) == shared["tl"]
    assert tally["_fold_stats"] == 5
    assert cv_select("tl", pb, spec, RngStream(9, 3))[1] != shared["tl"][1]


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
    for d in (remaining, forget, Dataset(remaining.x, remaining.y, "test")):
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


@pytest.mark.parametrize("method", list(SOLVERS))
def test_near_range_fit_is_a_named_error_or_a_fit(method):
    # coefficients of +-1e307 overflow uls's solve and GD's first gradient;
    # every fit and path leaves by a named error or a result, never a warning
    model, forget, sub = near_range_instance()
    solver = SOLVERS[method]
    calls = [lambda pb: solver.fit(pb, 1e3)]
    if solver.tuned:
        calls.append(lambda pb: solver.path(pb, np.array([1.0, 1e3])))
    for call in calls:
        with warnings.catch_warnings(), suppress(ValueError, UlsError):
            warnings.simplefilter("error")
            call(prepare(model, forget, sub))


def test_uls_plus_path_computes_no_certificate(monkeypatch):
    # the path mixes the bare uls and ols coefficients; only a fit is certified
    count = Counter()
    grad = estimators._uls_grad

    def counted(*args):
        count["_uls_grad"] += 1
        return grad(*args)

    monkeypatch.setattr(estimators, "_uls_grad", counted)
    model, _, forget, sub = linear_instance(3)
    pb = prepare(model, forget, sub)
    SOLVERS["uls+"].path(pb, np.array([0.5, 2.0]))
    assert count["_uls_grad"] == 0
    SOLVERS["uls+"].fit(pb, 0.5)
    assert count["_uls_grad"] == 1


@pytest.fixture
def certificates(monkeypatch):
    """Counter of the fits certified, as calls of ``estimators._result``."""
    count = Counter()
    result = estimators._result

    def counted(*args):
        count["_result"] += 1
        return result(*args)

    monkeypatch.setattr(estimators, "_result", counted)
    return count


def _instance_files(tmp_path, model, forget, sub):
    paths = {"model": tmp_path / "model.json", "forget": tmp_path / "forget.csv",
             "sub": tmp_path / "sub.csv"}
    save_model(model, paths["model"])
    save_csv(forget, paths["forget"])
    save_csv(sub, paths["sub"])
    return ["--model", str(paths["model"]), "--forget", str(paths["forget"]),
            "--sub", str(paths["sub"]), "--out", str(tmp_path / "r.json")]


def test_readers_of_bare_coefficients_compute_no_certificate(certificates, tmp_path):
    # only a reported fit is certified: intervals, the plug-in rule, the
    # pretrained fit, infer and the simulation read the guarded coefficients
    model, remaining, forget, sub = linear_instance(3)
    v = np.ones(model.p)
    io = _instance_files(tmp_path, model, forget, sub)
    readers = {
        "ci_uls": lambda: ci_uls(model, forget, sub, v),
        "ci_ols": lambda: ci_ols(sub, v),
        "plugin_lambda": lambda: tuning.plugin_lambda(prepare(model, forget, sub)),
        "pretrain": lambda: pretrain("squared", remaining),
        "infer": lambda: main(["infer", *io, "--coord", "1"]),
        "run_experiment": lambda: run_experiment(
            SimConfig(n_r=200, n_f=20, p=3, reps=2, methods=tuple(SOLVERS)), 1),
    }
    counts, returned = {}, {}
    for name, read in readers.items():
        certificates.clear()
        returned[name] = read()
        counts[name] = certificates["_result"]
    assert counts == dict.fromkeys(readers, 0)
    records, _ = returned["run_experiment"]
    assert returned["infer"] == 0 and all(r.failure is None for r in records)


def test_a_reported_fit_is_certified_once(certificates, tmp_path):
    model, _, forget, sub = linear_instance(3)
    certificates.clear()
    assert uls(model, forget, sub).grad_residual is not None
    assert certificates["_result"] == 1
    certificates.clear()
    assert main(["unlearn", *_instance_files(tmp_path, model, forget, sub)]) == 0
    assert certificates["_result"] == 1
