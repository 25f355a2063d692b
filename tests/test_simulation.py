import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import rows_as_multiset
from ulskit import (
    Dataset,
    EmptyDataset,
    RngStream,
    draw_truth,
    generate_rep,
    mpe,
    run_experiment,
    write_records,
)
from ulskit.simulation import SimConfig, _run_rep, draw_rep_stats


def small_config(**overrides):
    base = dict(
        n_r=400,
        n_f=40,
        p=5,
        subsample_ratio=0.3,
        delta=2.0,
        reps=5,
        seed=123,
        methods=("retrain", "pretrain", "ols", "uls"),
    )
    base.update(overrides)
    return SimConfig(**base)


def test_truth_zero_delta():
    cfg = small_config(delta=0.0)
    theta_r, theta_f = draw_truth(cfg, RngStream(0, 0))
    assert np.array_equal(theta_r, theta_f)


def test_truth_shift_norm():
    for delta in (0.5, 2.0, 7.0):
        cfg = small_config(delta=delta)
        theta_r, theta_f = draw_truth(cfg, RngStream(1, 0))
        assert np.linalg.norm(theta_f - theta_r) == pytest.approx(delta, abs=1e-12)


def test_truth_shift_coordinates():
    cfg = small_config(p=4, delta=2.0)
    theta_r, theta_f = draw_truth(cfg, RngStream(2, 0))
    assert_allclose(theta_f - theta_r, np.full(4, 1.0), rtol=1e-14)


def test_generated_noise_variance():
    cfg = small_config(n_r=10_000, n_f=10, subsample_ratio=0.1)
    theta_r, theta_f = draw_truth(cfg, RngStream(3, 0))
    remaining, _, _ = generate_rep(cfg, theta_r, theta_f, RngStream(3, 1))
    residual = remaining.y - remaining.x @ theta_r
    assert abs(residual.var() - 1.0) <= 0.05


def test_generated_forget_lag1_covariance():
    cfg = small_config(n_r=100, n_f=10_000, p=5, subsample_ratio=0.5)
    theta_r, theta_f = draw_truth(cfg, RngStream(4, 0))
    _, forget, _ = generate_rep(cfg, theta_r, theta_f, RngStream(4, 1))
    cov = forget.x.T @ forget.x / forget.n
    lag1 = np.diag(cov, k=1).mean()
    assert abs(lag1 - 0.3) <= 0.02


def test_full_ratio_subsample_is_permutation():
    cfg = small_config(subsample_ratio=1.0)
    theta_r, theta_f = draw_truth(cfg, RngStream(5, 0))
    remaining, _, sub = generate_rep(cfg, theta_r, theta_f, RngStream(5, 1))
    assert_allclose(rows_as_multiset(sub), rows_as_multiset(remaining))


def test_run_deterministic_across_thread_counts():
    cfg = small_config(reps=6)
    records_serial, summary_serial = run_experiment(cfg, threads=1)
    records_pool, summary_pool = run_experiment(cfg, threads=4)
    assert len(records_serial) == len(records_pool)
    for a, b in zip(records_serial, records_pool):
        assert (a.rep, a.method, a.error, a.covered, a.sd_hat) == (
            b.rep,
            b.method,
            b.error,
            b.covered,
            b.sd_hat,
        )
    assert summary_serial.to_json_dict() == summary_pool.to_json_dict()


def test_retrain_beats_pretrain_under_shift():
    cfg = small_config(n_r=500, n_f=25, p=5, delta=3.0, reps=1, seed=9)
    _, summary = run_experiment(cfg, threads=1)
    agg = summary.methods
    assert agg["retrain"]["mean_error"] < agg["pretrain"]["mean_error"]


def test_exact_unlearn_identity_rep_by_rep():
    cfg = small_config(delta=0.0, subsample_ratio=1.0, reps=4, methods=("retrain", "uls"))
    records, _ = run_experiment(cfg, threads=1)
    by_rep = {}
    for r in records:
        by_rep.setdefault(r.rep, {})[r.method] = r.error
    for rep, errs in by_rep.items():
        assert errs["uls"] == pytest.approx(errs["retrain"], abs=1e-10)


def test_coverage_se_reported():
    cfg = small_config(reps=8, methods=("uls", "ols"))
    _, summary = run_experiment(cfg, threads=2)
    for name in ("uls", "ols"):
        agg = summary.methods[name]
        c = agg["coverage"]
        assert agg["coverage_se"] == pytest.approx(
            np.sqrt(c * (1 - c) / 8), rel=1e-12
        )


def test_gd_method_in_harness():
    cfg = small_config(reps=2, methods=("uls", "gd"))
    records, _ = run_experiment(cfg, threads=1)
    by_rep = {}
    for r in records:
        by_rep.setdefault(r.rep, {})[r.method] = r.error
    for errs in by_rep.values():
        assert errs["gd"] == pytest.approx(errs["uls"], abs=1e-5)


def test_oracle_lambda_mode_runs():
    cfg = small_config(reps=2, methods=("uls+", "graddiff", "tl"), oracle_lambda=True)
    records, summary = run_experiment(cfg, threads=1)
    assert all(r.error is not None for r in records)
    assert summary.methods["graddiff"]["n_failed"] == 0


def test_mpe_values():
    rng = RngStream(6, 0)
    x = rng.standard_normal((25, 3))
    theta = rng.standard_normal(3)
    exact = Dataset(x, x @ theta, "test")
    assert mpe(theta, exact) == 0.0
    noisy = Dataset(x, x @ theta + rng.standard_normal(25), "test")
    assert mpe(np.zeros(3), noisy) == pytest.approx(np.mean(noisy.y**2), rel=1e-14)
    by_hand = np.mean([(noisy.y[i] - x[i] @ theta) ** 2 for i in range(25)])
    assert mpe(theta, noisy) == pytest.approx(by_hand, rel=1e-12)
    with pytest.raises(EmptyDataset):
        mpe(theta, Dataset(np.empty((0, 3)), np.empty(0), "forget"))


def test_records_csv_layout(tmp_path):
    cfg = small_config(reps=2, methods=("uls", "ols"))
    records, _ = run_experiment(cfg, threads=1)
    path = tmp_path / "records.csv"
    write_records(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rep,method,error,covered,sd_hat,millis"
    assert len(lines) == 1 + len(records)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "uls"
    assert first[3] in ("0", "1")
    assert first[5] == ""  # timing omitted by default


def test_methods_validated():
    with pytest.raises(ValueError):
        small_config(methods=("uls", "nope"))


def test_uls_error_monotone_in_subsample_and_dimension():
    # statistical check at full scale: more subsample rows should
    # not hurt, more dimensions should not help (2 MC-standard-error slack)
    def run(ratio, p):
        cfg = SimConfig(
            subsample_ratio=ratio, p=p, reps=60, seed=31, methods=("uls",)
        )
        records, summary = run_experiment(cfg)
        errors = np.array([r.error for r in records])
        return errors.mean(), errors.std(ddof=1) / np.sqrt(errors.size)

    by_ratio = [run(ratio, 50) for ratio in (0.1, 0.2, 0.3)]
    for (lo_mean, lo_se), (hi_mean, hi_se) in zip(by_ratio, by_ratio[1:]):
        slack = 2.0 * np.hypot(lo_se, hi_se)
        assert hi_mean <= lo_mean + slack

    by_dim = [run(0.2, p) for p in (10, 50, 100)]
    for (lo_mean, lo_se), (hi_mean, hi_se) in zip(by_dim, by_dim[1:]):
        slack = 2.0 * np.hypot(lo_se, hi_se)
        assert hi_mean >= lo_mean - slack


def test_uls_interval_narrower_than_ols_across_settings():
    # the a/c experimental axes; the b axis at full scale is covered by the
    # acceptance suite
    settings = [
        dict(subsample_ratio=0.1),
        dict(subsample_ratio=0.3),
        dict(delta=1.0),
        dict(delta=3.0),
    ]
    for overrides in settings:
        cfg = SimConfig(reps=30, seed=13, methods=("uls", "ols"), **overrides)
        _, summary = run_experiment(cfg)
        assert (
            summary.methods["uls"]["mean_sd"] < summary.methods["ols"]["mean_sd"]
        ), overrides


@pytest.mark.parametrize(
    "n_r, p, ratio",
    [(40, 3, 0.25), (12, 5, 0.75)],  # 30 other rows by Bartlett; 3 < p drawn
)
def test_rep_stats_moments(n_r, p, ratio):
    # n_r sigma_r = X'X and n_r (m_r - sigma_r theta_r) = X'eps of n_r iid
    # N(0, I) rows with unit noise: E X'X = n_r I, Var (X'X)_ii = 2 n_r,
    # Cov X'eps = n_r I. Tolerances are about 5 Monte Carlo standard errors.
    cfg = small_config(n_r=n_r, n_f=4, p=p, subsample_ratio=ratio)
    theta_r, theta_f = draw_truth(cfg, RngStream(8, 0))
    draws = 4000
    gram = np.empty((draws, p, p))
    cross = np.empty((draws, p))
    for k in range(draws):
        st_r, st_sub, forget, sub = draw_rep_stats(
            cfg, theta_r, theta_f, RngStream(8, 1 + k)
        )
        assert (st_r.n, st_sub.n, sub.n, forget.n) == (n_r, cfg.n_sub, cfg.n_sub, 4)
        gram[k] = n_r * st_r.sigma
        cross[k] = n_r * (st_r.m - st_r.sigma @ theta_r)
    assert_allclose(gram.mean(axis=0), n_r * np.eye(p), atol=0.08 * n_r)
    assert_allclose(np.diag(gram.var(axis=0)), 2 * n_r, rtol=0.15)
    assert_allclose(cross.T @ cross / draws, n_r * np.eye(p), atol=0.15 * n_r)


def test_rep_stats_few_other_rows_are_rows():
    # n_r - n_sub = 3 < p = 5 has no Bartlett draw: the 3 rows are drawn, so
    # their Gram has rank 3
    cfg = small_config(n_r=12, n_f=4, p=5, subsample_ratio=0.75)
    theta_r, theta_f = draw_truth(cfg, RngStream(7, 0))
    st_r, st_sub, _, _ = draw_rep_stats(cfg, theta_r, theta_f, RngStream(7, 1))
    rest = cfg.n_r * st_r.sigma - cfg.n_sub * st_sub.sigma
    assert np.linalg.matrix_rank(rest, tol=1e-8) == 3


def test_run_rep_full_ratio_uls_is_retrain_under_shift():
    cfg = small_config(subsample_ratio=1.0, delta=2.0)
    theta_r, theta_f = draw_truth(cfg, RngStream(cfg.seed, 0))
    st_r, st_sub, _, _ = draw_rep_stats(cfg, theta_r, theta_f, RngStream(0, 1))
    assert st_r is st_sub
    errors = {r.method: r.error for r in _run_rep(cfg, 0, theta_r, theta_f, {})}
    assert errors["uls"] == pytest.approx(errors["retrain"], abs=1e-10)
    assert abs(errors["pretrain"] - errors["retrain"]) > 1e-3
