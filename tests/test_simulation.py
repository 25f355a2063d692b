import os
import signal
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ulskit
from helpers import rows_as_multiset
from ulskit import (
    Dataset,
    EmptyDataset,
    RngStream,
    draw_truth,
    generate_rep,
    mpe,
    run_experiment,
    save_csv,
    write_records,
)
from ulskit import cli, numerics, simulation
from ulskit.estimators import ols_theta
from ulskit.numerics import (
    _openblas_thread_controls,
    ar1_covariance,
    blas_single_threaded,
    safe_norm,
)
from ulskit.simulation import (
    SimConfig,
    _run_rep,
    draw_rep_stats,
    pooled_problem,
    run_method,
)


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


def _simulate_tuned(tmp_path, tag, threads, openblas_threads):
    """Seeded `uls simulate` of the tuned methods in a fresh process."""
    env = dict(os.environ)
    env.pop("ULS_THREADS", None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(openblas_threads)
    src = str(Path(ulskit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    records, summary = tmp_path / f"rec_{tag}.csv", tmp_path / f"sum_{tag}.json"
    subprocess.run([
        sys.executable, "-m", "ulskit.cli", "simulate", "--nr", "4000",
        "--nf", "400", "--p", "50", "--ratio", "0.5", "--reps", "3",
        "--seed", "5", "--methods", "uls,uls+,graddiff,tl,gd",
        "--threads", str(threads),
        "--records", str(records), "--summary", str(summary),
    ], env=env, check=True, capture_output=True)
    return records.read_bytes() + summary.read_bytes()


def test_tuned_simulation_bytes_ignore_thread_settings(tmp_path):
    # pool size and the BLAS thread count of the process must not reach the
    # output: matrices this size are where OpenBLAS would start threads
    outs = {
        (threads, blas): _simulate_tuned(tmp_path, f"{threads}_{blas}", threads, blas)
        for threads in (1, 2)
        for blas in (None, 1)
    }
    assert len(set(outs.values())) == 1


def test_pool_runs_blas_single_threaded_and_restores_it(tmp_path, monkeypatch):
    # replications and bench methods run in the calling thread, with BLAS at
    # one thread while they run and its previous count back afterwards
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    seen = []

    def watched(fn):
        def call(*args, **kwargs):
            seen.append(([get() for get, _ in controls], threading.active_count()))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(simulation, "_run_rep", watched(simulation._run_rep))
    monkeypatch.setattr(cli, "run_method", watched(cli.run_method))
    rng = RngStream(8, 0)
    for name, n in (("remaining", 300), ("forget", 30), ("test", 50)):
        x = rng.standard_normal((n, 3))
        save_csv(Dataset(x, x @ np.ones(3) + rng.standard_normal(n), name),
                 tmp_path / f"{name}.csv")
    before = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(2)
        threads = threading.active_count()
        run_experiment(small_config(reps=2, methods=("uls", "tl")))
        assert [get() for get, _ in controls] == [2] * len(controls)
        assert cli.main([
            "bench", "--remaining", str(tmp_path / "remaining.csv"),
            "--forget", str(tmp_path / "forget.csv"), "--test", str(tmp_path / "test.csv"),
            "--ratio", "0.5", "--methods", "retrain,uls,tl", "--threads", "2",
            "--out", str(tmp_path / "mpe.csv"),
        ]) == 0
        assert [get() for get, _ in controls] == [2] * len(controls)
        assert seen == [([1] * len(controls), threads)] * (2 + 3)
    finally:
        for (_, put), count in zip(controls, before):
            put(count)


def test_no_openblas_found_leaves_blas_alone_and_the_records_equal(monkeypatch):
    # an MKL or Accelerate numpy, or a failed handle lookup: the thread control
    # finds nothing, does nothing, and the pool still gives the inline records
    real = _openblas_thread_controls()
    before = [get() for get, _ in real]

    def no_library(*args, **kwargs):
        raise OSError("cannot load library")

    monkeypatch.setattr(numerics.ctypes, "CDLL", no_library)
    monkeypatch.setattr(simulation, "available_cpus", lambda: 2)
    assert _openblas_thread_controls() == []
    with blas_single_threaded():
        assert [get() for get, _ in real] == before
    cfg = small_config(reps=4, methods=("uls", "tl"))
    inline, _ = run_experiment(cfg, 1)
    pooled, _ = run_experiment(cfg, 2)
    assert _without_millis(pooled) == _without_millis(inline)
    assert [get() for get, _ in real] == before


def _without_millis(records):
    return [replace(r, millis=0.0) for r in records]


@contextmanager
def _within(seconds):
    """Fail the block, rather than hang the suite, when it runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    # raises when this process has no child at all, running or a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _simulate_flags(tmp_path, tag, reps, threads):
    return ["simulate", "--nr", "400", "--nf", "40", "--p", "5", "--ratio", "0.3",
            "--reps", str(reps), "--seed", "123", "--methods", "uls,uls+,tl",
            "--threads", str(threads), "--records", str(tmp_path / f"{tag}.csv"),
            "--summary", str(tmp_path / f"{tag}.json")]


@pytest.mark.parametrize("threads, cpus, reps, expected", [
    (None, 4, 10, 4), (0, 4, 10, 4), (3, 4, 10, 3), (8, 4, 10, 4), (8, 4, 2, 2),
    (1, 4, 10, 1),
])
def test_worker_count_is_capped_at_the_cpus_and_reps(monkeypatch, threads, cpus, reps,
                                                     expected):
    monkeypatch.setattr(simulation, "available_cpus", lambda: cpus)
    assert simulation.worker_count(threads, reps) == expected


def test_a_negative_worker_count_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        run_experiment(small_config(reps=2), -1)


def test_a_huge_worker_count_forks_at_most_one_child_per_extra_cpu(monkeypatch):
    cfg = small_config(reps=3)
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    records, summary = run_experiment(cfg, 10**9)
    assert len(forks) == min(simulation.available_cpus(), 3) - 1
    _assert_no_child_left()
    inline, inline_summary = run_experiment(cfg, 1)
    assert _without_millis(records) == _without_millis(inline)
    assert summary.to_json_dict() == inline_summary.to_json_dict()


def test_simulate_with_a_huge_threads_value_writes_the_one_worker_bytes(tmp_path):
    assert cli.main(_simulate_flags(tmp_path, "huge", 3, 1_000_000)) == 0
    assert cli.main(_simulate_flags(tmp_path, "one", 3, 1)) == 0
    for suffix in (".csv", ".json"):
        assert ((tmp_path / f"huge{suffix}").read_bytes()
                == (tmp_path / f"one{suffix}").read_bytes())
    _assert_no_child_left()


def test_a_worker_result_beyond_the_pipe_buffer_comes_back_whole(monkeypatch):
    # each replication's record carries 100 kB, more than a pipe holds
    def big_rep(cfg, rep, *shared):
        return [simulation.RepRecord(rep, "uls", 1.0, None, None, 0.0, ("X", "y" * 100_000))]

    monkeypatch.setattr(simulation, "_run_rep", big_rep)
    monkeypatch.setattr(simulation, "available_cpus", lambda: 2)
    with _within(60):
        records, _ = run_experiment(small_config(reps=4, methods=("uls",)), 2)
    assert [r.rep for r in records] == [0, 1, 2, 3]
    assert all(len(r.failure[1]) == 100_000 for r in records)
    _assert_no_child_left()


@pytest.mark.parametrize("failing", ["last", "first"])
def test_a_failing_replication_raises_as_inline_and_leaves_no_child(
        monkeypatch, tmp_path, capsys, failing):
    # the last replication runs in a forked child, the first in this process
    reps = 4
    bad = reps - 1 if failing == "last" else 0
    real_run_rep = simulation._run_rep

    def run_rep(cfg, rep, *shared):
        if rep == bad:
            raise ValueError("boom")
        return real_run_rep(cfg, rep, *shared)

    monkeypatch.setattr(simulation, "_run_rep", run_rep)
    monkeypatch.setattr(simulation, "available_cpus", lambda: 2)
    for workers in (1, 2):
        with _within(60), pytest.raises(ValueError, match="^boom$"):
            run_experiment(small_config(reps=reps), workers)
        _assert_no_child_left()
    assert cli.main(_simulate_flags(tmp_path, failing, reps, 2)) == 2
    assert capsys.readouterr().err == "ValueError: boom\n"
    _assert_no_child_left()


def test_a_worker_that_dies_without_its_records_is_an_error(monkeypatch):
    parent = os.getpid()
    real_run_rep = simulation._run_rep

    def run_rep(cfg, rep, *shared):
        if os.getpid() != parent:
            os._exit(3)
        return real_run_rep(cfg, rep, *shared)

    monkeypatch.setattr(simulation, "_run_rep", run_rep)
    monkeypatch.setattr(simulation, "available_cpus", lambda: 2)
    with _within(60), pytest.raises(ChildProcessError, match="without its records"):
        run_experiment(small_config(reps=4), 2)
    _assert_no_child_left()


def test_forking_simulate_raises_no_deprecation_warning(tmp_path):
    # Python 3.12 warns when a process with threads forks
    env = dict(os.environ)
    src = str(Path(ulskit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-m", "ulskit.cli",
         *_simulate_flags(tmp_path, "warn", 4, 2)],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_retrain_beats_pretrain_under_shift():
    cfg = small_config(n_r=500, n_f=25, p=5, delta=3.0, reps=1, seed=9)
    _, summary = run_experiment(cfg)
    agg = summary.methods
    assert agg["retrain"]["mean_error"] < agg["pretrain"]["mean_error"]


def test_exact_unlearn_identity_rep_by_rep():
    cfg = small_config(delta=0.0, subsample_ratio=1.0, reps=4, methods=("retrain", "uls"))
    records, _ = run_experiment(cfg)
    by_rep = {}
    for r in records:
        by_rep.setdefault(r.rep, {})[r.method] = r.error
    for rep, errs in by_rep.items():
        assert errs["uls"] == pytest.approx(errs["retrain"], abs=1e-10)


def test_coverage_se_reported():
    cfg = small_config(reps=8, methods=("uls", "ols"))
    _, summary = run_experiment(cfg)
    for name in ("uls", "ols"):
        agg = summary.methods[name]
        c = agg["coverage"]
        assert agg["coverage_se"] == pytest.approx(
            np.sqrt(c * (1 - c) / 8), rel=1e-12
        )


def test_gd_method_in_harness():
    cfg = small_config(reps=2, methods=("uls", "gd"))
    records, _ = run_experiment(cfg)
    by_rep = {}
    for r in records:
        by_rep.setdefault(r.rep, {})[r.method] = r.error
    for errs in by_rep.values():
        assert errs["gd"] == pytest.approx(errs["uls"], abs=1e-5)


def test_oracle_lambda_mode_runs():
    cfg = small_config(reps=2, methods=("uls+", "graddiff", "tl"), oracle_lambda=True)
    records, summary = run_experiment(cfg)
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
    records, _ = run_experiment(cfg)
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
    errors = {r.method: r.error for r in _run_rep(cfg, 0, theta_r, theta_f, {}, None)}
    assert errors["uls"] == pytest.approx(errors["retrain"], abs=1e-10)
    assert abs(errors["pretrain"] - errors["retrain"]) > 1e-3


def _first_rep(cfg):
    """Replication 0 of ``cfg`` as (problem, st_r, theta_r, interval)."""
    theta_r, theta_f = draw_truth(cfg, RngStream(cfg.seed, 0))
    st_r, st_sub, st_f, sub = draw_rep_stats(cfg, theta_r, theta_f, RngStream(cfg.seed, 1))
    v = np.eye(cfg.p)[cfg.v_direction - 1]
    interval = (v, float(v @ theta_r), cfg.alpha)
    return pooled_problem(st_r, st_sub, st_f, sub), st_r, theta_r, interval


def test_run_method_blanks_every_cell_when_the_fit_fails():
    # n_sub = 4 rows cannot identify p = 8 coefficients
    cfg = small_config(n_r=200, n_f=20, p=8, subsample_ratio=0.02)
    pb, st_r, theta_r, interval = _first_rep(cfg)
    assert pb.st_sub.n == 4

    def score(theta):
        return safe_norm(theta - theta_r)

    record = run_method("uls", pb, st_r, None, None, {}, score, interval, rep=3)
    assert (record.rep, record.method) == (3, "uls")
    assert record.error is record.covered is record.sd_hat is None
    assert record.failure[0] == "SingularGram" and "n=4" in record.failure[1]
    retrain = run_method("retrain", pb, st_r, None, None, {}, score, interval)
    assert retrain.error == score(ols_theta(st_r)) and retrain.failure is None


def test_run_method_keeps_the_error_when_only_the_interval_fails():
    # uls fits, but its interval variance overflows at delta = 1e160
    cfg = small_config(n_r=200, n_f=20, p=3, subsample_ratio=0.2, delta=1e160, seed=0)
    pb, st_r, theta_r, interval = _first_rep(cfg)
    record = run_method("uls", pb, st_r, None, None, {},
                        lambda theta: safe_norm(theta - theta_r), interval)
    assert 1e157 < record.error < 1e160
    assert record.covered is record.sd_hat is None
    assert record.failure[0] == "SingularGram"


def test_run_method_names_the_same_failure_under_an_mpe_score():
    cfg = small_config(n_r=200, n_f=20, p=8, subsample_ratio=0.02)
    pb, st_r, theta_r, _ = _first_rep(cfg)
    rng = RngStream(4, 0)
    x = rng.standard_normal((30, cfg.p))
    test = Dataset(x, x @ theta_r + rng.standard_normal(30), "test")
    record = run_method("uls", pb, st_r, None, None, {}, partial(mpe, test=test))
    assert record.error is record.covered is record.sd_hat is None
    assert record.failure[0] == "SingularGram"
    retrain = run_method("retrain", pb, st_r, None, None, {}, partial(mpe, test=test))
    assert retrain.error == mpe(ols_theta(st_r), test) and retrain.failure is None


@pytest.mark.parametrize(
    "n_f, p",
    [(6, 3), (2, 4)],  # n_f >= p by Bartlett; n_f < p drawn as rows
)
def test_forget_stats_moments(n_f, p):
    # n_f sigma_f = X_f'X_f and n_f (m_f - sigma_f theta_f) = X_f'eps of n_f
    # iid N(0, S) rows, S = AR(rho), with unit noise: E X'X = n_f S,
    # Var (X'X)_ii = 2 n_f S_ii^2, Cov X'eps = n_f S. The tolerances are 5
    # Monte Carlo standard errors, from Var (X'X)_ij <= 2 n_f, Var of the
    # sample variance of (X'X)_ii (a chi2 draw) = (8 n_f^2 + 48 n_f) / draws,
    # and Var (X'eps)_i (X'eps)_j <= 2 n_f^2 + 6 n_f, as S_ii = 1.
    cfg = small_config(n_r=40, n_f=n_f, p=p, rho_f=0.6)
    theta_r, theta_f = draw_truth(cfg, RngStream(9, 0))
    cov = ar1_covariance(p, cfg.rho_f)
    draws = 4000
    gram = np.empty((draws, p, p))
    cross = np.empty((draws, p))
    for k in range(draws):
        _, _, st_f, _ = draw_rep_stats(cfg, theta_r, theta_f, RngStream(9, 1 + k))
        assert st_f.n == n_f
        gram[k] = n_f * st_f.sigma
        cross[k] = n_f * (st_f.m - st_f.sigma @ theta_f)
    var = np.array([2 * n_f, 8 * n_f**2 + 48 * n_f, 2 * n_f**2 + 6 * n_f])
    se = np.sqrt(var / draws)
    assert_allclose(gram.mean(axis=0), n_f * cov, rtol=0, atol=5 * se[0])
    assert_allclose(np.diag(gram.var(axis=0)), 2 * n_f, rtol=0, atol=5 * se[1])
    assert_allclose(cross.T @ cross / draws, n_f * cov, rtol=0, atol=5 * se[2])
    assert np.linalg.matrix_rank(gram[0]) == min(n_f, p)


def test_empty_forget_set_has_zero_stats():
    cfg = small_config(n_f=0)
    theta_r, theta_f = draw_truth(cfg, RngStream(3, 0))
    _, _, st_f, _ = draw_rep_stats(cfg, theta_r, theta_f, RngStream(3, 1))
    assert st_f.n == 0
    assert not st_f.sigma.any() and not st_f.m.any()
    assert (st_f.sigma.shape, st_f.m.shape) == ((cfg.p, cfg.p), (cfg.p,))
