"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to watch them).

The heavy criteria (1-3) run the Monte Carlo harness at full scale
(n_remaining = 20000, up to 1000 replications), so this module takes a few
minutes.
"""

import json
import time

import numpy as np

from helpers import linear_instance, logistic_instance
from ulskit import (
    Dataset,
    GdConfig,
    LOGISTIC,
    RngStream,
    SQUARED,
    ci_uls,
    concat_datasets,
    gd_unlearn,
    graddiff,
    loss_grad,
    ols_fit,
    pretrain,
    save_csv,
    transfer_ridge,
    uls,
    uls_plus,
)
from ulskit.cli import main
from ulskit.simulation import SimConfig, draw_truth, generate_rep, run_experiment


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_table1_reproduction(tmp_path):
    records = tmp_path / "records.csv"
    summary_path = tmp_path / "summary.json"
    started = time.perf_counter()
    code = main([
        "simulate", "--preset", "table1", "--reps", "1000", "--seed", "0",
        "--records", str(records), "--summary", str(summary_path),
    ])
    elapsed = time.perf_counter() - started
    assert code == 0
    agg = json.loads(summary_path.read_text())["methods"]
    uls_cov, ols_cov = agg["uls"]["coverage"], agg["ols"]["coverage"]
    uls_sd, ols_sd = agg["uls"]["mean_sd"], agg["ols"]["mean_sd"]
    ok = (
        elapsed <= 900.0
        and abs(uls_cov - 0.957) <= 0.02
        and abs(ols_cov - 0.952) <= 0.02
        and abs(uls_sd - 0.0075) <= 0.1 * 0.0075
        and abs(ols_sd - 0.0159) <= 0.1 * 0.0159
    )
    _report(
        1,
        ok,
        f"{elapsed:.0f}s, coverage uls={uls_cov:.3f} ols={ols_cov:.3f},"
        f" mean sd uls={uls_sd:.5f} ols={ols_sd:.5f}",
    )


def test_criterion_2_error_ordering():
    cfg = SimConfig(
        reps=200,
        seed=1,
        methods=("retrain", "pretrain", "ols", "uls", "graddiff"),
    )
    _, summary = run_experiment(cfg)
    mean = {m: summary.methods[m]["mean_error"] for m in cfg.methods}
    ok = (
        mean["retrain"] <= mean["uls"] <= 1.1 * mean["retrain"]
        and mean["uls"] < mean["ols"]
        and mean["uls"] < mean["pretrain"]
        and abs(mean["graddiff"] - mean["ols"]) <= 0.1 * mean["ols"]
    )
    detail = ", ".join(f"{m}={v:.4f}" for m, v in mean.items())
    _report(2, ok, detail)


def test_criterion_3_delta_sensitivity():
    means = {}
    for delta in (1.0, 2.0, 3.0):
        cfg = SimConfig(delta=delta, reps=200, seed=2, methods=("pretrain", "uls"))
        _, summary = run_experiment(cfg)
        means[delta] = {m: summary.methods[m]["mean_error"] for m in cfg.methods}
    pre_inc = means[3.0]["pretrain"] - means[1.0]["pretrain"]
    uls_inc = means[3.0]["uls"] - means[1.0]["uls"]
    ok = pre_inc >= 3.0 * uls_inc > 0.0
    _report(
        3,
        ok,
        f"pretrain error grew {pre_inc:.4f}, uls grew {uls_inc:.5f}"
        f" (factor {pre_inc / uls_inc:.1f})",
    )


def test_criterion_4_exact_unlearning_identity():
    worst = 0.0
    for seed in range(100):
        model, remaining, forget, sub = linear_instance(
            seed, n_r=150, n_f=25, p=4, sub_is_remaining=True
        )
        fit = uls(model, forget, sub)
        retrain = ols_fit(remaining).theta
        gap = np.linalg.norm(fit.theta - retrain) / (1.0 + np.linalg.norm(retrain))
        worst = max(worst, gap)
    model, _, _, sub = linear_instance(0, n_r=150, n_f=25, p=4)
    empty = Dataset(np.empty((0, model.p)), np.empty(0), "forget")
    noop_exact = np.array_equal(uls(model, empty, sub).theta, model.theta_p)
    ok = worst <= 1e-8 and noop_exact
    _report(4, ok, f"worst relative identity gap {worst:.2e}, empty-forget no-op exact")


def test_criterion_5_stationarity_certificates():
    worst = {"uls": 0.0, "uls+": 0.0, "graddiff": 0.0, "tl": 0.0}
    for seed in range(100):
        model, _, forget, sub = linear_instance(seed + 200, n_r=300, n_f=40, p=5)
        scale = 1.0 + np.linalg.norm(model.theta_p)
        fits = {
            "uls": uls(model, forget, sub),
            "uls+": uls_plus(model, forget, sub, 0.8),
            "graddiff": graddiff(model, forget, sub, 30.0),
            "tl": transfer_ridge(model, sub, 0.5),
        }
        for name, fit in fits.items():
            worst[name] = max(worst[name], fit.grad_residual / scale)
    ok = all(v < 1e-6 for v in worst.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _report(5, ok, f"max scaled objective-gradient norms: {detail}")


def test_criterion_6_gd_convergence():
    checked = 0
    worst_ratio = 0.0
    for seed in range(10):
        model, _, forget, sub = linear_instance(
            seed + 300, n_r=2000, n_f=150, p=8, n_sub=400
        )
        target = uls(model, forget, sub).theta
        errors = [np.linalg.norm(model.theta_p - target)]
        gd_unlearn(
            model, forget, sub, GdConfig(grad_tol=1e-12),
            callback=lambda t, theta: errors.append(np.linalg.norm(theta - target)),
        )
        errors = np.array(errors)
        below = np.nonzero(errors <= 1e-6)[0]
        assert below.size, "gradient descent never reached 1e-6"
        t_conv = int(below[0])
        ratios = errors[2 : t_conv + 1] / errors[1:t_conv]
        c = float(ratios.max())
        bound = 10.0 * np.log(sub.n) / (-np.log(c))
        assert c < 1.0 and np.all(ratios < 1.0)
        assert t_conv <= bound
        worst_ratio = max(worst_ratio, t_conv / bound)
        checked += 1
    _report(
        6,
        checked == 10,
        f"{checked} instances converged within the 10*ln(n)/(-ln c) budget"
        f" (worst usage {worst_ratio:.0%})",
    )


def test_criterion_7_generic_loss_fixed_point():
    worst = 0.0
    for seed in range(20):
        model, remaining, forget = logistic_instance(
            seed + 400, n_r=1800, n_f=200, p=6
        )
        fit = gd_unlearn(
            model, forget, Dataset(remaining.x, remaining.y, "subsample")
        )
        gnorm = np.linalg.norm(loss_grad(LOGISTIC, fit.theta, remaining))
        worst = max(worst, gnorm / remaining.n)
    ok = worst <= 1e-6
    _report(7, ok, f"max ||retain gradient||/n_r = {worst:.2e}")


def test_criterion_8_variance_consistency():
    cfg = SimConfig(
        n_r=5000, n_f=250, p=50, subsample_ratio=0.2, delta=2.0,
        reps=500, seed=42,
    )
    theta_r, theta_f = draw_truth(cfg, RngStream(cfg.seed, 0))
    v = np.zeros(cfg.p)
    v[0] = 1.0
    points, vhats = [], []
    for rep in range(cfg.reps):
        rng = RngStream(cfg.seed, 1 + 2 * rep)
        remaining, forget, sub = generate_rep(cfg, theta_r, theta_f, rng)
        model = pretrain(
            SQUARED,
            concat_datasets([remaining, forget], "remaining"),
            n_forget=cfg.n_f,
        )
        report = ci_uls(model, forget, sub, v)
        vhats.append(report.variance)
        points.append(report.point)
    ratio = float(np.mean(vhats) / np.var(points, ddof=1))
    ok = 0.8 <= ratio <= 1.25
    _report(8, ok, f"mean(Vhat)/MC-variance = {ratio:.3f} over {cfg.reps} reps")


def _run_simulate(tmp_path, tag, threads):
    records = tmp_path / f"rec_{tag}.csv"
    summary = tmp_path / f"sum_{tag}.json"
    code = main([
        "simulate", "--nr", "2000", "--nf", "100", "--p", "10",
        "--ratio", "0.2", "--reps", "20", "--seed", "9",
        "--methods", "retrain,pretrain,ols,uls,tl",
        "--threads", str(threads),
        "--records", str(records), "--summary", str(summary),
    ])
    assert code == 0
    return records.read_bytes() + summary.read_bytes()


def _run_bench(tmp_path, tag, threads):
    rng = RngStream(77, 0)
    p = 5
    theta = rng.standard_normal(p)
    files = {}
    for name, n in (("remaining", 500), ("forget", 60), ("test", 200)):
        x = rng.standard_normal((n, p))
        y = x @ theta + rng.standard_normal(n)
        path = tmp_path / f"{name}_{tag}.csv"
        save_csv(Dataset(x, y, "remaining"), path)
        files[name] = path
    out = tmp_path / f"mpe_{tag}.csv"
    code = main([
        "bench", "--remaining", str(files["remaining"]),
        "--forget", str(files["forget"]), "--test", str(files["test"]),
        "--ratio", "0.2", "--seed", "3", "--threads", str(threads),
        "--methods", "retrain,pretrain,ols,uls,uls+", "--out", str(out),
    ])
    assert code == 0
    return out.read_bytes()


def test_criterion_9_determinism_across_threads(tmp_path):
    sim_serial = _run_simulate(tmp_path, "s1", 1)
    sim_pool = _run_simulate(tmp_path, "s8", 8)
    bench_serial = _run_bench(tmp_path, "b1", 1)
    bench_pool = _run_bench(tmp_path, "b8", 8)
    ok = sim_serial == sim_pool and bench_serial == bench_pool
    _report(
        9,
        ok,
        "simulate and bench outputs byte-identical across 1 and 8 threads",
    )
