import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ulskit import Dataset, RngStream, load_model, ols_fit, save_csv
from ulskit.cli import main

Z_975 = 1.9599639845400545


def _write_csv(path, x, y):
    save_csv(Dataset(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                     "forget" if len(y) == 0 else "remaining"), path)


@pytest.fixture
def worked_example(tmp_path):
    """The scalar example: remaining (1,1)->(1,3), forget (1)->(10)."""
    full = tmp_path / "full.csv"
    forget = tmp_path / "forget.csv"
    sub = tmp_path / "sub.csv"
    _write_csv(full, [[1.0], [1.0], [1.0]], [1.0, 3.0, 10.0])
    _write_csv(forget, [[1.0]], [10.0])
    _write_csv(sub, [[1.0], [1.0]], [1.0, 3.0])
    model = tmp_path / "model.json"
    assert main(["pretrain", str(full), "--n-forget", "1", "--out", str(model)]) == 0
    return model, forget, sub, tmp_path


def test_pretrain_writes_model(tmp_path):
    rng = RngStream(0, 0)
    x = rng.standard_normal((100, 3))
    y = x @ np.array([1.0, -1.0, 0.5]) + rng.standard_normal(100)
    csv_path = tmp_path / "full.csv"
    _write_csv(csv_path, x, y)
    out = tmp_path / "model.json"
    assert main(["pretrain", str(csv_path), "--out", str(out)]) == 0
    model = load_model(out)
    assert model.p == 3
    assert_allclose(model.theta_p, ols_fit(Dataset(x, y)).theta, rtol=1e-12)


def test_pretrain_underdetermined_exit_code(tmp_path, capsys):
    rng = RngStream(1, 0)
    csv_path = tmp_path / "wide.csv"
    _write_csv(csv_path, rng.standard_normal((3, 6)), rng.standard_normal(3))
    out = tmp_path / "model.json"
    assert main(["pretrain", str(csv_path), "--out", str(out)]) == 3
    assert "SingularGram" in capsys.readouterr().err


def test_pretrain_missing_file_exit_code(tmp_path, capsys):
    assert main(["pretrain", str(tmp_path / "nope.csv"), "--out", "m.json"]) == 2


def test_unlearn_worked_example(worked_example):
    model, forget, sub, tmp = worked_example
    out = tmp / "result.json"
    code = main([
        "unlearn", "--model", str(model), "--forget", str(forget),
        "--sub", str(sub), "--method", "uls", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "uls"
    assert payload["theta"][0] == pytest.approx(2.0, rel=1e-12)


def test_unlearn_empty_forget_returns_pretrained(worked_example, tmp_path):
    model, _, sub, tmp = worked_example
    empty = tmp_path / "empty_forget.csv"
    empty.write_text("y,x1\n")
    out = tmp / "noop.json"
    code = main([
        "unlearn", "--model", str(model), "--forget", str(empty),
        "--sub", str(sub), "--method", "uls", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    model_payload = json.loads(model.read_text())
    assert payload["theta"] == model_payload["theta"]


def test_unlearn_indefinite_graddiff(tmp_path, capsys):
    rng = RngStream(2, 0)
    x = rng.standard_normal((80, 3))
    y = x @ np.ones(3) + rng.standard_normal(80)
    xf = rng.standard_normal((20, 3))
    yf = xf @ np.ones(3) + rng.standard_normal(20)
    full_csv, forget_csv, sub_csv = (
        tmp_path / "f.csv", tmp_path / "fg.csv", tmp_path / "s.csv",
    )
    _write_csv(full_csv, np.vstack([x, xf]), np.concatenate([y, yf]))
    _write_csv(forget_csv, xf, yf)
    _write_csv(sub_csv, x[:40], y[:40])
    model = tmp_path / "m.json"
    main(["pretrain", str(full_csv), "--n-forget", "20", "--out", str(model)])
    code = main([
        "unlearn", "--model", str(model), "--forget", str(forget_csv),
        "--sub", str(sub_csv), "--method", "graddiff", "--lam", "1e-6",
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 3
    assert "IndefiniteObjective" in capsys.readouterr().err


def test_unlearn_plugin_lambda_rule(tmp_path):
    from ulskit import concat_datasets, load_csv, plugin_lambda, pretrain

    rng = RngStream(5, 0)
    x = rng.standard_normal((200, 3))
    y = x @ np.ones(3) + rng.standard_normal(200)
    xf = rng.standard_normal((40, 3))
    yf = xf @ (np.ones(3) + 1.5) + rng.standard_normal(40)
    full_csv = tmp_path / "full.csv"
    forget_csv = tmp_path / "forget.csv"
    sub_csv = tmp_path / "sub.csv"
    _write_csv(full_csv, np.vstack([x, xf]), np.concatenate([y, yf]))
    _write_csv(forget_csv, xf, yf)
    _write_csv(sub_csv, x[:80], y[:80])
    model_path = tmp_path / "m.json"
    main(["pretrain", str(full_csv), "--n-forget", "40", "--out", str(model_path)])
    out = tmp_path / "r.json"
    code = main([
        "unlearn", "--model", str(model_path), "--forget", str(forget_csv),
        "--sub", str(sub_csv), "--method", "uls+", "--lam-rule", "plugin",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    model = load_model(model_path)
    forget = load_csv(forget_csv, role="forget")
    sub = load_csv(sub_csv, role="subsample")
    assert payload["lambda_used"] == pytest.approx(
        plugin_lambda(model, forget, sub), rel=1e-12
    )
    # plugin rule with a method that has no such rule is a usage error
    assert main([
        "unlearn", "--model", str(model_path), "--forget", str(forget_csv),
        "--sub", str(sub_csv), "--method", "tl", "--lam-rule", "plugin",
        "--out", str(out),
    ]) == 2


def test_infer_quantile_and_ordering(worked_example):
    model, forget, sub, tmp = worked_example
    out = tmp / "report.json"
    code = main([
        "infer", "--model", str(model), "--forget", str(forget),
        "--sub", str(sub), "--coord", "1", "--alpha", "0.05",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    lo, hi = payload["ci"]
    assert lo <= payload["point"] <= hi
    half = 0.5 * (hi - lo)
    assert half == pytest.approx(Z_975 * np.sqrt(payload["variance"]), rel=1e-9)


def test_infer_zero_direction(worked_example, tmp_path, capsys):
    model, forget, sub, tmp = worked_example
    vfile = tmp_path / "v.txt"
    vfile.write_text("0.0\n")
    code = main([
        "infer", "--model", str(model), "--forget", str(forget),
        "--sub", str(sub), "--v-file", str(vfile), "--out", str(tmp / "r.json"),
    ])
    assert code == 3
    assert "DegenerateDirection" in capsys.readouterr().err


def test_infer_ols_only_needs_subsample(tmp_path):
    rng = RngStream(3, 0)
    x = rng.standard_normal((60, 2))
    y = x @ np.array([2.0, -1.0]) + rng.standard_normal(60)
    sub_csv = tmp_path / "s.csv"
    _write_csv(sub_csv, x, y)
    out = tmp_path / "r.json"
    code = main([
        "infer", "--sub", str(sub_csv), "--method", "ols", "--coord", "2",
        "--out", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["method"] == "ols"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_infer_overflowing_variance_exit_code(tmp_path, capsys):
    # responses near the top of the double range make the residual sum of
    # squares overflow; the interval must fail as numerics, not print inf
    rng = RngStream(3, 0)
    sub_csv = tmp_path / "s.csv"
    _write_csv(sub_csv, rng.standard_normal((30, 2)), 1e200 * rng.standard_normal(30))
    out = tmp_path / "r.json"
    code = main([
        "infer", "--sub", str(sub_csv), "--method", "ols", "--coord", "1",
        "--out", str(out),
    ])
    assert code == 3
    assert "SingularGram" in capsys.readouterr().err
    assert not out.exists()


def _simulate(tmp_path, tag, extra):
    records = tmp_path / f"records_{tag}.csv"
    summary = tmp_path / f"summary_{tag}.json"
    args = [
        "simulate", "--nr", "300", "--nf", "30", "--p", "4",
        "--ratio", "0.3", "--delta", "2.0", "--reps", "3", "--seed", "7",
        "--methods", "retrain,pretrain,uls,ols",
        "--records", str(records), "--summary", str(summary),
    ] + extra
    assert main(args) == 0
    return records.read_bytes(), summary.read_bytes()


def test_simulate_repeat_is_byte_identical(tmp_path):
    first = _simulate(tmp_path, "a", ["--threads", "1"])
    second = _simulate(tmp_path, "b", ["--threads", "1"])
    assert first == second


def test_simulate_thread_count_invariance(tmp_path):
    serial = _simulate(tmp_path, "s", ["--threads", "1"])
    pooled = _simulate(tmp_path, "p", ["--threads", "8"])
    assert serial == pooled


def test_simulate_env_var_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("ULS_THREADS", "2")
    env = _simulate(tmp_path, "env", [])
    monkeypatch.delenv("ULS_THREADS")
    serial = _simulate(tmp_path, "ser", ["--threads", "1"])
    assert env == serial


def test_simulate_no_forget_makes_uls_equal_pretrain(tmp_path):
    records = tmp_path / "records.csv"
    summary = tmp_path / "summary.json"
    code = main([
        "simulate", "--nr", "300", "--nf", "0", "--p", "4", "--ratio", "0.3",
        "--reps", "3", "--seed", "11", "--methods", "pretrain,uls",
        "--records", str(records), "--summary", str(summary),
    ])
    assert code == 0
    rows = [line.split(",") for line in records.read_text().splitlines()[1:]]
    by_rep = {}
    for rep, method, error, *_ in rows:
        by_rep.setdefault(rep, {})[method] = error
    for errs in by_rep.values():
        assert errs["uls"] == errs["pretrain"]


def test_simulate_preset_flag(tmp_path):
    records = tmp_path / "records.csv"
    summary = tmp_path / "summary.json"
    code = main([
        "simulate", "--preset", "table1", "--reps", "1", "--seed", "1",
        "--records", str(records), "--summary", str(summary),
    ])
    assert code == 0
    config = json.loads(summary.read_text())["config"]
    assert config["n_r"] == 20000 and config["n_f"] == 1000
    assert config["p"] == 50 and config["subsample_ratio"] == 0.2
    assert config["delta"] == 2.0 and config["reps"] == 1


@pytest.fixture
def bench_files(tmp_path):
    rng = RngStream(4, 0)
    p = 4
    theta_r = rng.standard_normal(p)
    theta_f = theta_r + 3.0 / np.sqrt(p)
    xr = rng.standard_normal((400, p))
    yr = xr @ theta_r + rng.standard_normal(400)
    xf = rng.standard_normal((80, p))
    yf = xf @ theta_f + rng.standard_normal(80)
    xt = rng.standard_normal((200, p))
    yt = xt @ theta_r + rng.standard_normal(200)
    paths = {}
    for name, (x, y) in {
        "remaining": (xr, yr), "forget": (xf, yf), "test": (xt, yt),
    }.items():
        paths[name] = tmp_path / f"{name}.csv"
        _write_csv(paths[name], x, y)
    return paths, tmp_path


def test_bench_orders_retrain_before_pretrain(bench_files):
    paths, tmp = bench_files
    out = tmp / "mpe.csv"
    code = main([
        "bench", "--remaining", str(paths["remaining"]),
        "--forget", str(paths["forget"]), "--test", str(paths["test"]),
        "--ratio", "0.3", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    rows = dict(
        line.split(",")[:2] for line in out.read_text().splitlines()[1:]
    )
    assert float(rows["retrain"]) <= float(rows["pretrain"])
    assert set(rows) == {"retrain", "pretrain", "ols", "uls"}


def test_bench_single_method_single_row(bench_files):
    paths, tmp = bench_files
    out = tmp / "one.csv"
    code = main([
        "bench", "--remaining", str(paths["remaining"]),
        "--forget", str(paths["forget"]), "--test", str(paths["test"]),
        "--ratio", "0.3", "--seed", "2", "--methods", "uls", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("uls,")


def test_bench_mpe_matches_library(bench_files):
    from ulskit import (
        SQUARED, concat_datasets, load_csv, pretrain, subsample, uls,
    )
    from ulskit.simulation import mpe

    paths, tmp = bench_files
    out = tmp / "mpe.csv"
    main([
        "bench", "--remaining", str(paths["remaining"]),
        "--forget", str(paths["forget"]), "--test", str(paths["test"]),
        "--ratio", "0.3", "--seed", "2", "--methods", "uls", "--out", str(out),
    ])
    remaining = load_csv(paths["remaining"])
    forget = load_csv(paths["forget"], role="forget")
    test = load_csv(paths["test"], role="test")
    model = pretrain(SQUARED, concat_datasets([remaining, forget], "remaining"),
                     n_forget=forget.n)
    sub = subsample(remaining, round(0.3 * remaining.n), RngStream(2, 1))
    expected = mpe(uls(model, forget, sub).theta, test)
    got = float(out.read_text().splitlines()[1].split(",")[1])
    assert got == pytest.approx(expected, rel=1e-12)


def test_bench_repeat_byte_identical(bench_files):
    paths, tmp = bench_files
    outs = []
    for tag in ("x", "y"):
        out = tmp / f"mpe_{tag}.csv"
        main([
            "bench", "--remaining", str(paths["remaining"]),
            "--forget", str(paths["forget"]), "--test", str(paths["test"]),
            "--ratio", "0.3", "--seed", "5", "--out", str(out),
        ])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
