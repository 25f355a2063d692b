import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ulskit
from helpers import linear_instance, logistic_instance
from ulskit import Dataset, RngStream, load_model, ols_fit, save_csv, save_model
from ulskit.cli import main
from ulskit.simulation import SimConfig

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


@pytest.fixture
def gd_cap_example(tmp_path):
    """Column blocks scaled 1e3 / 1 / 1e-3: the spectral step leaves the small
    block's residual far above grad_tol after the default 10000 steps."""
    rng = RngStream(3, 0)
    scale = np.repeat([1e3, 1.0, 1e-3], 4)
    x = rng.standard_normal((3000, 12)) * scale
    y = x @ (rng.standard_normal(12) / scale) + rng.standard_normal(3000)
    paths = {name: tmp_path / f"{name}.csv" for name in ("full", "forget", "sub")}
    _write_csv(paths["full"], x, y)
    _write_csv(paths["forget"], x[-300:], y[-300:])
    _write_csv(paths["sub"], x[:600], y[:600])
    paths["remaining"] = tmp_path / "remaining.csv"
    _write_csv(paths["remaining"], x[:-300], y[:-300])
    return paths


def test_unlearn_gd_at_its_iteration_cap_exit_code(gd_cap_example, tmp_path, capsys):
    paths = gd_cap_example
    model = tmp_path / "model.json"
    assert main(["pretrain", str(paths["full"]), "--n-forget", "300",
                 "--out", str(model)]) == 0
    out = tmp_path / "r.json"
    code = main([
        "unlearn", "--model", str(model), "--forget", str(paths["forget"]),
        "--sub", str(paths["sub"]), "--method", "gd", "--out", str(out),
    ])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("NotConverged"), lines
    assert "after 10000 iterations" in lines[0]
    assert not out.exists()


def test_bench_keeps_the_rows_of_the_methods_that_did_not_fail(gd_cap_example, tmp_path,
                                                                capsys):
    # gd fails at its iteration cap; the uls row is still written
    paths = gd_cap_example
    out = tmp_path / "mpe.csv"
    code = main([
        "bench", "--remaining", str(paths["remaining"]), "--forget", str(paths["forget"]),
        "--test", str(paths["remaining"]), "--ratio", "0.2", "--methods", "uls,gd",
        "--out", str(out),
    ])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("NotConverged: gd: "), lines
    rows = dict(line.split(",")[:2] for line in out.read_text().splitlines()[1:])
    assert list(rows) == ["uls", "gd"]
    assert math.isfinite(float(rows["uls"])) and rows["gd"] == "nan"


def test_unlearn_plugin_lambda_rule(tmp_path):
    from ulskit import (
        concat_datasets, load_csv, plugin_lambda, prepare, pretrain,
    )

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
        plugin_lambda(prepare(model, forget, sub)), rel=1e-12
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


class _Configured(Exception):
    """Raised in place of running the experiment, carrying its config."""


def _simulate_config(monkeypatch, tmp_path, flags):
    def stop(cfg, *args):
        raise _Configured(cfg)

    monkeypatch.setattr("ulskit.cli.run_experiment", stop)
    with pytest.raises(_Configured) as caught:
        main(["simulate", *flags, "--records", str(tmp_path / "r.csv"),
              "--summary", str(tmp_path / "s.json")])
    return caught.value.args[0]


@pytest.mark.parametrize("flags, field, value", [
    (["--nr", "300"], "n_r", 300),
    (["--nf", "7"], "n_f", 7),
    (["--p", "3"], "p", 3),
    (["--ratio", "0.5"], "subsample_ratio", 0.5),
    (["--delta", "1.5"], "delta", 1.5),
    (["--rho", "0.4"], "rho_f", 0.4),
    (["--reps", "3"], "reps", 3),
    (["--seed", "9"], "seed", 9),
    (["--methods", "uls,tl"], "methods", ("uls", "tl")),
    (["--methods", ""], "methods", SimConfig().methods),  # "" means the default
    (["--v-coord", "2"], "v_direction", 2),
    (["--alpha", "0.1"], "alpha", 0.1),
    (["--oracle-lambda"], "oracle_lambda", True),
    (["--redraw-truth"], "redraw_truth", True),
    (["--folds", "3"], "cv_folds", 3),
    (["--grid-size", "7"], "cv_grid_size", 7),
    (["--grid-lo", "0.01"], "cv_grid_lo", 0.01),
    (["--grid-hi", "100"], "cv_grid_hi", 100.0),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_simulate_flag_sets_its_config_field(monkeypatch, tmp_path, flags, field, value):
    cfg = _simulate_config(monkeypatch, tmp_path, flags)
    assert cfg == replace(SimConfig(), **{field: value})
    assert type(getattr(cfg, field)) is type(value)  # the summary prints the type


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
    tmp = tmp_path / "bench"  # apart from p3_example's files
    tmp.mkdir()
    paths = {}
    for name, (x, y) in {
        "remaining": (xr, yr), "forget": (xf, yf), "test": (xt, yt),
    }.items():
        paths[name] = tmp / f"{name}.csv"
        _write_csv(paths[name], x, y)
    return paths, tmp


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


def test_bench_all_methods_thread_count_invariance(bench_files):
    paths, tmp = bench_files
    outs = []
    for threads in ("1", "2"):
        out = tmp / f"mpe_t{threads}.csv"
        code = main([
            "bench", "--remaining", str(paths["remaining"]),
            "--forget", str(paths["forget"]), "--test", str(paths["test"]),
            "--ratio", "0.3", "--seed", "5", "--threads", threads,
            "--methods", "retrain,pretrain,ols,uls,uls+,graddiff,tl,gd",
            "--out", str(out),
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].decode().splitlines()) == 9


def test_simulate_tuned_records_do_not_depend_on_the_other_methods(tmp_path):
    # every tuned method of a replication scores the same folds, so tl's
    # records are those of a run where it is the only tuned method
    def tl_records(methods):
        records, summary = tmp_path / f"{methods}.csv", tmp_path / f"{methods}.json"
        assert main(["simulate", "--nr", "2000", "--nf", "200", "--p", "20",
                     "--ratio", "0.5", "--reps", "6", "--seed", "7",
                     "--methods", methods, "--records", str(records),
                     "--summary", str(summary)]) == 0
        return [line for line in records.read_bytes().splitlines() if b",tl," in line]

    alone = tl_records("uls,tl")
    assert len(alone) == 6
    assert tl_records("uls,uls+,graddiff,tl") == alone


def test_bench_tuned_rows_do_not_depend_on_the_other_methods(bench_files):
    # one CV stream for the run: a method's folds, and so its row, do not
    # depend on which methods run before it
    paths, tmp = bench_files

    def rows(methods):
        out = tmp / f"{methods}.csv"
        assert main(["bench", "--remaining", str(paths["remaining"]),
                     "--forget", str(paths["forget"]), "--test", str(paths["test"]),
                     "--ratio", "0.3", "--seed", "5", "--methods", methods,
                     "--out", str(out)]) == 0
        return dict(line.split(",", 1) for line in out.read_text().splitlines()[1:])

    assert rows("uls+,graddiff,retrain,tl")["tl"] == rows("retrain,tl")["tl"]


@pytest.fixture
def p3_example(tmp_path):
    """A p = 3 squared-loss model with forget rows and a 60-row subsample."""
    rng = RngStream(12, 0)
    x = rng.standard_normal((120, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(120)
    xf = rng.standard_normal((15, 3))
    yf = xf @ np.array([2.0, -1.0, 1.5]) + rng.standard_normal(15)
    tmp = tmp_path / "p3"  # apart from bench_files' files
    tmp.mkdir()
    paths = {name: tmp / f"{name}.csv" for name in ("full", "forget", "sub")}
    _write_csv(paths["full"], np.vstack([x, xf]), np.concatenate([y, yf]))
    _write_csv(paths["forget"], xf, yf)
    _write_csv(paths["sub"], x[:60], y[:60])
    paths["model"] = tmp / "model.json"
    assert main(["pretrain", str(paths["full"]), "--n-forget", "15",
                 "--out", str(paths["model"])]) == 0
    return paths, tmp


def test_unlearn_empty_forget_uls_plus_cv_scores_the_output(p3_example):
    paths, tmp = p3_example
    empty = tmp / "empty.csv"
    empty.write_text("y,x1,x2,x3\n")
    out, table = tmp / "noop.json", tmp / "cv.csv"
    code = main([
        "unlearn", "--model", str(paths["model"]), "--forget", str(empty),
        "--sub", str(paths["sub"]), "--method", "uls+",
        "--cv-table", str(table), "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["theta"] == json.loads(paths["model"].read_text())["theta"]
    by_fold = {}
    for line in table.read_text().splitlines()[1:]:
        _, fold, mse = line.split(",")
        by_fold.setdefault(fold, set()).add(mse)
    assert len(by_fold) == 5
    assert all(len(scores) == 1 for scores in by_fold.values())
    # every lambda ties, and ties break toward the largest
    assert payload["lambda_used"] == 1e4


@pytest.mark.parametrize("method", ["ols", "uls", "uls+", "graddiff", "tl", "gd"])
def test_unlearn_cli_library_and_table_agree(p3_example, method):
    from ulskit import (
        gd_unlearn, graddiff, load_csv, transfer_ridge, uls, uls_plus,
    )
    from ulskit.estimators import SOLVERS, prepare

    paths, tmp = p3_example
    out = tmp / f"{method}.json"
    lam = 2.5
    code = main([
        "unlearn", "--model", str(paths["model"]), "--forget",
        str(paths["forget"]), "--sub", str(paths["sub"]), "--method", method,
        "--lam", str(lam), "--out", str(out),
    ])
    assert code == 0
    model = load_model(paths["model"])
    forget = load_csv(paths["forget"], role="forget")
    sub = load_csv(paths["sub"], role="subsample")
    library = {
        "ols": lambda: ols_fit(sub),
        "uls": lambda: uls(model, forget, sub),
        "uls+": lambda: uls_plus(model, forget, sub, lam),
        "graddiff": lambda: graddiff(model, forget, sub, lam),
        "tl": lambda: transfer_ridge(model, sub, lam),
        "gd": lambda: gd_unlearn(model, forget, sub),
    }[method]().theta
    table = SOLVERS[method].fit(prepare(model, forget, sub), lam).theta
    cli = json.loads(out.read_text())["theta"]
    assert cli == [float(v) for v in library]
    assert np.array_equal(library, table)


def test_unlearn_gd_on_a_logistic_model(tmp_path):
    # logistic gradient descent reads the rows, as the library does
    from ulskit import gd_unlearn, load_csv

    _, remaining, forget = logistic_instance(3, n_r=600, n_f=60, p=4)
    paths = {name: tmp_path / f"{name}.csv" for name in ("full", "forget", "sub")}
    _write_csv(paths["full"], np.vstack([remaining.x, forget.x]),
               np.concatenate([remaining.y, forget.y]))
    _write_csv(paths["forget"], forget.x, forget.y)
    _write_csv(paths["sub"], remaining.x[:200], remaining.y[:200])
    model, out = tmp_path / "model.json", tmp_path / "gd.json"
    assert main(["pretrain", str(paths["full"]), "--loss", "logistic",
                 "--n-forget", "60", "--out", str(model)]) == 0
    assert main(["unlearn", "--model", str(model), "--forget", str(paths["forget"]),
                 "--sub", str(paths["sub"]), "--method", "gd", "--out", str(out)]) == 0
    fit = gd_unlearn(load_model(model),
                     load_csv(paths["forget"], role="forget"),
                     load_csv(paths["sub"], role="subsample"))
    payload = json.loads(out.read_text())
    assert payload["theta"] == [float(v) for v in fit.theta]
    assert payload["iterations"] == fit.iterations > 0


def test_unlearn_plugin_rule_on_empty_forget_is_a_noop(p3_example):
    # lambda = omega_r * omega_f * delta_hat is 0 when there is nothing to forget
    paths, tmp = p3_example
    empty = tmp / "empty.csv"
    empty.write_text("y,x1,x2,x3\n")
    out = tmp / "noop.json"
    code = main([
        "unlearn", "--model", str(paths["model"]), "--forget", str(empty),
        "--sub", str(paths["sub"]), "--method", "uls+", "--lam-rule", "plugin",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["theta"] == json.loads(paths["model"].read_text())["theta"]
    assert payload["lambda_used"] == 0.0


def test_simulate_negative_threads_exit_code(tmp_path, capsys):
    code = main([
        "simulate", "--nr", "300", "--nf", "30", "--p", "4", "--reps", "2",
        "--threads", "-4", "--records", str(tmp_path / "r.csv"),
        "--summary", str(tmp_path / "s.json"),
    ])
    assert code == 2
    assert "--threads" in capsys.readouterr().err


def test_bench_negative_threads_exit_code(bench_files, capsys):
    paths, tmp = bench_files
    code = main([
        "bench", "--remaining", str(paths["remaining"]),
        "--forget", str(paths["forget"]), "--test", str(paths["test"]),
        "--threads", "-4", "--out", str(tmp / "mpe.csv"),
    ])
    assert code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    "5",
    "null",
    '{"theta": {"a": 1}, "n_total": 3, "n_remaining": 2, "n_forget": 1,'
    ' "loss": "squared"}',
    '{"theta": [2.0], "n_total": null, "n_remaining": 2, "n_forget": 1,'
    ' "loss": "squared"}',
    '{"theta": [2.0], "n_total": [50], "n_remaining": 2, "n_forget": 1,'
    ' "loss": "squared"}',
], ids=["number", "null", "theta-object", "n_total-null", "n_total-list"])
def test_malformed_model_json_exit_code(worked_example, payload, capsys):
    model, forget, sub, tmp = worked_example
    model.write_text(payload)
    code = main([
        "unlearn", "--model", str(model), "--forget", str(forget),
        "--sub", str(sub), "--out", str(tmp / "r.json"),
    ])
    assert code == 2
    assert "SchemaMismatch" in capsys.readouterr().err


def test_overlong_csv_cell_exit_code(worked_example, tmp_path, capsys):
    model, forget, _, tmp = worked_example
    sub = tmp_path / "long.csv"
    sub.write_text("y,x1\n1.0," + "2" * 200_000 + "\n")
    code = main([
        "unlearn", "--model", str(model), "--forget", str(forget),
        "--sub", str(sub), "--out", str(tmp / "r.json"),
    ])
    assert code == 2
    assert "ParseError" in capsys.readouterr().err


def test_infer_v_file_wrong_length_exit_code(p3_example, capsys):
    paths, tmp = p3_example
    vfile = tmp / "v.txt"
    vfile.write_text("1.0\n0.0\n")
    code = main([
        "infer", "--model", str(paths["model"]), "--forget", str(paths["forget"]),
        "--sub", str(paths["sub"]), "--v-file", str(vfile),
        "--out", str(tmp / "r.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "SchemaMismatch" in err and "v.txt" in err and "2 entries" in err


def test_infer_v_file_table_reports_its_shape(bench_files, capsys):
    # four entries for p = 4, but laid out as a 2 x 2 table
    paths, tmp = bench_files
    vfile = tmp / "v.txt"
    vfile.write_text("1 2\n3 4\n")
    code = main([
        "infer", "--sub", str(paths["remaining"]), "--method", "ols",
        "--v-file", str(vfile), "--out", str(tmp / "r.json"),
    ])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("SchemaMismatch"), lines
    assert "direction has shape (2, 2), expected 4 entries" in lines[0]


@pytest.mark.parametrize("command", [
    ["infer", "--method", "uls", "--coord", "1"],
    ["unlearn", "--method", "uls"],
])
def test_subsample_of_another_p_exit_code(p3_example, command, capsys):
    # a p = 4 subsample against a p = 3 model is an input error for both commands
    paths, tmp = p3_example
    sub4 = tmp / "sub4.csv"
    _write_csv(sub4, RngStream(3, 0).standard_normal((20, 4)), np.ones(20))
    code = main([
        *command, "--model", str(paths["model"]), "--forget", str(paths["forget"]),
        "--sub", str(sub4), "--out", str(tmp / "r.json"),
    ])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("SchemaMismatch"), lines
    assert "expected p=3, file has p=4" in lines[0]


@pytest.mark.parametrize("ratio", ["1.5", "0", "-0.2"])
def test_bench_ratio_out_of_range_exit_code(bench_files, ratio, capsys):
    paths, tmp = bench_files
    out = tmp / "mpe.csv"
    code = main([
        "bench", "--remaining", str(paths["remaining"]),
        "--forget", str(paths["forget"]), "--test", str(paths["test"]),
        "--ratio", ratio, "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "ValueError" in err and "--ratio" in err
    assert not out.exists()


@pytest.mark.parametrize("methods, code", [("ols", 0), ("ols,uls+", 2)])
def test_bench_checks_the_grid_only_for_tuned_methods(bench_files, methods, code, capsys):
    paths, tmp = bench_files
    out = tmp / "mpe.csv"
    assert main([
        "bench", "--remaining", str(paths["remaining"]),
        "--forget", str(paths["forget"]), "--test", str(paths["test"]),
        "--methods", methods, "--grid-lo", "5", "--grid-hi", "1", "--out", str(out),
    ]) == code
    err = capsys.readouterr().err
    assert out.exists() == (code == 0)
    assert ("ValueError" in err) == (code == 2)


@pytest.mark.parametrize("flags, code", [
    (["--methods", "uls,ols", "--grid-lo", "5", "--grid-hi", "1"], 0),
    (["--methods", "uls+", "--oracle-lambda", "--folds", "1"], 0),
    (["--methods", "uls+", "--folds", "1"], 2),
])
def test_simulate_checks_the_search_only_where_it_runs(tmp_path, flags, code, capsys):
    # as in bench: the CV flags matter only to a tuned method without oracle lambdas
    records, summary = tmp_path / "records.csv", tmp_path / "summary.json"
    assert main([
        "simulate", "--nr", "200", "--nf", "20", "--p", "3", "--reps", "2", *flags,
        "--records", str(records), "--summary", str(summary),
    ]) == code
    assert records.exists() == (code == 0)
    assert ("ValueError" in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize("flags", [
    ["--method", "uls"],
    ["--method", "uls+", "--lam", "1.0"],
    ["--method", "uls+", "--lam-rule", "plugin"],
])
def test_unlearn_cv_table_without_a_search_exit_code(tmp_path, flags, capsys):
    # rejected before any file is read: none of the inputs exists
    table = tmp_path / "cv.csv"
    code = main([
        "unlearn", "--model", str(tmp_path / "model.json"),
        "--forget", str(tmp_path / "forget.csv"), "--sub", str(tmp_path / "sub.csv"),
        *flags, "--cv-table", str(table), "--out", str(tmp_path / "out.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ValueError: ") and "--cv-table" in err
    assert not table.exists()


@pytest.mark.parametrize("argv, message", [
    (["unlearn", "--method", "uls", "--lam-rule", "plugin"],
     "--lam-rule plugin is only defined for --method uls+"),
    (["unlearn", "--method", "uls+", "--grid-lo", "5", "--grid-hi", "1"],
     "need 0 < lo < hi, got lo=5.0, hi=1.0"),
    (["unlearn", "--method", "gd", "--t-max", "0"], "t_max must be >= 1"),
    (["bench", "--methods", "uls+", "--grid-size", "1"],
     "need at least two grid points, got 1"),
    (["infer", "--method", "ols", "--coord", "1", "--alpha", "1.5"],
     "alpha must lie in (0, 1), got 1.5"),
    (["bench", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
    (["unlearn", "--method", "uls+", "--cv-seed", "-1"],
     "seed must be a non-negative integer, got -1"),
])
def test_flag_is_checked_before_any_file_is_read(tmp_path, argv, message, capsys):
    # none of the inputs exists: the flag's own error comes first
    inputs = {"unlearn": ("--model", "--forget", "--sub"),
              "bench": ("--remaining", "--forget", "--test"),
              "infer": ("--sub",)}[argv[0]]
    missing = [arg for flag in inputs for arg in (flag, str(tmp_path / flag[2:]))]
    out = tmp_path / "out"
    assert main([*argv, *missing, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"ValueError: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flags, prefix", [
    ("unlearn", ["--method", "gd", "--alpha", "0"], "alpha must be positive"),
    ("unlearn", ["--method", "gd", "--t-max", "0"], "t_max must be >= 1"),
    ("unlearn", ["--method", "gd", "--grad-tol", "0"], "grad_tol must be positive"),
    ("unlearn", ["--method", "uls+", "--grid-size", "1"], "need at least two grid points"),
    ("unlearn", ["--method", "uls+", "--lam", "-1"], "lam must be >= 0"),
    ("unlearn", ["--method", "tl", "--lam", "0"], "lam must be > 0"),
    ("simulate", ["--ratio", "0"], "subsample_ratio must lie in (0, 1]"),
    ("simulate", ["--reps", "0"], "reps must be >= 1"),
    ("simulate", ["--nr", "0"], "invalid sample sizes"),
    ("simulate", ["--delta", "-1"], "delta must be >= 0"),
    ("simulate", ["--v-coord", "0"], "v_direction must index a coordinate"),
    ("simulate", ["--rho", "1"], "rho must lie in (-1, 1)"),
    ("simulate", ["--methods", "uls+", "--alpha", "1.5"], "alpha must lie in (0, 1)"),
    ("simulate", ["--seed", "-1"], "seed must be a non-negative integer"),
])
def test_bad_flag_value_exit_code(p3_example, command, flags, prefix, capsys):
    paths, tmp = p3_example
    out, summary = tmp / "out", tmp / "summary.json"
    if command == "unlearn":
        io = ["--model", str(paths["model"]), "--forget", str(paths["forget"]),
              "--sub", str(paths["sub"]), "--out", str(out)]
    else:  # the flags come last, so they override these sizes
        io = ["--nr", "200", "--nf", "20", "--p", "3", "--reps", "2",
              "--records", str(out), "--summary", str(summary)]
    assert main([command, *io, *flags]) == 2
    assert capsys.readouterr().err.startswith(f"ValueError: {prefix}")
    assert not out.exists() and not summary.exists()


@pytest.mark.parametrize("flag", [["--t-max", "0"], ["--alpha", "0"], ["--grad-tol", "0"]],
                         ids=["t-max", "alpha", "grad-tol"])
@pytest.mark.parametrize("method", [["uls"], ["uls+", "--lam", "2"], ["tl", "--lam", "2"]],
                         ids=["uls", "uls+", "tl"])
def test_unlearn_ignores_the_gd_controls_of_another_method(p3_example, method, flag):
    paths, tmp = p3_example
    io = ["--model", str(paths["model"]), "--forget", str(paths["forget"]),
          "--sub", str(paths["sub"]), "--method", *method]
    plain, given = tmp / "plain.json", tmp / "given.json"
    assert main(["unlearn", *io, "--out", str(plain)]) == 0
    assert main(["unlearn", *io, *flag, "--out", str(given)]) == 0
    assert given.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("method", [["uls"], ["uls+", "--lam", "2"],
                                    ["uls+", "--lam-rule", "plugin"]],
                         ids=["uls", "uls+ lam", "uls+ plugin"])
def test_unlearn_ignores_the_cv_seed_without_a_search(p3_example, method):
    paths, tmp = p3_example
    io = ["--model", str(paths["model"]), "--forget", str(paths["forget"]),
          "--sub", str(paths["sub"]), "--method", *method]
    plain, given = tmp / "plain.json", tmp / "given.json"
    assert main(["unlearn", *io, "--out", str(plain)]) == 0
    assert main(["unlearn", *io, "--cv-seed", "-1", "--out", str(given)]) == 0
    assert given.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("method, coord", [("uls", 1), ("ols", 2)])
def test_infer_cli_and_library_agree(p3_example, method, coord):
    from ulskit import ci_ols, ci_uls, load_csv, save_json

    paths, tmp = p3_example
    cli, library = tmp / "cli.json", tmp / "library.json"
    assert main(["infer", "--model", str(paths["model"]), "--forget", str(paths["forget"]),
                 "--sub", str(paths["sub"]), "--method", method, "--coord", str(coord),
                 "--out", str(cli)]) == 0
    model = load_model(paths["model"])
    forget = load_csv(paths["forget"], role="forget")
    sub = load_csv(paths["sub"], role="subsample")
    v = np.eye(3)[coord - 1]
    report = ci_uls(model, forget, sub, v) if method == "uls" else ci_ols(sub, v)
    save_json(report.to_json_dict(), library)
    assert cli.read_bytes() == library.read_bytes()


@pytest.mark.parametrize("flags, message", [
    (["--method", "uls"], "--model and --forget are required for --method uls"),
    (["--method", "ols", "--coord", "0"], "--coord must lie in [1, 3]"),
    (["--method", "ols", "--coord", "4"], "--coord must lie in [1, 3]"),
])
def test_infer_flag_errors_exit_code(p3_example, flags, message, capsys):
    paths, tmp = p3_example
    out = tmp / "ci.json"
    coord = [] if "--coord" in flags else ["--coord", "1"]
    assert main(["infer", "--sub", str(paths["sub"]), *flags, *coord,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"ValueError: {message}\n"
    assert not out.exists()


def test_cli_start_up_leaves_out_scipy_stats():
    # scipy.stats alone roughly doubles the start-up time of every command
    src = str(Path(ulskit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, ulskit.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cli_start_up_loads_no_scipy():
    # the runtime needs numpy alone; scipy is a test-only reference
    src = str(Path(ulskit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, ulskit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_a_stream_imports_numpy_random_only_at_its_first_draw():
    # bench and unlearn build their streams before reading any file; the
    # import must wait, or its memory would add to the read's peak
    src = str(Path(ulskit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, ulskit.cli; rng = ulskit.RngStream(0, 1); "
            "print('numpy.random' in sys.modules); rng.uniform(1); "
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "True"]


def test_header_only_pretrain_exit_code(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("y,x1\n")
    out = tmp_path / "model.json"
    assert main(["pretrain", str(empty), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "SchemaMismatch" in err and str(empty) in err and "'remaining'" in err
    assert not out.exists()


def test_header_only_bench_test_exit_code(bench_files, capsys):
    paths, tmp = bench_files
    empty = tmp / "empty.csv"
    empty.write_text("y,x1,x2,x3,x4\n")
    out = tmp / "mpe.csv"
    code = main([
        "bench", "--remaining", str(paths["remaining"]),
        "--forget", str(paths["forget"]), "--test", str(empty), "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "SchemaMismatch" in err and str(empty) in err and "'test'" in err
    assert not out.exists()


@pytest.fixture
def overflow_example(tmp_path):
    """A finite model, and forget/subsample responses of +1e308 / -1e308."""
    rng = RngStream(9, 0)
    x = np.column_stack([np.ones(40), rng.standard_normal(40)])
    full = tmp_path / "full.csv"
    _write_csv(full, x, x @ np.array([1.0, 2.0]) + rng.standard_normal(40))
    paths = {"forget": tmp_path / "forget.csv", "sub": tmp_path / "sub.csv",
             "model": tmp_path / "model.json"}
    _write_csv(paths["forget"], x[:10], np.full(10, 1e308))
    _write_csv(paths["sub"], x[10:], np.full(30, -1e308))
    assert main(["pretrain", str(full), "--n-forget", "10",
                 "--out", str(paths["model"])]) == 0
    return paths, tmp_path


@pytest.mark.parametrize("command", [
    ["unlearn", "--method", "uls"],
    ["unlearn", "--method", "uls+"],
    ["unlearn", "--method", "graddiff"],
    ["unlearn", "--method", "tl"],
    ["unlearn", "--method", "gd"],
    ["unlearn", "--method", "ols"],
    ["infer", "--method", "uls", "--coord", "1"],
    ["infer", "--method", "ols", "--coord", "1"],
], ids=lambda c: "-".join(c[:3]))
def test_overflowing_moments_exit_code(overflow_example, command, capsys):
    # X'y/n overflows; no method may write NaN coefficients and exit 0
    paths, tmp = overflow_example
    out = tmp / "r.json"
    code = main([
        *command, "--model", str(paths["model"]), "--forget", str(paths["forget"]),
        "--sub", str(paths["sub"]), "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ValueError: the data's moments overflow")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_solve_exit_code(p3_example, capsys):
    # a huge lambda makes uls+'s right-hand side overflow, not its moments
    paths, tmp = p3_example
    out = tmp / "r.json"
    code = main([
        "unlearn", "--model", str(paths["model"]), "--forget", str(paths["forget"]),
        "--sub", str(paths["sub"]), "--method", "uls+", "--lam", "1e308",
        "--out", str(out),
    ])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_solve_prints_only_the_named_error(p3_example):
    # a separate process, so that stderr holds whatever numpy would print
    paths, tmp = p3_example
    src = str(Path(ulskit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp / "r.json"
    proc = subprocess.run([
        sys.executable, "-m", "ulskit.cli", "unlearn", "--model", str(paths["model"]),
        "--forget", str(paths["forget"]), "--sub", str(paths["sub"]),
        "--method", "uls+", "--lam", "1e308", "--out", str(out),
    ], env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("ValueError: linear solve gave non-finite entries")
    assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("method", ["uls+", "tl", "graddiff"])
def test_huge_lambda_certificate_is_strict_json(tmp_path, method):
    # 2 * lam overflows at lam = 1e308 where lam * (2 r) does not, and the
    # squares of a ~1e300 gradient overflow where its rescaled norm does not
    model, _, forget, sub = linear_instance(3, p=6, n_sub=150)
    save_model(model, tmp_path / "model.json")
    save_csv(forget, tmp_path / "forget.csv")
    save_csv(sub, tmp_path / "sub.csv")
    src = str(Path(ulskit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "r.json"
    for lam in ("1e308", "1e300"):
        proc = subprocess.run([
            sys.executable, "-m", "ulskit.cli", "unlearn",
            "--model", str(tmp_path / "model.json"),
            "--forget", str(tmp_path / "forget.csv"), "--sub", str(tmp_path / "sub.csv"),
            "--method", method, "--lam", lam, "--out", str(out),
        ], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        result = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert result["lambda_used"] == float(lam)
        assert 0.0 <= result["grad_residual"] < float("inf")


_COUNTS_MODEL = ('{"theta": [2.0], "n_total": 10, "n_remaining": 9, "n_forget": 1,'
                 ' "loss": "squared"}')


@pytest.mark.parametrize("old, new", [
    ('"n_total": 10', '"n_total": 10.7'),
    ('"n_forget": 1', '"n_forget": true'),
    ('"n_total": 10', '"n_total": "10"'),
    ('"n_total": 10', '"n_total": 1e400'),
    ('[2.0]', "[" + "9" * 400 + "]"),
    ('"squared"}', '"squared"'),
], ids=["fractional", "bool", "string", "overflowing-count", "overflowing-theta",
        "truncated"])
def test_model_json_counts_are_integers(worked_example, old, new, capsys):
    model, forget, sub, tmp = worked_example
    argv = ["unlearn", "--model", str(model), "--forget", str(forget),
            "--sub", str(sub), "--out", str(tmp / "r.json")]
    model.write_text(_COUNTS_MODEL)
    assert main(argv) == 0  # the payload before the one edit is valid
    capsys.readouterr()
    model.write_text(_COUNTS_MODEL.replace(old, new))
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("SchemaMismatch"), lines


def test_pretrain_rejects_a_forget_set_of_every_row(p3_example, capsys):
    paths, tmp = p3_example
    out = tmp / "all.json"
    code = main(["pretrain", str(paths["full"]), "--n-forget", "135", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "ValueError: n_forget=135 must lie in [0, n=135)"]
    assert not out.exists()


def test_gd_on_an_all_zero_subsample_is_a_singular_gram(p3_example, capsys):
    paths, tmp = p3_example
    zero = tmp / "zero.csv"
    _write_csv(zero, np.zeros((60, 3)), np.ones(60))
    out = tmp / "gd.json"
    code = main(["unlearn", "--model", str(paths["model"]), "--forget", str(paths["forget"]),
                 "--sub", str(zero), "--method", "gd", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "SingularGram: subsample Gram matrix has no positive spectrum"]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_infer_empty_v_file_prints_only_the_named_error(p3_example, capsys):
    paths, tmp = p3_example
    vfile = tmp / "v.txt"
    vfile.write_text("")
    code = main([
        "infer", "--sub", str(paths["sub"]), "--method", "ols",
        "--v-file", str(vfile), "--out", str(tmp / "r.json"),
    ])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("SchemaMismatch"), lines
    assert "0 entries" in lines[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["graddiff", "tl"])
def test_huge_lambda_fits_cleanly(p3_example, method, capsys):
    # lam enters the GradDiff path and the tl system only through bounded
    # ratios, where lam * theta_p or lam * sigma_sub would overflow
    paths, tmp = p3_example
    out = tmp / "r.json"
    code = main([
        "unlearn", "--model", str(paths["model"]), "--forget", str(paths["forget"]),
        "--sub", str(paths["sub"]), "--method", method, "--lam", "1e308",
        "--out", str(out),
    ])
    assert (code, capsys.readouterr().err) == (0, "")
    result = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert result["lambda_used"] == 1e308


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["graddiff", "tl"])
@pytest.mark.parametrize("seed", [2, 4, 5, 6, 7])
def test_cv_grid_up_to_the_largest_float(tmp_path, seed, method, capsys):
    # on these instances the CV picks lam = 1e308 (tl) or scores it (graddiff)
    model, _, forget, sub = linear_instance(seed, p=6, n_sub=150)
    save_model(model, tmp_path / "model.json")
    save_csv(forget, tmp_path / "forget.csv")
    save_csv(sub, tmp_path / "sub.csv")
    code = main([
        "unlearn", "--model", str(tmp_path / "model.json"),
        "--forget", str(tmp_path / "forget.csv"), "--sub", str(tmp_path / "sub.csv"),
        "--method", method, "--grid-hi", "1e308", "--out", str(tmp_path / "r.json"),
    ])
    assert (code, capsys.readouterr().err) == (0, "")


_MALFORMED_CSVS = {
    "bad-header": "y,x1,x2,z\n1,2,3,4\n",
    "ragged-row": "y,x1,x2,x3\n1,2,3,4\n1,2,3\n",
    "non-numeric-cell": "y,x1,x2,x3\n1,2,abc,4\n",
    "nan": "y,x1,x2,x3\n1,2,nan,4\n",
    "empty-file": "",
    "header-only": "y,x1,x2,x3\n",
    # a quoted "3\n" is a valid cell read as 3 (test_data_model), so the
    # line break here splits a number
    "quoted-line-break": 'y,x1,x2,x3\n1,2,"3\n5",4\n',
    "quoted-line-break-in-the-header": 'y,x1,x2,"x3\n"\n1,2,3,4\n',
    "file-separator": "y,x1,x2,x3\n1,2,3\x1c,4\n",
    "group-separator": "y,x1,x2,x3\n1,2\x1d,3,4\n",
    "record-separator": "y,x1,x2,x3\n1,\x1e2,3,4\n",
    "unit-separator": "y,x1,x2,x3\n1,2,3,4\x1f\n",
    "no-covariate-header": "y\n1\n",
}

# (command, the flag that names the CSV, the files of the other roles)
_CSV_ROLES = {
    "pretrain-full": ["pretrain", None],
    "unlearn-forget": ["unlearn", "--forget", "--model", "--sub"],
    "unlearn-sub": ["unlearn", "--sub", "--model", "--forget"],
    "infer-sub": ["infer", "--sub", "--model", "--forget"],
    "bench-remaining": ["bench", "--remaining", "--forget", "--test"],
    "bench-forget": ["bench", "--forget", "--remaining", "--test"],
    "bench-test": ["bench", "--test", "--remaining", "--forget"],
}


@pytest.mark.parametrize("role, case", [
    (role, case) for role in _CSV_ROLES for case in _MALFORMED_CSVS
    if not (case == "header-only" and role.endswith("forget"))  # no rows is valid
])
def test_malformed_csv_exit_code(p3_example, role, case, capsys):
    # every CSV a command reads rejects every malformation with one named error
    paths, tmp = p3_example
    bad = tmp / "bad.csv"
    bad.write_text(_MALFORMED_CSVS[case], encoding="utf-8", newline="")
    files = {"--model": paths["model"], "--forget": paths["forget"],
             "--sub": paths["sub"], "--remaining": paths["sub"], "--test": paths["sub"]}
    command, flag, *others = _CSV_ROLES[role]
    argv = [command, *(["--coord", "1"] if command == "infer" else [])]
    argv += [str(bad)] if flag is None else [flag, str(bad)]
    for other in others:
        argv += [other, str(files[other])]
    out = tmp / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(("ParseError: ", "SchemaMismatch: ")), lines
    assert not out.exists()


def _uls_process(*args):
    """``uls args`` in a separate process, so stderr holds whatever numpy prints."""
    src = str(Path(ulskit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ulskit.cli", *map(str, args)],
                          env=env, capture_output=True, text=True)


@pytest.fixture
def huge_responses(tmp_path):
    """A p = 2 model whose responses are of order 1e160: its moments are
    finite, but squares of responses and of theta_p (about 9e158) overflow."""
    rng = RngStream(5, 0)

    def rows(n, theta):
        x = rng.standard_normal((n, 2))
        return x, 1e160 * (x @ np.array(theta) + rng.standard_normal(n))

    xr, yr = rows(400, [0.5, -0.3])
    xf, yf = rows(40, [2.0, 1.0])
    xt, yt = rows(100, [0.5, -0.3])
    paths = {name: tmp_path / f"{name}.csv"
             for name in ("full", "forget", "sub", "remaining", "test")}
    _write_csv(paths["full"], np.vstack([xr, xf]), np.concatenate([yr, yf]))
    _write_csv(paths["forget"], xf, yf)
    _write_csv(paths["sub"], xr[:150], yr[:150])
    _write_csv(paths["remaining"], xr, yr)
    _write_csv(paths["test"], xt, yt)
    paths["model"] = tmp_path / "model.json"
    assert main(["pretrain", str(paths["full"]), "--n-forget", "40",
                 "--out", str(paths["model"])]) == 0
    return paths, tmp_path


def test_gd_converges_where_the_norm_squares_overflow(huge_responses):
    # 1 + ||theta_p|| overflows as a plain norm, which made GD's tolerance inf
    paths, tmp = huge_responses
    fits = {}
    for method in ("gd", "uls"):
        out = tmp / f"{method}.json"
        proc = _uls_process("unlearn", "--model", paths["model"],
                            "--forget", paths["forget"], "--sub", paths["sub"],
                            "--method", method, "--out", out)
        assert (proc.returncode, proc.stderr) == (0, "")
        fits[method] = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert fits["gd"]["iterations"] > 0
    # in units of 1e159, so that the test's own norms do not overflow
    theta_p = np.array(load_model(paths["model"]).theta_p) / 1e159
    gap = (np.array(fits["gd"]["theta"]) - np.array(fits["uls"]["theta"])) / 1e159
    assert np.linalg.norm(gap) <= 1e-8 * np.linalg.norm(theta_p)


def test_simulate_overflowing_shift_is_strict_json(tmp_path):
    records, summary = tmp_path / "records.csv", tmp_path / "summary.json"
    proc = _uls_process("simulate", "--nr", 200, "--nf", 20, "--p", 3, "--reps", 2,
                        "--delta", "1e160", "--methods", "retrain,pretrain,ols",
                        "--records", records, "--summary", summary)
    assert (proc.returncode, proc.stderr) == (0, "")
    methods = json.loads(summary.read_text(), parse_constant=_reject_constant)["methods"]
    assert all(agg["n_ok"] == 2 for agg in methods.values())
    assert 1e158 < methods["pretrain"]["mean_error"] < 1e160
    errors = [float(line.split(",")[2]) for line in records.read_text().splitlines()[1:]]
    assert len(errors) == 6 and all(math.isfinite(e) for e in errors)


# bench and simulate count a method's CV overflow as its failure and go on
@pytest.mark.parametrize("argv, code, named", [
    (["unlearn", "--method", "uls+"], 2,
     "HeldOutOverflow: uls+: the held-out MSE overflows"),
    (["unlearn", "--method", "graddiff"], 2,
     "HeldOutOverflow: graddiff: the held-out MSE overflows"),
    (["unlearn", "--method", "tl"], 2, "HeldOutOverflow: tl: the held-out MSE overflows"),
    (["bench", "--methods", "retrain,tl"], 3, "HeldOutOverflow: tl: "),
    (["simulate", "--methods", "retrain,uls+"], 0, None),
    (["infer", "--method", "uls"], 3, "SingularGram: interval variance is not finite"),
    (["infer", "--method", "ols"], 3, "SingularGram: interval variance is not finite"),
], ids=["cv-uls+", "cv-graddiff", "cv-tl", "bench", "simulate", "infer-uls", "infer-ols"])
def test_overflowing_squares_print_only_the_named_error(huge_responses, argv, code, named):
    paths, tmp = huge_responses
    out = tmp / "out"
    command, rest = argv[0], argv[1:]
    files = {
        "unlearn": ["--model", paths["model"], "--forget", paths["forget"],
                    "--sub", paths["sub"], "--out", out],
        "bench": ["--remaining", paths["remaining"], "--forget", paths["forget"],
                  "--test", paths["test"], "--out", out],
        "simulate": ["--nr", 200, "--nf", 20, "--p", 3, "--reps", 2, "--delta", "1e160",
                     "--records", out, "--summary", tmp / "summary.json"],
        "infer": ["--model", paths["model"], "--forget", paths["forget"],
                  "--sub", paths["sub"], "--coord", 1, "--out", out],
    }[command]
    proc = _uls_process(command, *rest, *files)
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    if named is None:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith(named), lines
    assert out.exists() == (command in ("bench", "simulate"))


def _simulate_overflowing_shift(tmp_path, methods):
    """simulate at delta = 1e160 in its own process: (returncode, stderr,
    record rows, summary methods)."""
    records, summary = tmp_path / "records.csv", tmp_path / "summary.json"
    proc = _uls_process("simulate", "--nr", 200, "--nf", 20, "--p", 3, "--reps", 2,
                        "--delta", "1e160", "--methods", methods,
                        "--records", records, "--summary", summary)
    rows = [line.split(",") for line in records.read_text().splitlines()[1:]]
    aggs = json.loads(summary.read_text(), parse_constant=_reject_constant)["methods"]
    return proc.returncode, proc.stderr, rows, aggs


def test_simulate_keeps_the_fit_error_when_only_its_interval_fails(tmp_path):
    # uls fits, but its interval variance overflows (SingularGram)
    code, err, rows, aggs = _simulate_overflowing_shift(tmp_path, "retrain,uls,ols")
    assert (code, err) == (0, "")
    uls_rows = [row for row in rows if row[1] == "uls"]
    assert len(uls_rows) == 2
    for _, _, error, covered, sd_hat, _ in uls_rows:
        assert 1e157 < float(error) < 1e160 and covered == sd_hat == ""
    assert (aggs["uls"]["n_ok"], aggs["uls"]["n_failed"]) == (2, 0)
    assert "coverage" not in aggs["uls"] and "coverage" in aggs["ols"]


def test_simulate_counts_a_cv_overflow_as_the_methods_failure(tmp_path):
    methods = "retrain,uls+,tl,graddiff"
    code, err, rows, aggs = _simulate_overflowing_shift(tmp_path, methods)
    assert (code, err) == (0, "")
    assert len(rows) == 8
    assert (aggs["retrain"]["n_ok"], aggs["retrain"]["n_failed"]) == (2, 0)
    for method in ("uls+", "tl", "graddiff"):
        assert (aggs[method]["n_ok"], aggs[method]["n_failed"]) == (0, 2)


def test_bench_counts_a_cv_overflow_as_the_methods_failure(huge_responses):
    paths, tmp = huge_responses
    out = tmp / "mpe.csv"
    proc = _uls_process("bench", "--remaining", paths["remaining"],
                        "--forget", paths["forget"], "--test", paths["test"],
                        "--methods", "retrain,uls,uls+,graddiff,tl", "--out", out)
    assert proc.returncode == 3
    tuned = ("uls+", "graddiff", "tl")
    lines = proc.stderr.splitlines()
    assert len(lines) == 3, lines
    assert all(line.startswith(f"HeldOutOverflow: {m}: ") for line, m in zip(lines, tuned))
    assert all(line.count(f"{m}: ") == 1 for line, m in zip(lines, tuned)), lines
    rows = dict(line.split(",")[:2] for line in out.read_text().splitlines()[1:])
    assert list(rows) == ["retrain", "uls", *tuned]
    assert all(math.isnan(float(rows[m])) for m in tuned)
    assert not any(math.isnan(float(rows[m])) for m in ("retrain", "uls"))


@pytest.mark.parametrize("method", ["uls", "uls+", "graddiff", "tl"])
def test_squared_loss_methods_refuse_a_logistic_model(tmp_path, method, capsys):
    _, remaining, forget = logistic_instance(3, n_r=600, n_f=60, p=4)
    paths = {name: tmp_path / f"{name}.csv" for name in ("full", "forget", "sub")}
    _write_csv(paths["full"], np.vstack([remaining.x, forget.x]),
               np.concatenate([remaining.y, forget.y]))
    _write_csv(paths["forget"], forget.x, forget.y)
    _write_csv(paths["sub"], remaining.x[:200], remaining.y[:200])
    model, out = tmp_path / "model.json", tmp_path / "r.json"
    assert main(["pretrain", str(paths["full"]), "--loss", "logistic",
                 "--n-forget", "60", "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["unlearn", "--model", str(model), "--forget", str(paths["forget"]),
                 "--sub", str(paths["sub"]), "--method", method, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"ValueError: {method} requires a squared-loss pretrained model"]
    assert not out.exists()


def test_repeated_method_names_are_rejected(tmp_path, capsys):
    records, out = tmp_path / "records.csv", tmp_path / "mpe.csv"
    assert main(["simulate", "--nr", "200", "--nf", "20", "--p", "3", "--reps", "2",
                 "--methods", "uls,ols,uls", "--records", str(records),
                 "--summary", str(tmp_path / "summary.json")]) == 2
    # bench rules on its methods before it reads a file, here a missing one
    assert main(["bench", "--remaining", str(tmp_path / "missing.csv"),
                 "--forget", str(tmp_path / "missing.csv"),
                 "--test", str(tmp_path / "missing.csv"),
                 "--methods", "uls,uls", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["ValueError: method named more than once: uls"] * 2
    assert not records.exists() and not out.exists()


def test_failing_method_leaves_blank_cells(tmp_path):
    # a 4-row subsample cannot identify p = 8 coefficients, so uls and ols
    # raise SingularGram in every replication; the oracles do not need it
    def run(tag, methods):
        records, summary = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
        assert main(["simulate", "--nr", "200", "--nf", "20", "--p", "8",
                     "--ratio", "0.02", "--reps", "3", "--methods", methods,
                     "--records", str(records), "--summary", str(summary)]) == 0
        rows = [line.split(",") for line in records.read_text().splitlines()[1:]]
        return rows, json.loads(summary.read_text())["methods"]

    rows, methods = run("mixed", "retrain,uls,pretrain,ols")
    failed = [row for row in rows if row[1] in ("uls", "ols")]
    assert len(failed) == 6 and all(row[2:] == ["", "", "", ""] for row in failed)
    for name in ("uls", "ols"):
        assert methods[name] == {"n_ok": 0, "n_failed": 3}
    for name in ("retrain", "pretrain"):
        assert (methods[name]["n_ok"], methods[name]["n_failed"]) == (3, 0)
    oracles, alone = run("oracles", "retrain,pretrain")
    assert [row for row in rows if row[1] in ("retrain", "pretrain")] == oracles
    assert {name: methods[name] for name in alone} == alone


def test_redraw_truth_draws_each_replication_its_own(tmp_path, monkeypatch):
    import ulskit.simulation as simulation

    drawn, draw_truth = [], simulation.draw_truth

    def recording_draw_truth(cfg, rng):
        theta_r, theta_f = draw_truth(cfg, rng)
        drawn.append(theta_r)
        return theta_r, theta_f

    monkeypatch.setattr(simulation, "draw_truth", recording_draw_truth)
    serial = _simulate(tmp_path, "s", ["--redraw-truth", "--threads", "1"])
    # one truth for the experiment, then one for each of the 3 replications
    assert len(drawn) == 4
    assert len({tuple(theta) for theta in drawn}) == 4
    assert serial == _simulate(tmp_path, "p", ["--redraw-truth", "--threads", "2"])
    assert serial[0] != _simulate(tmp_path, "fixed", ["--threads", "1"])[0]


def test_timing_fills_only_the_millis_cells(tmp_path, bench_files):
    def cells(text):
        return [line.split(",") for line in text.splitlines()]

    plain_records, plain_summary = _simulate(tmp_path, "plain", ["--threads", "1"])
    timed_records, timed_summary = _simulate(tmp_path, "timed", ["--timing"])
    plain, timed = cells(plain_records.decode()), cells(timed_records.decode())
    assert plain[0] == timed[0] and len(plain) == len(timed)
    for a, b in zip(plain[1:], timed[1:]):
        assert a[:-1] == b[:-1] and a[-1] == "" and float(b[-1]) >= 0.0
    plain_methods = json.loads(plain_summary)["methods"]
    timed_methods = json.loads(timed_summary)["methods"]
    for name, agg in timed_methods.items():
        assert agg.pop("mean_millis") >= 0.0
    assert timed_methods == plain_methods

    paths, tmp = bench_files
    mpe = {}
    for extra in ([], ["--timing"]):
        out = tmp / f"mpe{len(extra)}.csv"
        assert main(["bench", "--remaining", str(paths["remaining"]),
                     "--forget", str(paths["forget"]), "--test", str(paths["test"]),
                     "--methods", "retrain,uls,tl", *extra, "--out", str(out)]) == 0
        mpe[len(extra)] = cells(out.read_text())
    assert mpe[0][0] == mpe[1][0] == ["method", "mpe", "millis"]
    for a, b in zip(mpe[0][1:], mpe[1][1:]):
        assert a[:2] == b[:2] and a[2] == "" and float(b[2]) >= 0.0
