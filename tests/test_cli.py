import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ulskit
from helpers import linear_instance
from ulskit import Dataset, RngStream, load_model, ols_fit, save_csv, save_model
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


@pytest.fixture
def p3_example(tmp_path):
    """A p = 3 squared-loss model with forget rows and a 60-row subsample."""
    rng = RngStream(12, 0)
    x = rng.standard_normal((120, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(120)
    xf = rng.standard_normal((15, 3))
    yf = xf @ np.array([2.0, -1.0, 1.5]) + rng.standard_normal(15)
    paths = {name: tmp_path / f"{name}.csv" for name in ("full", "forget", "sub")}
    _write_csv(paths["full"], np.vstack([x, xf]), np.concatenate([y, yf]))
    _write_csv(paths["forget"], xf, yf)
    _write_csv(paths["sub"], x[:60], y[:60])
    paths["model"] = tmp_path / "model.json"
    assert main(["pretrain", str(paths["full"]), "--n-forget", "15",
                 "--out", str(paths["model"])]) == 0
    return paths, tmp_path


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
        SQUARED, gd_unlearn, graddiff, load_csv, transfer_ridge, uls, uls_plus,
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
        "gd": lambda: gd_unlearn(SQUARED, model, forget, sub),
    }[method]().theta
    table = SOLVERS[method].fit(prepare(model, forget, sub), lam).theta
    cli = json.loads(out.read_text())["theta"]
    assert cli == [float(v) for v in library]
    assert np.array_equal(library, table)


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


def test_non_integer_env_threads_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ULS_THREADS", "abc")
    records, summary = tmp_path / "r.csv", tmp_path / "s.json"
    code = main([
        "simulate", "--nr", "300", "--nf", "30", "--p", "4", "--reps", "2",
        "--records", str(records), "--summary", str(summary),
    ])
    assert code == 2
    assert "ULS_THREADS" in capsys.readouterr().err
    assert not records.exists()


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


def test_cli_start_up_leaves_out_scipy_stats():
    # scipy.stats alone roughly doubles the start-up time of every command
    src = str(Path(ulskit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, ulskit.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


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
], ids=["fractional", "bool", "string", "overflowing-count", "overflowing-theta"])
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
