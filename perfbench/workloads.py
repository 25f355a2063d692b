"""The benchmark's workloads: seeded inputs, the `uls` ops of one round, and
the correctness check of each op.

Inputs are made with numpy alone from the workload seed, so no ulskit code
runs before the timed ops except `save_csv`, which writes the CSV inputs of
`csv_pipeline`. The CLI only ever sees the generated files and flags.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Simulation batch sizes: big enough that process start-up (about 1.5 s on
# a 2-core box) stays a small share of each op.
TABLE1_REPS = 200
TUNED_REPS = 120

# An interval's coverage must lie within this many standard errors of
# 1 - alpha. The se is the summary's own coverage_se, floored at the binomial
# se under the nominal level: with every replication covered the summary's se
# is 0, which would fail a correct interval.
COVERAGE_SES = 5.0
# Closed-form stationarity certificates, scaled by max(1, lambda).
GRAD_TOL = 1e-8
# GD stops once its residual is below grad_tol * (1 + ||theta_p||); the CLI
# default grad_tol is 1e-8 and t_max is 10000.
GD_GRAD_TOL = 1e-8
GD_T_MAX = 10_000
# Relative agreement of coefficient vectors that are equal in exact arithmetic.
EXACT_RTOL = 1e-8
# The GD fixed point is the closed form up to the GD stopping tolerance.
GD_RTOL = 1e-6
# bench: the uls prediction error may exceed the retrain oracle's by 10%.
MPE_SLACK = 1.1

CSV_P = 50
CSV_N_REMAINING = 20_000
CSV_N_FORGET = 1_000
CSV_N_SUB = 4_000
CSV_N_TEST = 2_000
CSV_RHO = 0.3
CSV_DELTA = 2.0
UNLEARN_METHODS = ("uls", "uls+", "graddiff", "tl", "gd")


@dataclass
class Op:
    """One `uls` process: its arguments, the work it does and its check."""

    kind: str
    argv: list
    check: object  # callable(work_dir, record) -> None, raising CheckFailed
    reps: float = 0.0
    rows: int = 0


class CheckFailed(Exception):
    """An op's output does not have the property the check asserts."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Simulation workloads
# ---------------------------------------------------------------------------

def check_summary(summary: dict, reps: int, n_records: int) -> None:
    """Paper properties of one `uls simulate` summary."""
    methods = summary["methods"]
    alpha = summary["config"]["alpha"]
    _require(n_records == reps * len(methods),
             f"records file has {n_records} rows, expected {reps * len(methods)}")
    for name, agg in methods.items():
        _require(agg["n_failed"] == 0 and agg["n_ok"] == reps,
                 f"{name}: {agg['n_failed']} of {reps} replications failed")
    for name in ("uls", "ols"):
        if name in methods:
            agg = methods[name]
            gap = abs(agg["coverage"] - (1.0 - alpha))
            se = max(agg["coverage_se"], np.sqrt(alpha * (1.0 - alpha) / reps))
            _require(gap <= COVERAGE_SES * se,
                     f"{name}: coverage {agg['coverage']:.4f} is {gap:.4f} from"
                     f" {1 - alpha}, more than {COVERAGE_SES} x se {se:.4f}")
    if "uls" in methods and "ols" in methods:
        _require(methods["uls"]["mean_sd"] < methods["ols"]["mean_sd"],
                 "mean_sd(uls) is not below mean_sd(ols)")
    if "uls" in methods and "gd" in methods:
        err = methods["uls"]["mean_error"]
        _require(abs(methods["gd"]["mean_error"] - err) <= GD_RTOL * err,
                 "gd and uls mean errors differ")


def sim_check(reps: int):
    def check(work: Path, record: dict) -> None:
        with open(work / "records.csv", "r", encoding="utf-8") as fh:
            n_records = sum(1 for _ in fh) - 1
        summary = _read_json(work / "summary.json")
        record["failed_reps"] = sum(a["n_failed"] for a in summary["methods"].values())
        check_summary(summary, reps, n_records)
    return check


@dataclass
class SimWorkload:
    name: str
    why: str
    args: list
    reps: int
    rows_per_rep: int
    seed: int = 0

    def setup(self, work: Path, seed: int) -> None:
        self.seed = seed

    def round_ops(self, k: int) -> list:
        """One batch, with a seed drawn from the workload seed and the round."""
        batch_seed = int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])
        argv = ["simulate", *self.args, "--reps", str(self.reps),
                "--seed", str(batch_seed),
                "--records", "records.csv", "--summary", "summary.json"]
        return [Op("simulate", argv, sim_check(self.reps), reps=self.reps,
                   rows=self.reps * self.rows_per_rep)]


# ---------------------------------------------------------------------------
# CSV pipeline
# ---------------------------------------------------------------------------

@dataclass
class CsvInstance:
    """A table1-shaped instance and the references its ops are checked against."""

    x_r: np.ndarray
    y_r: np.ndarray
    x_f: np.ndarray
    y_f: np.ndarray
    sub_idx: np.ndarray
    x_t: np.ndarray
    y_t: np.ndarray

    @classmethod
    def generate(cls, seed: int) -> "CsvInstance":
        rng = np.random.default_rng(seed)
        p = CSV_P
        theta_r = rng.standard_normal(p)
        theta_f = theta_r + CSV_DELTA / np.sqrt(p)
        x_r = rng.standard_normal((CSV_N_REMAINING, p))
        y_r = x_r @ theta_r + rng.standard_normal(CSV_N_REMAINING)
        lags = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        ar_factor = np.linalg.cholesky(CSV_RHO ** lags)
        x_f = rng.standard_normal((CSV_N_FORGET, p)) @ ar_factor.T
        y_f = x_f @ theta_f + rng.standard_normal(CSV_N_FORGET)
        sub_idx = np.sort(rng.choice(CSV_N_REMAINING, CSV_N_SUB, replace=False))
        x_t = rng.standard_normal((CSV_N_TEST, p))
        y_t = x_t @ theta_r + rng.standard_normal(CSV_N_TEST)
        return cls(x_r, y_r, x_f, y_f, sub_idx, x_t, y_t)

    def files(self) -> dict:
        """File name -> (x, y, role) for every CSV the ops read."""
        x_full = np.vstack([self.x_r, self.x_f])
        y_full = np.concatenate([self.y_r, self.y_f])
        return {
            "full.csv": (x_full, y_full, "remaining"),
            "remaining.csv": (self.x_r, self.y_r, "remaining"),
            "forget.csv": (self.x_f, self.y_f, "forget"),
            "sub.csv": (self.x_r[self.sub_idx], self.y_r[self.sub_idx], "subsample"),
            "test.csv": (self.x_t, self.y_t, "test"),
        }

    def references(self) -> dict:
        x_full = np.vstack([self.x_r, self.x_f])
        y_full = np.concatenate([self.y_r, self.y_f])
        theta_p = np.linalg.lstsq(x_full, y_full, rcond=None)[0]
        retrain = np.linalg.lstsq(self.x_r, self.y_r, rcond=None)[0]
        x_s, y_s = self.x_r[self.sub_idx], self.y_r[self.sub_idx]
        sigma_sub = x_s.T @ x_s / len(y_s)
        sigma_f = self.x_f.T @ self.x_f / len(self.y_f)
        m_f = self.x_f.T @ self.y_f / len(self.y_f)
        omega_f = CSV_N_FORGET / (CSV_N_FORGET + CSV_N_REMAINING)
        uls = theta_p + omega_f / (1.0 - omega_f) * np.linalg.solve(
            sigma_sub, sigma_f @ theta_p - m_f)
        return {"theta_p": theta_p, "retrain": retrain, "uls": uls}


def _check_pretrain(ref):
    def check(work: Path, record: dict) -> None:
        model = _read_json(work / "model.json")
        _require((model["n_total"], model["n_remaining"], model["n_forget"])
                 == (CSV_N_REMAINING + CSV_N_FORGET, CSV_N_REMAINING, CSV_N_FORGET),
                 f"model counts are wrong: {model}")
        err = _rel_err(model["theta"], ref["theta_p"])
        _require(err <= EXACT_RTOL, f"pretrain differs from lstsq by {err:.3e}")
    return check


def check_unlearn(method: str, ref, out: str, exact: bool = False):
    def check(work: Path, record: dict) -> None:
        res = _read_json(work / out)
        theta = np.asarray(res["theta"], dtype=float)
        _require(res["method"] == method and theta.shape == (CSV_P,)
                 and bool(np.all(np.isfinite(theta))),
                 f"{method}: malformed result")
        if method == "gd":
            tol = GD_GRAD_TOL * (1.0 + np.linalg.norm(ref["theta_p"]))
            _require(res["iterations"] < GD_T_MAX, "gd hit its iteration cap")
        else:
            tol = GRAD_TOL * max(1.0, res["lambda_used"] or 0.0)
        _require(res["grad_residual"] is not None and res["grad_residual"] <= tol,
                 f"{method}: grad_residual {res['grad_residual']} above {tol:.3e}")
        if exact:
            err = _rel_err(theta, ref["retrain"])
            _require(err <= EXACT_RTOL,
                     f"exact unlearning differs from the retrain by {err:.3e}")
        elif method in ("uls", "gd"):
            err = _rel_err(theta, ref["uls"])
            rtol = EXACT_RTOL if method == "uls" else GD_RTOL
            _require(err <= rtol, f"{method} differs from the closed form by {err:.3e}")
    return check


def _check_infer(ref):
    def check(work: Path, record: dict) -> None:
        rep = _read_json(work / "infer.json")
        lo, hi = rep["ci"]
        _require(lo <= rep["point"] <= hi, "interval does not contain its point")
        _require(rep["variance"] > 0.0, "interval variance is not positive")
        _require(abs(rep["point"] - ref["uls"][0]) <= EXACT_RTOL * (1 + abs(ref["uls"][0])),
                 "interval point is not the uls coefficient")
    return check


def _check_bench(work: Path, record: dict) -> None:
    with open(work / "mpe.csv", "r", encoding="utf-8", newline="") as fh:
        mpe = {row["method"]: float(row["mpe"]) for row in csv.DictReader(fh)}
    _require(mpe["uls"] <= MPE_SLACK * mpe["retrain"],
             f"uls MPE {mpe['uls']:.6g} above {MPE_SLACK} x retrain {mpe['retrain']:.6g}")


@dataclass
class CsvWorkload:
    name: str
    why: str
    instance: CsvInstance | None = None
    ref: dict | None = None

    def setup(self, work: Path, seed: int) -> None:
        """Generate the instance and write it with ulskit's own save_csv.

        `data_model.save_csv` is looked up at call time, so a traced run
        sees the wrapper installed over it.
        """
        from ulskit import data_model

        self.instance = CsvInstance.generate(seed)
        self.ref = None
        for fname, (x, y, role) in self.instance.files().items():
            data_model.save_csv(data_model.Dataset(x, y, role), work / fname)
            # flush now, so that write-back does not run under the timed ops
            with open(work / fname, "rb") as fh:
                os.fsync(fh.fileno())

    def round_ops(self, k: int) -> list:
        if self.ref is None:
            self.ref = self.instance.references()
        ref = self.ref
        common = ["--model", "model.json", "--forget", "forget.csv"]
        n_rf = CSV_N_FORGET + CSV_N_SUB
        ops = [Op("pretrain", ["pretrain", "full.csv", "--n-forget", str(CSV_N_FORGET),
                               "--out", "model.json"],
                  _check_pretrain(ref), rows=CSV_N_REMAINING + CSV_N_FORGET)]
        for method in UNLEARN_METHODS:
            out = f"unlearn_{method}.json"
            ops.append(Op(f"unlearn:{method}",
                          ["unlearn", *common, "--sub", "sub.csv", "--method", method,
                           "--out", out],
                          check_unlearn(method, ref, out), rows=n_rf))
        ops.append(Op("unlearn:exact",
                      ["unlearn", *common, "--sub", "remaining.csv", "--method", "uls",
                       "--out", "exact.json"],
                      check_unlearn("uls", ref, "exact.json", exact=True),
                      rows=CSV_N_FORGET + CSV_N_REMAINING))
        ops.append(Op("infer", ["infer", *common, "--sub", "sub.csv", "--coord", "1",
                                "--out", "infer.json"],
                      _check_infer(ref), rows=n_rf))
        ops.append(Op("bench", ["bench", "--remaining", "remaining.csv", "--forget",
                                "forget.csv", "--test", "test.csv", "--threads", "1",
                                "--out", "mpe.csv"],
                      _check_bench, reps=1.0,  # a pass of the pipeline is one rep
                      rows=CSV_N_REMAINING + CSV_N_FORGET + CSV_N_TEST))
        return ops


WORKLOADS = {
    "sim_table1": SimWorkload(
        "sim_table1",
        "Table 1 Monte Carlo (uls,ols) with one pool worker: design generation"
        " dominates; tuning and CSV I/O do no work; the single-threaded baseline",
        ["--preset", "table1", "--threads", "1"],
        TABLE1_REPS,
        rows_per_rep=20_000 + 1_000,
    ),
    "sim_tuned": SimWorkload(
        "sim_tuned",
        "all five unlearners with 5-fold x 20-point CV on nproc pool workers:"
        " cv_select, the SPD kernel and GD dominate; pool/BLAS contention shows",
        ["--nr", "4000", "--nf", "400", "--p", "50", "--ratio", "0.5",
         "--methods", "uls,uls+,graddiff,tl,gd"],
        TUNED_REPS,
        rows_per_rep=4_000 + 400,
    ),
    "csv_pipeline": CsvWorkload(
        "csv_pipeline",
        "practitioner path on a 20000x50 CSV: process start-up, load_csv and"
        " save_csv, which the simulations never touch",
    ),
}
