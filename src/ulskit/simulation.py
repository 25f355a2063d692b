"""Synthetic data generators, Monte Carlo driver, and summary metrics.

The generator draws remaining covariates from N(0, I), forget covariates
from N(0, AR(rho)) with entries rho**|j-k|, unit-variance Gaussian noise on
both responses, and shifts the forget coefficients by delta along the
normalized all-ones direction so that ||theta_f - theta_r|| = delta exactly.

A replication needs the remaining set only through its statistics X_r'X_r
and X_r'y_r, plus a uniform subsample of its rows. Since a uniform subsample
of iid rows is itself iid, :func:`draw_rep_stats` draws the n_sub subsample
rows and the forget rows explicitly and the other n_r - n_sub remaining rows
only through their Gram matrix (a Wishart draw by the Bartlett
decomposition) and cross-moment. That is exact in distribution and costs
O(n_sub p + p^2) normals instead of O(n_r p). :func:`generate_rep` still
draws every remaining row, for checks that need them.

Every replication owns child random streams keyed by its index, so results
are bit-identical regardless of worker count, and the truth vector is drawn
once per experiment unless per-rep redraws are requested.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from os import cpu_count

import numpy as np

from .data_model import (
    Dataset,
    PretrainedModel,
    SufficientStats,
    WeightProfile,
    compute_stats,
    subsample,
)
from .errors import EmptyDataset, UlsError
from .estimators import (
    GdConfig,
    gd_unlearn,
    graddiff_theta,
    ols_theta,
    transfer_ridge_theta,
    uls_theta,
    uls_plus_theta,
)
from .inference import ci_ols, ci_uls
from .loss import SQUARED
from .numerics import (
    RngStream,
    ar1_covariance,
    bartlett_factor,
    cholesky,
    sample_gaussian,
)
from .tuning import CvSpec, cv_select, log_grid

METHODS = ("retrain", "pretrain", "ols", "uls", "uls+", "graddiff", "tl", "gd")

# methods whose replication records carry CI coverage and sd
CI_METHODS = ("uls", "ols")

PRESETS = {
    "table1": {
        "n_r": 20_000,
        "n_f": 1_000,
        "p": 50,
        "subsample_ratio": 0.2,
        "delta": 2.0,
    },
}


@dataclass(frozen=True)
class SimConfig:
    n_r: int = 20_000
    n_f: int = 1_000
    p: int = 50
    subsample_ratio: float = 0.2
    delta: float = 2.0
    rho_f: float = 0.3
    reps: int = 1_000
    seed: int = 0
    methods: tuple[str, ...] = ("uls", "ols")
    v_direction: int = 1
    alpha: float = 0.05
    oracle_lambda: bool = False
    redraw_truth: bool = False
    cv_folds: int = 5
    cv_grid_size: int = 20
    cv_grid_lo: float = 1e-4
    cv_grid_hi: float = 1e4

    def __post_init__(self):
        if not 0.0 < self.subsample_ratio <= 1.0:
            raise ValueError("subsample_ratio must lie in (0, 1]")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.n_r < 1 or self.p < 1 or self.n_f < 0:
            raise ValueError("invalid sample sizes")
        if self.delta < 0.0:
            raise ValueError("delta must be >= 0")
        if not 1 <= self.v_direction <= self.p:
            raise ValueError("v_direction must index a coordinate (1-based)")
        methods = tuple(self.methods)
        for name in methods:
            if name not in METHODS:
                raise ValueError(f"unknown method {name!r}; expected {METHODS}")
        object.__setattr__(self, "methods", methods)

    @property
    def n_sub(self) -> int:
        return max(1, int(round(self.subsample_ratio * self.n_r)))

    def cv_spec(self) -> CvSpec:
        return CvSpec(
            folds=self.cv_folds,
            grid=tuple(log_grid(self.cv_grid_lo, self.cv_grid_hi, self.cv_grid_size)),
        )


@dataclass(frozen=True)
class RepRecord:
    rep: int
    method: str
    error: float | None
    covered: bool | None
    sd_hat: float | None
    millis: float


@dataclass(frozen=True)
class SimSummary:
    config: dict
    methods: dict

    def to_json_dict(self, include_timing: bool = False) -> dict:
        methods = {}
        for name, agg in self.methods.items():
            agg = dict(agg)
            if not include_timing:
                agg.pop("mean_millis", None)
            methods[name] = agg
        return {"config": self.config, "methods": methods}


def draw_truth(cfg: SimConfig, rng: RngStream):
    """theta_r ~ N(0, I_p); theta_f shifted by delta along ones/sqrt(p)."""
    theta_r = rng.standard_normal(cfg.p)
    theta_f = theta_r + cfg.delta / np.sqrt(cfg.p)
    return theta_r, theta_f


def _with_response(x, theta, rng: RngStream, role: str) -> Dataset:
    """Rows x with responses x @ theta plus unit-variance Gaussian noise."""
    return Dataset(x, x @ theta + rng.standard_normal(x.shape[0]), role)


def _draw_forget(cfg: SimConfig, theta_f, rng: RngStream) -> Dataset:
    ar_factor = cholesky(ar1_covariance(cfg.p, cfg.rho_f))
    x_f = sample_gaussian(rng, np.zeros(cfg.p), ar_factor, cfg.n_f)
    return _with_response(x_f, theta_f, rng, "forget")


def generate_rep(cfg: SimConfig, theta_r, theta_f, rng: RngStream):
    """One replication's (remaining, forget, subsample) datasets, row by row."""
    x_r = rng.standard_normal((cfg.n_r, cfg.p))
    remaining = _with_response(x_r, theta_r, rng, "remaining")
    forget = _draw_forget(cfg, theta_f, rng)
    sub = subsample(remaining, cfg.n_sub, rng)
    return remaining, forget, sub


def draw_rep_stats(cfg: SimConfig, theta_r, theta_f, rng: RngStream):
    """One replication as (st_r, st_sub, forget, sub).

    Equal in law to :func:`generate_rep` followed by ``compute_stats``. The
    subsample rows and forget rows are drawn explicitly. The other
    df = n_r - n_sub remaining rows enter only through X'X ~ Wishart(df, I)
    (a Bartlett factor A, X'X = A A') and X'eps | X'X ~ N(0, X'X), drawn as
    A z; with df < p the Bartlett draw is undefined and the df rows are
    drawn instead.
    """
    x_sub = rng.standard_normal((cfg.n_sub, cfg.p))
    sub = _with_response(x_sub, theta_r, rng, "subsample")
    forget = _draw_forget(cfg, theta_f, rng)
    st_sub = compute_stats(sub)
    df = cfg.n_r - cfg.n_sub
    if df == 0:
        return st_sub, st_sub, forget, sub
    if df < cfg.p:
        x_rest = rng.standard_normal((df, cfg.p))
        rest = _with_response(x_rest, theta_r, rng, "remaining")
        gram, cross = rest.x.T @ rest.x, rest.x.T @ rest.y
    else:
        a = bartlett_factor(rng, df, cfg.p).lower
        gram = a @ a.T
        cross = gram @ theta_r + a @ rng.standard_normal(cfg.p)
    st_r = SufficientStats(
        sigma=(cfg.n_sub * st_sub.sigma + gram) / cfg.n_r,
        m=(cfg.n_sub * st_sub.m + cross) / cfg.n_r,
        n=cfg.n_r,
    )
    return st_r, st_sub, forget, sub


def mpe(theta, test: Dataset) -> float:
    """Mean squared prediction error of theta on a held-out set."""
    if test.n == 0:
        raise EmptyDataset("cannot score predictions on an empty test set")
    r = test.y - test.x @ np.asarray(theta, dtype=np.float64)
    return float(r @ r) / test.n


def _oracle_lambdas(cfg: SimConfig) -> dict:
    """Theory-guided tuning weights, available because delta is known here."""
    w = WeightProfile.from_counts(
        cfg.n_r + cfg.n_f, cfg.n_r, cfg.n_f, cfg.n_sub
    )
    n = cfg.n_r + cfg.n_f
    lam_max_f = float(np.linalg.eigvalsh(ar1_covariance(cfg.p, cfg.rho_f))[-1])
    rules = {
        "uls+": w.omega_r * w.omega_f * cfg.delta,
        "tl": np.sqrt(cfg.p / cfg.n_sub)
        / (np.sqrt(cfg.p / n) + w.omega_f * cfg.delta),
    }
    if cfg.n_f > 0:
        convexity_floor = 2.0 * lam_max_f  # population remaining covariance is I
        rules["graddiff"] = max(
            np.sqrt(w.tilde_omega_r / w.omega_f)
            + np.sqrt(cfg.n_sub / cfg.p) * cfg.delta,
            convexity_floor,
        )
    else:
        rules["graddiff"] = 2.0 * lam_max_f
    return rules


def _pooled_theta(st_r, st_f, n_r, n_f):
    n = n_r + n_f
    sigma = (n_r * st_r.sigma + n_f * st_f.sigma) / n
    m = (n_r * st_r.m + n_f * st_f.m) / n
    return ols_theta(SufficientStats(sigma=sigma, m=m, n=n))


def _run_rep(cfg: SimConfig, rep: int, theta_r, theta_f, oracle) -> list:
    data_rng = RngStream(cfg.seed, 1 + 2 * rep)
    cv_rng = RngStream(cfg.seed, 2 + 2 * rep)
    if cfg.redraw_truth:
        theta_r, theta_f = draw_truth(cfg, data_rng)
    st_r, st_sub, forget, sub = draw_rep_stats(cfg, theta_r, theta_f, data_rng)
    st_f = (
        compute_stats(forget)
        if forget.n
        else SufficientStats(np.zeros((cfg.p, cfg.p)), np.zeros(cfg.p), 0)
    )
    theta_p = _pooled_theta(st_r, st_f, cfg.n_r, cfg.n_f)
    model = PretrainedModel(
        theta_p=theta_p,
        n_total=cfg.n_r + cfg.n_f,
        n_remaining=cfg.n_r,
        n_forget=cfg.n_f,
        loss_id="squared",
    )
    w = model.weights()
    v_idx = cfg.v_direction - 1
    v = np.zeros(cfg.p)
    v[v_idx] = 1.0
    truth = float(theta_r[v_idx])

    def pick_lambda(name: str) -> float:
        if cfg.oracle_lambda:
            return oracle[name]
        lam, _ = cv_select(name, model, forget, sub, cfg.cv_spec(), cv_rng)
        return lam

    def fit(name: str) -> np.ndarray:
        if name == "retrain":
            return ols_theta(st_r)
        if name == "pretrain":
            return theta_p
        if name == "ols":
            return ols_theta(st_sub)
        if name == "uls":
            if forget.n == 0:
                return theta_p
            return uls_theta(theta_p, w.omega_f, w.omega_r, st_sub, st_f)
        if name == "uls+":
            if forget.n == 0:
                return theta_p
            return uls_plus_theta(
                theta_p, w.omega_f, w.omega_r, st_sub, st_f, pick_lambda(name)
            )
        if name == "graddiff":
            return graddiff_theta(st_sub, st_f, pick_lambda(name))
        if name == "tl":
            return transfer_ridge_theta(theta_p, st_sub, pick_lambda(name))
        return gd_unlearn(SQUARED, model, forget, sub, GdConfig()).theta

    records = []
    for name in cfg.methods:
        start = time.perf_counter()
        covered = None
        sd_hat = None
        try:
            theta = fit(name)
            error = float(np.linalg.norm(theta - theta_r))
            if name in CI_METHODS:
                report = (
                    ci_uls(model, forget, sub, v, cfg.alpha)
                    if name == "uls"
                    else ci_ols(sub, v, cfg.alpha)
                )
                covered = report.ci_lo <= truth <= report.ci_hi
                sd_hat = float(np.sqrt(report.variance))
        except UlsError:
            error = None
        millis = (time.perf_counter() - start) * 1e3
        records.append(
            RepRecord(
                rep=rep,
                method=name,
                error=error,
                covered=covered,
                sd_hat=sd_hat,
                millis=millis,
            )
        )
    return records


def run_experiment(cfg: SimConfig, threads: int | None = None):
    """Run all replications; returns (records, summary).

    ``threads`` sizes the worker pool (defaults to the machine's CPU count);
    the output is byte-identical for every choice because each replication
    derives its randomness from its own index.
    """
    truth_rng = RngStream(cfg.seed, 0)
    theta_r, theta_f = draw_truth(cfg, truth_rng)
    oracle = _oracle_lambdas(cfg)
    workers = threads if threads and threads > 0 else (cpu_count() or 1)
    workers = min(workers, cfg.reps)

    per_rep: list = [None] * cfg.reps
    if workers <= 1:
        for rep in range(cfg.reps):
            per_rep[rep] = _run_rep(cfg, rep, theta_r, theta_f, oracle)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_run_rep, cfg, rep, theta_r, theta_f, oracle): rep
                for rep in range(cfg.reps)
            }
            for future, rep in futures.items():
                per_rep[rep] = future.result()
    records = [record for chunk in per_rep for record in chunk]
    return records, summarize(cfg, records)


def summarize(cfg: SimConfig, records) -> SimSummary:
    methods = {}
    for name in cfg.methods:
        rows = [r for r in records if r.method == name]
        errors = np.array([r.error for r in rows if r.error is not None])
        agg = {
            "n_ok": int(errors.size),
            "n_failed": int(len(rows) - errors.size),
        }
        if errors.size:
            q1, med, q3 = np.percentile(errors, [25.0, 50.0, 75.0])
            agg.update(
                mean_error=float(errors.mean()),
                median_error=float(med),
                q1_error=float(q1),
                q3_error=float(q3),
            )
        covers = [r.covered for r in rows if r.covered is not None]
        if covers:
            coverage = float(np.mean(covers))
            agg["coverage"] = coverage
            agg["coverage_se"] = float(
                np.sqrt(coverage * (1.0 - coverage) / len(covers))
            )
            agg["mean_sd"] = float(
                np.mean([r.sd_hat for r in rows if r.sd_hat is not None])
            )
        agg["mean_millis"] = float(np.mean([r.millis for r in rows]))
        methods[name] = agg
    config = asdict(cfg)
    config["methods"] = list(config["methods"])
    return SimSummary(config=config, methods=methods)


def write_records(records, path, include_timing: bool = False) -> None:
    """Records CSV with columns rep,method,error,covered,sd_hat,millis.

    Timing is filled only on request so that default outputs are
    byte-reproducible across runs and worker counts.
    """

    def fmt(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "1" if value else "0"
        return format(value, ".17g")

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("rep,method,error,covered,sd_hat,millis\n")
        for r in records:
            millis = fmt(r.millis) if include_timing else ""
            fh.write(
                f"{r.rep},{r.method},{fmt(r.error)},{fmt(r.covered)},"
                f"{fmt(r.sd_hat)},{millis}\n"
            )


def write_summary(summary: SimSummary, path, include_timing: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary.to_json_dict(include_timing), fh, indent=2, sort_keys=True)
        fh.write("\n")
