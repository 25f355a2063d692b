"""Synthetic data generators, Monte Carlo driver, and summary metrics.

The generator draws remaining covariates from N(0, I), forget covariates
from N(0, AR(rho)) with entries rho**|j-k|, unit-variance Gaussian noise on
both responses, and shifts the forget coefficients by delta along the
normalized all-ones direction so that ||theta_f - theta_r|| = delta exactly.

A replication needs the forget set only through its statistics X_f'X_f and
X_f'y_f, and the remaining set through its statistics plus a uniform
subsample of its rows. Since a uniform subsample of iid rows is itself iid,
:func:`draw_rep_stats` draws the n_sub subsample rows explicitly, and the
forget rows and the other n_r - n_sub remaining rows only through their Gram
matrices (Wishart draws by the Bartlett decomposition) and cross-moments.
That is exact in distribution and costs O(n_sub p + p^2) normals instead of
O((n_r + n_f) p). :func:`generate_rep` still draws every row, for checks
that need them.

Every replication owns child random streams keyed by its index, so its
results do not depend on which replications ran before it or on which
process runs it, and the truth vector is drawn once per experiment unless
per-rep redraws are requested. :func:`run_experiment` can therefore split the
replications into contiguous chunks and run all but the first in forked
worker processes. Each method runs through :func:`run_method`, which
``uls bench`` shares, so a method fails the same way in a simulation and in
a bench. A draw beyond the double range (a huge delta) fails as one named
error, and :func:`write_records` writes through ``data_model.save_table``.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .data_model import (
    Dataset,
    PretrainedModel,
    SufficientStats,
    compute_stats,
    save_table,
    subsample,
)
from .errors import EmptyDataset, UlsError
from .estimators import SOLVERS, Problem, forget_stats, ols_theta
from .inference import INTERVALS, check_alpha
from .numerics import (
    RngStream,
    ar1_covariance,
    bartlett_factor,
    blas_single_threaded,
    cholesky,
    safe_norm,
    sample_gaussian,
)
from .tuning import CV_FOLDS, CV_GRID_HI, CV_GRID_LO, CV_GRID_SIZE, cv_select, search_spec

# the retrain and pretrain references, then every unlearner of the table;
# those with an entry in INTERVALS also record CI coverage and sd
METHODS = ("retrain", "pretrain", *SOLVERS)


def check_methods(names) -> tuple[str, ...]:
    """``names`` as a tuple, each one of :data:`METHODS` and named once."""
    names = tuple(names)
    for name in names:
        if name not in METHODS:
            raise ValueError(f"unknown method {name!r}; expected {METHODS}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"method named more than once: {', '.join(repeated)}")
    return names


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
    cv_folds: int = CV_FOLDS
    cv_grid_size: int = CV_GRID_SIZE
    cv_grid_lo: float = CV_GRID_LO
    cv_grid_hi: float = CV_GRID_HI

    def __post_init__(self):
        if not 0.0 < self.subsample_ratio <= 1.0:
            raise ValueError("subsample_ratio must lie in (0, 1]")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.n_r < 1 or self.p < 1 or self.n_f < 0:
            raise ValueError("invalid sample sizes")
        if not 0.0 <= self.delta < np.inf:
            raise ValueError(f"delta must be >= 0 and finite, got {self.delta}")
        if not 1 <= self.v_direction <= self.p:
            raise ValueError("v_direction must index a coordinate (1-based)")
        check_alpha(self.alpha)
        object.__setattr__(self, "methods", check_methods(self.methods))

    @property
    def n_sub(self) -> int:
        return max(1, int(round(self.subsample_ratio * self.n_r)))

    @cached_property
    def ar_factor(self) -> np.ndarray:
        """Factor of the forget design's AR(rho) covariance, once per experiment."""
        return cholesky(ar1_covariance(self.p, self.rho_f))


@dataclass(frozen=True)
class RepRecord:
    rep: int
    method: str
    error: float | None
    covered: bool | None
    sd_hat: float | None
    millis: float
    failure: tuple[str, str] | None = None  # (error class, message); not written


@dataclass(frozen=True)
class SimSummary:
    config: dict
    methods: dict

    def to_json_dict(self, include_timing: bool = False) -> dict:
        methods = {name: {key: value for key, value in agg.items()
                          if include_timing or key != "mean_millis"}
                   for name, agg in self.methods.items()}
        return {"config": self.config, "methods": methods}


def draw_truth(cfg: SimConfig, rng: RngStream):
    """theta_r ~ N(0, I_p); theta_f shifted by delta along ones/sqrt(p)."""
    theta_r = rng.standard_normal(cfg.p)
    theta_f = theta_r + cfg.delta / np.sqrt(cfg.p)
    return theta_r, theta_f


def _with_response(x, theta, rng: RngStream, role: str) -> Dataset:
    """Rows x with responses x @ theta plus unit-variance Gaussian noise."""
    return Dataset(x, x @ theta + rng.standard_normal(x.shape[0]), role)


def generate_rep(cfg: SimConfig, theta_r, theta_f, rng: RngStream):
    """One replication's (remaining, forget, subsample) datasets, row by row."""
    x_r = rng.standard_normal((cfg.n_r, cfg.p))
    remaining = _with_response(x_r, theta_r, rng, "remaining")
    x_f = sample_gaussian(rng, cfg.ar_factor, cfg.n_f)
    forget = _with_response(x_f, theta_f, rng, "forget")
    sub = subsample(remaining, cfg.n_sub, rng)
    return remaining, forget, sub


def _draw_stats(rng: RngStream, n: int, lower, theta) -> SufficientStats:
    """Statistics of n rows x ~ N(0, L L'), L = ``lower``, with responses
    x theta plus unit-variance noise. X = Z L' with Z'Z ~ Wishart(n, I) = A A'
    (a Bartlett factor A), so X'X = (L A)(L A)' and X'eps = L A z given X'X;
    with n < p there is no Bartlett draw, and the rows are drawn."""
    p = theta.shape[0]
    if n == 0:
        return forget_stats(None, p)
    if n < p:
        x = sample_gaussian(rng, lower, n)
        gram, cross = x.T @ x, x.T @ (x @ theta + rng.standard_normal(n))
    else:
        a = lower @ bartlett_factor(rng, n, p)
        gram = a @ a.T
        cross = gram @ theta + a @ rng.standard_normal(p)
    return SufficientStats(sigma=gram / n, m=cross / n, n=n)


def draw_rep_stats(cfg: SimConfig, theta_r, theta_f, rng: RngStream):
    """One replication as (st_r, st_sub, st_f, sub).

    Equal in law to :func:`generate_rep` followed by ``compute_stats``. Only
    the subsample rows are drawn; the forget rows (AR(rho) covariance) and the
    other n_r - n_sub remaining rows (covariance I) are drawn as statistics.
    """
    # an overflow is reported once, by SufficientStats or Dataset, as a named error
    with np.errstate(over="ignore", invalid="ignore"):
        x_sub = rng.standard_normal((cfg.n_sub, cfg.p))
        sub = _with_response(x_sub, theta_r, rng, "subsample")
        st_sub = compute_stats(sub)
        st_f = _draw_stats(rng, cfg.n_f, cfg.ar_factor, theta_f)
        df = cfg.n_r - cfg.n_sub
        if df == 0:
            return st_sub, st_sub, st_f, sub
        return st_sub + _draw_stats(rng, df, np.eye(cfg.p), theta_r), st_sub, st_f, sub


def mpe(theta, test: Dataset) -> float:
    """Mean squared prediction error of theta on a held-out set."""
    if test.n == 0:
        raise EmptyDataset("cannot score predictions on an empty test set")
    r = test.y - test.x @ np.asarray(theta, dtype=np.float64)
    with np.errstate(over="ignore"):  # an error beyond the double range is inf
        return float(r @ r) / test.n


def _oracle_lambdas(cfg: SimConfig) -> dict:
    """Theory-guided tuning weights, available because delta is known here."""
    n = cfg.n_r + cfg.n_f
    w = PretrainedModel(np.zeros(cfg.p), n, cfg.n_r, cfg.n_f)  # its weights alone
    lam_max_f = float(np.linalg.eigvalsh(ar1_covariance(cfg.p, cfg.rho_f))[-1])
    rules = {
        "uls+": w.omega_r * w.omega_f * cfg.delta,
        "tl": np.sqrt(cfg.p / cfg.n_sub)
        / (np.sqrt(cfg.p / n) + w.omega_f * cfg.delta),
    }
    if cfg.n_f > 0:
        convexity_floor = 2.0 * lam_max_f  # population remaining covariance is I
        rules["graddiff"] = max(
            np.sqrt((cfg.n_sub / cfg.n_r) / w.omega_f)
            + math.sqrt(cfg.n_sub / cfg.p) * cfg.delta,  # a float: inf, no warning
            convexity_floor,
        )
    else:
        rules["graddiff"] = 2.0 * lam_max_f
    return rules


def pooled_problem(st_r, st_sub, st_f, sub: Dataset) -> Problem:
    """The problem of a model fitted by least squares on ``st_r + st_f``, the
    pooled remaining and forget statistics; ``st_sub`` are those of ``sub``.
    It holds no forget rows, which only logistic gradient descent reads."""
    model = PretrainedModel(
        theta_p=ols_theta(st_r + st_f),
        n_total=st_r.n + st_f.n,
        n_remaining=st_r.n,
        n_forget=st_f.n,
    )
    return Problem(model=model, st_sub=st_sub, st_f=st_f, sub=sub)


def run_method(name: str, pb: Problem, st_r, spec, cv_rng, oracle, score,
               interval=None, rep: int = 0) -> RepRecord:
    """Fit and time one method of :data:`METHODS`; its record's ``error`` is
    ``score(theta)``. retrain is least squares on the remaining statistics
    ``st_r``, pretrain the model's own fit, and every other name a solver of
    the table, a tuned one with its lambda from ``oracle[name]`` when ``spec``,
    the CV search, is None, else from ``cv_select`` on ``cv_rng``'s folds.
    With ``interval = (v, truth, alpha)``, a method of :data:`INTERVALS` also
    records its sd and whether its interval for v'theta covers ``truth``. A
    ``UlsError`` or ``ValueError`` of the search, fit or interval is kept as
    ``failure``: a failed fit blanks every cell, a failed interval its own."""
    start = time.perf_counter()
    error = covered = sd_hat = failure = None
    try:
        if name in SOLVERS:
            solver = SOLVERS[name]
            lam = None
            if solver.tuned:
                lam = oracle[name] if spec is None else cv_select(name, pb, spec, cv_rng)[0]
            theta = solver.theta(pb, lam)
        else:
            theta = ols_theta(st_r) if name == "retrain" else pb.theta_p
        error = score(theta)
        if interval is not None and name in INTERVALS:
            v, truth, alpha = interval
            report = INTERVALS[name](pb, theta, v, alpha)
            covered = report.ci_lo <= truth <= report.ci_hi
            sd_hat = float(np.sqrt(report.variance))
    except (UlsError, ValueError) as exc:
        failure = (type(exc).__name__, str(exc))
    millis = (time.perf_counter() - start) * 1e3
    return RepRecord(rep, name, error, covered, sd_hat, millis, failure)


def _run_rep(cfg: SimConfig, rep: int, theta_r, theta_f, oracle, spec) -> list:
    """One replication's records, each method scored by its distance to theta_r."""
    data_rng = RngStream(cfg.seed, 1 + 2 * rep)
    cv_rng = RngStream(cfg.seed, 2 + 2 * rep)
    if cfg.redraw_truth:
        theta_r, theta_f = draw_truth(cfg, data_rng)
    st_r, st_sub, st_f, sub = draw_rep_stats(cfg, theta_r, theta_f, data_rng)
    pb = pooled_problem(st_r, st_sub, st_f, sub)
    v_idx = cfg.v_direction - 1
    v = np.zeros(cfg.p)
    v[v_idx] = 1.0
    interval = (v, float(theta_r[v_idx]), cfg.alpha)

    def score(theta):
        return safe_norm(theta - theta_r)

    return [run_method(name, pb, st_r, spec, cv_rng, oracle, score, interval, rep)
            for name in cfg.methods]


def available_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(threads, reps: int) -> int:
    """Processes for ``reps`` replications when ``threads`` are asked for:
    None or 0 asks for every available CPU, and the count never exceeds the
    available CPUs or ``reps``."""
    if threads is not None and threads < 0:
        raise ValueError(f"the worker count must be a non-negative integer, got {threads}")
    cpus = available_cpus()
    return min(threads or cpus, cpus, reps)


def _child(fn, chunk, reader, writer) -> None:
    """In a forked child: send ``fn(chunk)``, or the exception it raised,
    pickled through the pipe end ``writer``, and leave the process without
    running any exit handler. If even that fails, the parent reads nothing."""
    try:
        os.close(reader)
        try:
            payload = pickle.dumps((True, fn(chunk)))
        except BaseException as exc:
            payload = pickle.dumps((False, exc))
        with open(writer, "wb") as fh:
            fh.write(payload)
    finally:
        os._exit(0)


def _forked_map(fn, chunks) -> list:
    """``[fn(chunk) for chunk in chunks]``, each chunk after the first in a
    forked child that sends its pickled result back through a pipe. A child's
    exception is raised here with its type. If anything goes wrong, every
    child not yet waited for is killed and waited for before the error
    propagates."""
    children = []  # (pid, read end of its pipe) of each child not yet waited for
    try:
        for chunk in chunks[1:]:
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(reader)
                os.close(writer)
                raise
            if pid == 0:
                _child(fn, chunk, reader, writer)
            os.close(writer)
            children.append((pid, open(reader, "rb")))
        results = [fn(chunks[0])]
        while children:
            pid, fh = children[0]
            with fh:  # to EOF before waiting: a result can outgrow the pipe buffer
                payload = fh.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            if not payload:
                raise ChildProcessError(
                    f"simulation worker {pid} ended without its records (status {status})")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        if children:
            import signal  # only a failed or interrupted run gets here

            for pid, fh in children:
                fh.close()
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):  # already reaped
                    pass


def run_experiment(cfg: SimConfig, workers: int = 1):
    """Run all replications; returns (records, summary), records in rep order.

    ``workers`` processes share the replications, capped by
    :func:`worker_count` (so 0 or None means every available CPU). The
    replications are cut into that many contiguous chunks: this process runs
    the first and a forked child each other one. With one worker, or where
    ``os.fork`` is missing, they all run here. Records and summary are the
    same for every worker count, since each replication draws from streams
    keyed by its index.
    """
    truth_rng = RngStream(cfg.seed, 0)
    theta_r, theta_f = draw_truth(cfg, truth_rng)
    oracle = _oracle_lambdas(cfg)
    spec = None if cfg.oracle_lambda else search_spec(
        cfg.methods, cfg.cv_folds, cfg.cv_grid_lo, cfg.cv_grid_hi, cfg.cv_grid_size)

    def run(reps) -> list:
        # BLAS single-threaded: on a replication's small matrices its own
        # threads mostly spin
        with blas_single_threaded():
            return [record for rep in reps
                    for record in _run_rep(cfg, rep, theta_r, theta_f, oracle, spec)]

    workers = worker_count(workers, cfg.reps) if hasattr(os, "fork") else 1
    chunks = [range(cfg.reps * k // workers, cfg.reps * (k + 1) // workers)
              for k in range(workers)]
    records = [record for part in _forked_map(run, chunks) for record in part]
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
    byte-reproducible across runs.
    """
    rows = ((r.rep, r.method, r.error, r.covered, r.sd_hat,
             r.millis if include_timing else None) for r in records)
    save_table(("rep", "method", "error", "covered", "sd_hat", "millis"), rows, path)
