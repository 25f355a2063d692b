"""Fitting and unlearning procedures.

All closed forms are expressed through normalized sufficient statistics. With
sigma_sub = X_sub'X_sub/n_sub, m_sub = X_sub'y_sub/n_sub (likewise sigma_f,
m_f over the forget rows) and the weights omega_f = Nf/N, omega_r = Nr/N from
the pretrained model, the estimators solve:

    uls:    omega_r sigma_sub theta = sigma_mix theta_p - omega_f m_f
    uls+:   (omega_r + lam) sigma_sub theta
                = sigma_mix theta_p + lam m_sub - omega_f m_f
    gdiff:  (lam sigma_sub - sigma_f) theta = lam m_sub - m_f
    ridge:  (sigma_sub + lam I) theta = m_sub + lam theta_p

where sigma_mix = omega_r sigma_sub + omega_f sigma_f. The first line is the
bias-corrected least squares update theta_p + (omega_f/omega_r)
sigma_sub^{-1} (sigma_f theta_p - m_f); the others are its robustified,
ascent/descent, and ridge-anchored counterparts. Each fit reports the norm of
its own objective gradient at the solution as a stationarity certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import (
    Dataset,
    PretrainedModel,
    SufficientStats,
    compute_stats,
)
from .errors import (
    DimensionMismatch,
    Diverged,
    IndefiniteObjective,
    NotConverged,
    NotPositiveDefinite,
    SingularGram,
)
from .loss import LossFn, loss_grad, loss_value
from .numerics import cholesky, max_eigenvalue, spd_solve

_DIVERGE_FACTOR = 1e8


@dataclass(frozen=True)
class EstimateResult:
    """A fitted coefficient vector plus fit diagnostics."""

    theta: np.ndarray
    method: str
    iterations: int = 0
    lambda_used: float | None = None
    grad_residual: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "theta": [float(v) for v in self.theta],
            "method": self.method,
            "iterations": self.iterations,
            "lambda_used": self.lambda_used,
            "grad_residual": self.grad_residual,
        }


@dataclass(frozen=True)
class GdConfig:
    """Gradient-descent controls; alpha=None picks the spectral default."""

    alpha: float | None = None
    t_max: int = 10_000
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.alpha is not None and self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.grad_tol <= 0.0:
            raise ValueError("grad_tol must be positive")


def _spd_factor(sigma):
    try:
        return cholesky(sigma)
    except NotPositiveDefinite as exc:
        raise SingularGram(str(exc)) from None


def _check_dims(model: PretrainedModel, *datasets: Dataset) -> None:
    for d in datasets:
        if d.p != model.p:
            raise DimensionMismatch(
                f"dataset has p={d.p}, model has p={model.p}"
            )


def _zero_stats(p: int) -> SufficientStats:
    return SufficientStats(sigma=np.zeros((p, p)), m=np.zeros(p), n=0)


def _forget_stats(forget: Dataset) -> SufficientStats:
    return compute_stats(forget) if forget.n else _zero_stats(forget.p)


# ---------------------------------------------------------------------------
# Closed forms on sufficient statistics (shared by the dataset-level API,
# cross-validation, and the simulation harness)
# ---------------------------------------------------------------------------

def ols_theta(stats: SufficientStats) -> np.ndarray:
    return spd_solve(_spd_factor(stats.sigma), stats.m)


def uls_theta(theta_p, omega_f, omega_r, st_sub, st_f) -> np.ndarray:
    factor = _spd_factor(st_sub.sigma)
    correction = spd_solve(factor, st_f.sigma @ theta_p - st_f.m)
    return theta_p + (omega_f / omega_r) * correction


def uls_plus_theta(theta_p, omega_f, omega_r, st_sub, st_f, lam) -> np.ndarray:
    factor = _spd_factor(st_sub.sigma)
    sigma_mix_theta = omega_r * (st_sub.sigma @ theta_p) + omega_f * (
        st_f.sigma @ theta_p
    )
    rhs = sigma_mix_theta + lam * st_sub.m - omega_f * st_f.m
    return spd_solve(factor, rhs) / (omega_r + lam)


def graddiff_theta(st_sub, st_f, lam) -> np.ndarray:
    a = lam * st_sub.sigma - st_f.sigma
    try:
        factor = cholesky(a)
    except NotPositiveDefinite as exc:
        raise IndefiniteObjective(
            f"lam={lam:g} is below the convexity threshold: {exc}"
        ) from None
    return spd_solve(factor, lam * st_sub.m - st_f.m)


def transfer_ridge_theta(theta_p, st_sub, lam) -> np.ndarray:
    a = st_sub.sigma + lam * np.eye(st_sub.sigma.shape[0])
    return spd_solve(cholesky(a), st_sub.m + lam * theta_p)


# ---------------------------------------------------------------------------
# Dataset-level estimators
# ---------------------------------------------------------------------------

def ols_fit(d: Dataset, method: str = "ols") -> EstimateResult:
    """Ordinary least squares via the normal equations."""
    stats = compute_stats(d)
    if d.n < d.p:
        raise SingularGram(f"n={d.n} rows cannot identify p={d.p} coefficients")
    theta = ols_theta(stats)
    residual = float(np.linalg.norm(stats.m - stats.sigma @ theta))
    return EstimateResult(theta=theta, method=method, grad_residual=residual)


def uls(model: PretrainedModel, forget: Dataset, sub: Dataset) -> EstimateResult:
    """Bias-corrected least-squares unlearning of the forget set.

    An empty forget set is a no-op: the pretrained coefficients are returned
    unchanged.
    """
    if model.loss_id != "squared":
        raise ValueError("uls requires a squared-loss pretrained model")
    _check_dims(model, forget, sub)
    if forget.n == 0:
        return EstimateResult(
            theta=model.theta_p.copy(), method="uls", grad_residual=0.0
        )
    w = model.weights()
    st_sub = compute_stats(sub)
    st_f = compute_stats(forget)
    theta = uls_theta(model.theta_p, w.omega_f, w.omega_r, st_sub, st_f)
    residual = float(
        np.linalg.norm(_uls_objective_grad(theta, model, st_sub, st_f))
    )
    return EstimateResult(theta=theta, method="uls", grad_residual=residual)


def _uls_objective_grad(theta, model, st_sub, st_f) -> np.ndarray:
    w = model.weights()
    gap = model.theta_p - theta
    sigma_mix_gap = w.omega_r * (st_sub.sigma @ gap) + w.omega_f * (st_f.sigma @ gap)
    return 2.0 * w.omega_f * (st_f.m - st_f.sigma @ theta) - 2.0 * sigma_mix_gap


def uls_objective_grad(
    theta, model: PretrainedModel, forget: Dataset, sub: Dataset
) -> np.ndarray:
    """Gradient of the unlearning objective

        -(omega_f / n_f) * loss(theta; forget)
            + (theta_p - theta)' sigma_mix (theta_p - theta)

    whose unique stationary point is the closed-form :func:`uls` output.
    """
    _check_dims(model, forget, sub)
    theta = np.asarray(theta, dtype=np.float64)
    return _uls_objective_grad(theta, model, compute_stats(sub), _forget_stats(forget))


def uls_plus(
    model: PretrainedModel, forget: Dataset, sub: Dataset, lam: float
) -> EstimateResult:
    """Unlearning with an extra retain-loss term weighted by lam >= 0.

    lam = 0 reduces to :func:`uls`; an empty forget set is again a no-op.
    """
    if model.loss_id != "squared":
        raise ValueError("uls_plus requires a squared-loss pretrained model")
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    _check_dims(model, forget, sub)
    if forget.n == 0:
        return EstimateResult(
            theta=model.theta_p.copy(),
            method="uls+",
            lambda_used=float(lam),
            grad_residual=0.0,
        )
    w = model.weights()
    st_sub = compute_stats(sub)
    st_f = compute_stats(forget)
    theta = uls_plus_theta(model.theta_p, w.omega_f, w.omega_r, st_sub, st_f, lam)
    grad = _uls_objective_grad(theta, model, st_sub, st_f) + 2.0 * lam * (
        st_sub.sigma @ theta - st_sub.m
    )
    return EstimateResult(
        theta=theta,
        method="uls+",
        lambda_used=float(lam),
        grad_residual=float(np.linalg.norm(grad)),
    )


def graddiff(
    model: PretrainedModel, forget: Dataset, sub: Dataset, lam: float
) -> EstimateResult:
    """Forget-loss ascent balanced against retain-loss descent with weight lam.

    Requires lam * sigma_sub - sigma_f to be positive definite; otherwise the
    objective is unbounded below and :class:`IndefiniteObjective` is raised.
    """
    if model.loss_id != "squared":
        raise ValueError("graddiff requires a squared-loss pretrained model")
    _check_dims(model, forget, sub)
    st_sub = compute_stats(sub)
    st_f = _forget_stats(forget)
    theta = graddiff_theta(st_sub, st_f, lam)
    grad = 2.0 * (st_f.m - st_f.sigma @ theta) + 2.0 * lam * (
        st_sub.sigma @ theta - st_sub.m
    )
    return EstimateResult(
        theta=theta,
        method="graddiff",
        lambda_used=float(lam),
        grad_residual=float(np.linalg.norm(grad)),
    )


def transfer_ridge(
    model: PretrainedModel, sub: Dataset, lam: float
) -> EstimateResult:
    """Least squares on the subsample, ridge-anchored to the pretrained fit."""
    if lam <= 0.0:
        raise ValueError(f"lam must be > 0, got {lam}")
    _check_dims(model, sub)
    st_sub = compute_stats(sub)
    theta = transfer_ridge_theta(model.theta_p, st_sub, lam)
    grad = 2.0 * (st_sub.sigma @ theta - st_sub.m) + 2.0 * lam * (
        theta - model.theta_p
    )
    return EstimateResult(
        theta=theta,
        method="tl",
        lambda_used=float(lam),
        grad_residual=float(np.linalg.norm(grad)),
    )


def default_step_size(f: LossFn, model: PretrainedModel, sub: Dataset) -> float:
    """Step size inside the convergent range for :func:`gd_unlearn`.

    The retain term's curvature is bounded by 2 Nr Lmax(sigma_sub) for the
    squared loss and by Nr Lmax(sigma_sub) / 4 for the logistic loss; the
    returned step keeps the iteration map a strict contraction either way.
    Lmax is computed exactly from the symmetric eigenvalues of sigma_sub.
    """
    st = compute_stats(sub)
    lam_max = max_eigenvalue(st.sigma)
    if lam_max <= 0.0:
        raise SingularGram("subsample Gram matrix has no positive spectrum")
    if f.loss_id == "squared":
        return 0.9 / (model.n_remaining * lam_max)
    return 3.6 / (model.n_remaining * lam_max)


def gd_unlearn(
    f: LossFn,
    model: PretrainedModel,
    forget: Dataset,
    sub: Dataset,
    cfg: GdConfig = GdConfig(),
    callback=None,
) -> EstimateResult:
    """Generic-loss unlearning by gradient descent from the pretrained fit.

    Starting at theta_p, iterates

        theta <- theta - alpha * [ (Nr/n_sub) grad(theta; sub)
                                   - (Nr/n_sub) grad(theta_p; sub)
                                   - grad(theta_p; forget) ]

    and stops when the bracketed residual norm drops to grad_tol * (1 +
    ||theta_p||) or after t_max steps. For the squared loss the fixed point
    is exactly the closed-form :func:`uls` output. ``callback(t, theta)``
    observes each iterate.
    """
    if f.loss_id != model.loss_id:
        raise ValueError(
            f"loss {f.loss_id!r} does not match model loss {model.loss_id!r}"
        )
    _check_dims(model, forget, sub)
    theta_p = model.theta_p
    scale = 1.0 + float(np.linalg.norm(theta_p))
    ratio = model.n_remaining / sub.n
    anchor = ratio * loss_grad(f, theta_p, sub) + loss_grad(f, theta_p, forget)
    alpha = cfg.alpha if cfg.alpha is not None else default_step_size(f, model, sub)

    theta = theta_p.copy()
    iterations = cfg.t_max
    residual = np.inf
    for t in range(cfg.t_max + 1):
        g = ratio * loss_grad(f, theta, sub) - anchor
        residual = float(np.linalg.norm(g))
        if residual <= cfg.grad_tol * scale or t == cfg.t_max:
            iterations = t
            break
        theta = theta - alpha * g
        if np.linalg.norm(theta) > _DIVERGE_FACTOR * scale:
            raise Diverged(
                f"iterate norm exceeded {_DIVERGE_FACTOR:g} * (1 + ||theta_p||);"
                " reduce the step size"
            )
        if callback is not None:
            callback(t + 1, theta)
    return EstimateResult(
        theta=theta, method="gd", iterations=iterations, grad_residual=residual
    )


def pretrain(
    f: LossFn, full: Dataset, n_forget: int = 0, t_max: int = 10_000
) -> PretrainedModel:
    """Fit the full-data model; the caller states how many rows are forget rows.

    Squared loss solves the normal equations. Logistic loss runs gradient
    descent with Armijo backtracking until the gradient norm reaches
    1e-8 * n, raising :class:`NotConverged` at the iteration cap (which is
    what perfectly separable data produces).
    """
    if not 0 <= n_forget < full.n:
        raise ValueError(f"n_forget={n_forget} must lie in [0, n={full.n})")
    if f.loss_id == "squared":
        theta = ols_fit(full).theta
    else:
        theta = _fit_logistic(f, full, t_max)
    return PretrainedModel(
        theta_p=theta,
        n_total=full.n,
        n_remaining=full.n - n_forget,
        n_forget=n_forget,
        loss_id=f.loss_id,
    )


def _fit_logistic(f: LossFn, d: Dataset, t_max: int) -> np.ndarray:
    tol = 1e-8 * d.n
    theta = np.zeros(d.p)
    value = loss_value(f, theta, d)
    for _ in range(t_max):
        g = loss_grad(f, theta, d)
        gnorm2 = float(g @ g)
        if np.sqrt(gnorm2) <= tol:
            return theta
        step = 1.0
        for _ in range(200):
            trial = theta - step * g
            trial_value = loss_value(f, trial, d)
            if trial_value <= value - 1e-4 * step * gnorm2:
                break
            step *= 0.5
        else:
            raise NotConverged("backtracking line search stalled")
        theta, value = trial, trial_value
    raise NotConverged(
        f"gradient norm still above {tol:.3e} after {t_max} iterations"
        " (is the data separable?)"
    )
