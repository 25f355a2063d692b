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

:func:`prepare` forms these statistics once into a :class:`Problem`, and the
:data:`SOLVERS` table maps each method name to its solver on a problem. The
table is the one place a method is dispatched: the dataset-level functions
below, cross-validation, the simulation harness and the CLI all go through
it. A tuned solver also has a path, which solves a whole grid of lam with
one factorization or eigendecomposition:

    uls+:   theta(lam) = (a + lam b) / (omega_r + lam), where
            sigma_sub a = sigma_mix theta_p - omega_f m_f, sigma_sub b = m_sub
    ridge:  theta(lam) = Q (diag(1/(d+lam)) Q'm_sub + diag(lam/(d+lam)) Q'theta_p),
            where sigma_sub = Q diag(d) Q'
    gdiff:  theta(lam) = V (diag(lam/(lam-mu)) V'm_sub - diag(1/(lam-mu)) V'm_f),
            where sigma_f V = sigma_sub V diag(mu) and V' sigma_sub V = I

The ridge and GradDiff paths hold lam only in bounded ratios, so no finite
lam overflows them. GradDiff's objective is bounded below iff lam > mu_max;
its path alone decides, by lam - mu_max > PIVOT_FLOOR * lam. The uls+ and
GradDiff fits are their path's column at one lam, where a NaN column is an
:class:`IndefiniteObjective`. The ridge fit keeps its Cholesky solve, whose
error, unlike the eigendecomposition's, is invariant to column scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .data_model import (
    Dataset,
    PretrainedModel,
    SufficientStats,
    WeightProfile,
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
from .loss import LossFn, get_loss, loss_grad, loss_value
from .numerics import (
    PIVOT_FLOOR,
    SpdFactor,
    cholesky,
    finite_solution,
    max_eigenvalue,
    pencil_eigh,
    spd_solve,
)

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


def _spd_factor(st: SufficientStats) -> SpdFactor:
    """Cholesky factor of a Gram matrix; a singular one is a SingularGram."""
    p = st.m.shape[0]
    if st.n < p:
        raise SingularGram(f"n={st.n} rows cannot identify p={p} coefficients")
    try:
        return cholesky(st.sigma)
    except NotPositiveDefinite as exc:
        raise SingularGram(str(exc)) from None


def _check_dims(model: PretrainedModel, *datasets: Dataset) -> None:
    for d in datasets:
        if d.p != model.p:
            raise DimensionMismatch(
                f"dataset has p={d.p}, model has p={model.p}"
            )


def forget_stats(forget: Dataset | None, p: int) -> SufficientStats:
    """Statistics of the forget rows; all zeros when there are none."""
    if forget is not None and forget.n:
        return compute_stats(forget)
    return SufficientStats(sigma=np.zeros((p, p)), m=np.zeros(p), n=0)


# ---------------------------------------------------------------------------
# The prepared problem and the solver table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    """One unlearning problem with its statistics formed once.

    ``model`` is None when only the subsample matters (OLS and its
    interval). ``sub`` and ``forget`` are the rows behind the statistics,
    which gradient descent, the interval noise terms and the
    cross-validation folds read; a fold problem has no ``sub``. The
    subsample Cholesky factor, and GradDiff's pencil reduced through it, are
    computed on first use and then shared. They are lazy because the ridge
    solver never needs them and must work when n_sub < p.
    """

    model: PretrainedModel | None
    st_sub: SufficientStats
    st_f: SufficientStats
    sub: Dataset | None = None
    forget: Dataset | None = None
    gd: GdConfig = GdConfig()

    @property
    def theta_p(self) -> np.ndarray:
        return self.model.theta_p

    @cached_property
    def w(self) -> WeightProfile:
        return self.model.weights()

    @cached_property
    def sub_factor(self) -> SpdFactor:
        return _spd_factor(self.st_sub)

    @cached_property
    def pencil(self) -> tuple[np.ndarray, np.ndarray]:
        """(mu, V): sigma_f V = sigma_sub V diag(mu), V' sigma_sub V = I. With
        sigma_sub singular, no lam is feasible for GradDiff, and mu is inf."""
        try:
            return pencil_eigh(self.sub_factor, self.st_f.sigma)
        except SingularGram:
            p = self.st_sub.m.shape[0]
            return np.full(p, np.inf), np.zeros((p, p))


def prepare(
    model: PretrainedModel | None,
    forget: Dataset | None,
    sub: Dataset,
    gd: GdConfig = GdConfig(),
) -> Problem:
    """Form the statistics of the subsample and the forget rows once."""
    if model is not None:
        _check_dims(model, *(d for d in (forget, sub) if d is not None))
    return Problem(
        model=model,
        st_sub=compute_stats(sub),
        st_f=forget_stats(forget, sub.p),
        sub=sub,
        forget=forget,
        gd=gd,
    )


def ols_theta(stats: SufficientStats) -> np.ndarray:
    return spd_solve(_spd_factor(stats), stats.m)


def _require_squared(pb: Problem, name: str) -> None:
    if pb.model.loss_id != "squared":
        raise ValueError(f"{name} requires a squared-loss pretrained model")


def _result(method: str, theta, grad, lam=None) -> EstimateResult:
    """A fit certified by the norm of its objective gradient at theta, rescaled
    where its squares overflow; a norm that is not finite is a ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(grad))
        if not math.isfinite(norm):
            top = np.max(np.abs(grad))
            norm = float(top * np.linalg.norm(grad / top))
    if not math.isfinite(norm):
        raise ValueError("the fit's gradient certificate overflows (lam too large?)")
    return EstimateResult(
        theta=theta,
        method=method,
        lambda_used=None if lam is None else float(lam),
        grad_residual=norm,
    )


def _uls_objective_grad(theta, pb: Problem) -> np.ndarray:
    w, st_sub, st_f = pb.w, pb.st_sub, pb.st_f
    gap = pb.theta_p - theta
    sigma_mix_gap = w.omega_r * (st_sub.sigma @ gap) + w.omega_f * (st_f.sigma @ gap)
    return 2.0 * w.omega_f * (st_f.m - st_f.sigma @ theta) - 2.0 * sigma_mix_gap


def _ols(pb: Problem, lam=None) -> EstimateResult:
    st = pb.st_sub
    theta = spd_solve(pb.sub_factor, st.m)
    return _result("ols", theta, st.m - st.sigma @ theta)


def _uls(pb: Problem, lam=None) -> EstimateResult:
    _require_squared(pb, "uls")
    if pb.st_f.n == 0:  # nothing to forget: a no-op
        return _result("uls", pb.theta_p.copy(), 0.0)
    st_f = pb.st_f
    correction = spd_solve(pb.sub_factor, st_f.sigma @ pb.theta_p - st_f.m)
    theta = pb.theta_p + (pb.w.omega_f / pb.w.omega_r) * correction
    return _result("uls", theta, _uls_objective_grad(theta, pb))


def _retain_grad(pb: Problem, theta) -> np.ndarray:
    return 2.0 * (pb.st_sub.sigma @ theta - pb.st_sub.m)


def _uls_plus_path(pb: Problem, lams: np.ndarray) -> np.ndarray:
    _require_squared(pb, "uls_plus")
    if np.any(lams < 0.0):
        raise ValueError(f"lam must be >= 0, got {lams.min():g}")
    w, st_sub, st_f, theta_p = pb.w, pb.st_sub, pb.st_f, pb.theta_p
    if st_f.n == 0:  # the no-op at every lam
        return np.repeat(theta_p[:, None], len(lams), axis=1)
    mix = w.omega_r * (st_sub.sigma @ theta_p) + w.omega_f * (st_f.sigma @ theta_p)
    rhs = np.column_stack([mix - w.omega_f * st_f.m, st_sub.m])
    a, b = spd_solve(pb.sub_factor, rhs).T
    with np.errstate(over="ignore", invalid="ignore"):  # finite_solution names it
        thetas = (a[:, None] + lams * b[:, None]) / (w.omega_r + lams)
    return finite_solution(thetas)


def _uls_plus_grad(pb: Problem, theta, lam):
    if pb.st_f.n == 0:  # the no-op, as for uls
        return 0.0
    return _uls_objective_grad(theta, pb) + lam * _retain_grad(pb, theta)


def graddiff_threshold(pb: Problem) -> float:
    """mu_max: the GradDiff objective is bounded below iff lam > mu_max; inf
    when the subsample Gram is singular, as then no lam is feasible."""
    return float(pb.pencil[0][-1])


def _graddiff_path(pb: Problem, lams: np.ndarray) -> np.ndarray:
    _require_squared(pb, "graddiff")
    mu, v = pb.pencil
    # lam sigma_sub - sigma_f = L (lam I - C) L': floor lam I - C's eigenvalues
    ok = lams - mu[-1] > PIVOT_FLOOR * lams
    gap = lams[ok] - mu[:, None]
    v_sub, v_f = (v.T @ np.column_stack([pb.st_sub.m, pb.st_f.m])).T
    coef = (lams[ok] / gap) * v_sub[:, None] - v_f[:, None] / gap
    thetas = np.full((len(mu), len(lams)), np.nan)
    thetas[:, ok] = finite_solution(v @ coef)
    return thetas


def _graddiff_grad(pb: Problem, theta, lam) -> np.ndarray:
    st_f = pb.st_f
    return 2.0 * (st_f.m - st_f.sigma @ theta) + lam * _retain_grad(pb, theta)


def _transfer_ridge(pb: Problem, lam) -> EstimateResult:
    if lam <= 0.0:
        raise ValueError(f"lam must be > 0, got {lam}")
    st_sub, theta_p = pb.st_sub, pb.theta_p
    s = max(1.0, lam)  # the system over s: nothing overflows; lam <= 1 keeps its bits
    a = st_sub.sigma / s + (lam / s) * np.eye(st_sub.sigma.shape[0])
    theta = spd_solve(cholesky(a), st_sub.m / s + (lam / s) * theta_p)
    grad = _retain_grad(pb, theta) + lam * (2.0 * (theta - theta_p))
    return _result("tl", theta, grad, lam)


def _transfer_ridge_path(pb: Problem, lams: np.ndarray) -> np.ndarray:
    d, q = np.linalg.eigh(pb.st_sub.sigma)
    shift = d[:, None] + lams
    q_m, q_theta_p = (q.T @ np.column_stack([pb.st_sub.m, pb.theta_p])).T
    coef = q_m[:, None] / shift + (lams / shift) * q_theta_p[:, None]
    return finite_solution(q @ coef)


def _gd(pb: Problem, lam=None) -> EstimateResult:
    f = get_loss(pb.model.loss_id)
    cfg = pb.gd
    if cfg.alpha is None:
        cfg = replace(cfg, alpha=_spectral_step(f, pb.model, pb.st_sub.sigma))
    return gd_unlearn(f, pb.model, pb.forget, pb.sub, cfg)


class Solver(NamedTuple):
    """``fit(problem, lam)`` gives a method's fit and its certificate.

    A ``tuned`` method takes a lambda picked by cross-validation; the others
    ignore ``lam``. A tuned method also has ``path(problem, lams)``: the p x L
    matrix whose columns are the coefficients of ``fit`` at the L ``lams``.
    A NaN column marks a lam at which the objective is unbounded below, where
    ``fit`` raises :class:`IndefiniteObjective`.
    """

    fit: Callable[[Problem, float | None], EstimateResult]
    path: Callable[[Problem, np.ndarray], np.ndarray] | None = None

    @property
    def tuned(self) -> bool:
        return self.path is not None


def _path_solver(method: str, path, grad) -> Solver:
    """A tuned solver whose fit is its path's column, certified by ``grad``."""

    def fit(pb: Problem, lam) -> EstimateResult:
        if not math.isfinite(lam):
            raise ValueError(f"lam must be finite, got {lam}")
        theta = path(pb, np.array([lam], dtype=np.float64))[:, 0]
        if np.isnan(theta).any():
            raise IndefiniteObjective(f"lam={lam:g} is below the convexity threshold")
        return _result(method, theta, grad(pb, theta, lam), lam)

    return Solver(fit, path)


SOLVERS = {
    "ols": Solver(_ols),
    "uls": Solver(_uls),
    "uls+": _path_solver("uls+", _uls_plus_path, _uls_plus_grad),
    "graddiff": _path_solver("graddiff", _graddiff_path, _graddiff_grad),
    "tl": Solver(_transfer_ridge, _transfer_ridge_path),
    "gd": Solver(_gd),
}


# ---------------------------------------------------------------------------
# Dataset-level estimators: prepare, solve through the table
# ---------------------------------------------------------------------------

def ols_fit(d: Dataset, method: str = "ols") -> EstimateResult:
    """Ordinary least squares via the normal equations."""
    return replace(SOLVERS["ols"].fit(prepare(None, None, d)), method=method)


def uls(model: PretrainedModel, forget: Dataset, sub: Dataset) -> EstimateResult:
    """Bias-corrected least-squares unlearning of the forget set.

    An empty forget set is a no-op: the pretrained coefficients are returned
    unchanged.
    """
    return SOLVERS["uls"].fit(prepare(model, forget, sub))


def uls_objective_grad(
    theta, model: PretrainedModel, forget: Dataset, sub: Dataset
) -> np.ndarray:
    """Gradient of the unlearning objective

        -(omega_f / n_f) * loss(theta; forget)
            + (theta_p - theta)' sigma_mix (theta_p - theta)

    whose unique stationary point is the closed-form :func:`uls` output.
    """
    pb = prepare(model, forget, sub)
    return _uls_objective_grad(np.asarray(theta, dtype=np.float64), pb)


def uls_plus(
    model: PretrainedModel, forget: Dataset, sub: Dataset, lam: float
) -> EstimateResult:
    """Unlearning with an extra retain-loss term weighted by lam >= 0.

    lam = 0 reduces to :func:`uls`; an empty forget set is again a no-op.
    """
    return SOLVERS["uls+"].fit(prepare(model, forget, sub), lam)


def graddiff(
    model: PretrainedModel, forget: Dataset, sub: Dataset, lam: float
) -> EstimateResult:
    """Forget-loss ascent balanced against retain-loss descent with weight lam.

    Requires lam * sigma_sub - sigma_f to be positive definite; otherwise the
    objective is unbounded below and :class:`IndefiniteObjective` is raised.
    """
    return SOLVERS["graddiff"].fit(prepare(model, forget, sub), lam)


def transfer_ridge(
    model: PretrainedModel, sub: Dataset, lam: float
) -> EstimateResult:
    """Least squares on the subsample, ridge-anchored to the pretrained fit."""
    return SOLVERS["tl"].fit(prepare(model, None, sub), lam)


def default_step_size(f: LossFn, model: PretrainedModel, sub: Dataset) -> float:
    """Step size inside the convergent range for :func:`gd_unlearn`.

    The retain term's curvature is bounded by 2 Nr Lmax(sigma_sub) for the
    squared loss and by Nr Lmax(sigma_sub) / 4 for the logistic loss; the
    returned step keeps the iteration map a strict contraction either way.
    Lmax is computed exactly from the symmetric eigenvalues of sigma_sub.
    """
    return _spectral_step(f, model, compute_stats(sub).sigma)


def _spectral_step(f: LossFn, model: PretrainedModel, sigma_sub) -> float:
    lam_max = max_eigenvalue(sigma_sub)
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
