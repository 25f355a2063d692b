"""Fitting and unlearning procedures.

All closed forms are expressed through normalized sufficient statistics. With
sigma_sub = X_sub'X_sub/n_sub, m_sub = X_sub'y_sub/n_sub (likewise sigma_f,
m_f over the forget rows) and the pretrained model's proportions
omega_f = Nf/N and omega_r = 1 - omega_f (its properties ``omega_f`` and
``omega_r``), the estimators solve:

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
it. Closed forms (ols, uls) return bare coefficients, and a tuned method's
path solves a whole grid of lam with one factorization or eigendecomposition:

    uls+:   theta(lam) = (1 - w) theta_uls + w theta_ols, the mix of the uls
            fit and the subsample's ols fit by w = lam / (omega_r + lam)
    pencil: theta(lam) = V diag(1/(lam - mu)) V'(lam b_p - b_q) solves
            (lam A_p - A_q) theta = lam b_p - b_q, where A_q V = A_p V diag(mu)
            and V' A_p V = I; gdiff is (A_p, b_p, A_q, b_q) = (sigma_sub, m_sub,
            sigma_f, m_f), and ridge is (I, theta_p, -sigma_sub, -m_sub)

Every path holds lam only in bounded ratios, so no finite lam overflows it.
The pencil paths refine each column with the pencil while that lowers its
backward error, and solve by Cholesky a column that refinement cannot bring
to rounding, or (ridge) whose shifted spectrum is too wide to tell a singular
system (:func:`_pencil_path`). GradDiff's objective is bounded below iff
lam > mu_max; :func:`graddiff_feasible` decides, by lam - mu_max >
PIVOT_FLOOR * lam. Every tuned fit is its path's column at one lam, where a
NaN column is an :class:`IndefiniteObjective`. The table runs every fit and
path with overflow warnings off, and names each overflow with a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .data_model import (
    Dataset,
    PretrainedModel,
    SufficientStats,
    check_loss,
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
from .loss import LOGISTIC, SQUARED, loss_grad, loss_value
from .numerics import (
    PIVOT_FLOOR,
    cholesky,
    finite_solution,
    max_eigenvalue,
    pencil_eigh,
    safe_norm,
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
        if self.alpha is not None and not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol}")


def _spd_factor(st: SufficientStats) -> np.ndarray:
    """Cholesky factor of a Gram matrix; a singular one is a SingularGram."""
    p = st.m.shape[0]
    if st.n < p:
        raise SingularGram(f"n={st.n} rows cannot identify p={p} coefficients")
    try:
        return cholesky(st.sigma)
    except NotPositiveDefinite as exc:
        raise SingularGram(str(exc)) from None


def _check_dims(model: PretrainedModel, *datasets: Dataset | SufficientStats) -> None:
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


def _stats(d: Dataset | SufficientStats, p: int) -> SufficientStats:
    """``d`` itself if it is statistics already, else those of its rows."""
    return d if isinstance(d, SufficientStats) else forget_stats(d, p)


# ---------------------------------------------------------------------------
# The prepared problem and the solver table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    """One unlearning problem with its statistics formed once.

    ``model`` is None when only the subsample matters (OLS and its
    interval); otherwise it holds theta_p and the weights omega_f and
    omega_r. ``sub`` and ``forget`` are the rows behind the statistics.
    The interval noise terms and the cross-validation folds read ``sub``; a
    fold problem has none. Only logistic gradient descent reads ``forget``,
    so a squared-loss problem may have none (the simulation's). The
    subsample Cholesky factor, and GradDiff's pencil reduced through it, are
    computed on first use and then shared. They are lazy because the ridge
    solver never needs them and must work when n_sub < p. ``folds`` keeps the
    CV folds drawn on it by fold count and stream; ``replace`` drops them.
    """

    model: PretrainedModel | None
    st_sub: SufficientStats
    st_f: SufficientStats
    sub: Dataset | None = None
    forget: Dataset | None = None
    gd: GdConfig = GdConfig()
    folds: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def theta_p(self) -> np.ndarray:
        return self.model.theta_p

    @cached_property
    def sub_factor(self) -> np.ndarray:
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
    if pb.model.loss_id != SQUARED:
        raise ValueError(f"{name} requires a squared-loss pretrained model")


def _result(method: str, theta, grad, lam=None) -> EstimateResult:
    """A fit certified by the norm of its objective gradient at theta; a norm
    that overflows is a ValueError."""
    norm = safe_norm(grad)
    if not math.isfinite(norm):
        hint = "" if lam is None else " (lam too large?)"
        raise ValueError(f"the fit's gradient certificate overflows{hint}")
    return EstimateResult(theta, method, lambda_used=None if lam is None else float(lam),
                          grad_residual=norm)


def _uls_grad(theta, pb: Problem) -> np.ndarray:
    """Gradient of the unlearning objective -(omega_f / n_f) * loss(theta; forget)
    + (theta_p - theta)' sigma_mix (theta_p - theta), whose unique stationary
    point is the closed-form :func:`uls` output."""
    om_f, om_r, st_sub, st_f = pb.model.omega_f, pb.model.omega_r, pb.st_sub, pb.st_f
    gap = pb.theta_p - theta
    sigma_mix_gap = om_r * (st_sub.sigma @ gap) + om_f * (st_f.sigma @ gap)
    return 2.0 * om_f * (st_f.m - st_f.sigma @ theta) - 2.0 * sigma_mix_gap


def _ols(pb: Problem) -> np.ndarray:
    return spd_solve(pb.sub_factor, pb.st_sub.m)


def _uls(pb: Problem) -> np.ndarray:
    _require_squared(pb, "uls")
    if pb.st_f.n == 0:  # nothing to forget: a no-op
        return pb.theta_p.copy()
    correction = spd_solve(pb.sub_factor, pb.st_f.sigma @ pb.theta_p - pb.st_f.m)
    return pb.theta_p + (pb.model.omega_f / pb.model.omega_r) * correction


def _retain_grad(pb: Problem, theta) -> np.ndarray:
    return 2.0 * (pb.st_sub.sigma @ theta - pb.st_sub.m)


def _uls_plus_path(pb: Problem, lams: np.ndarray) -> np.ndarray:
    _require_squared(pb, "uls+")
    if np.any(lams < 0.0):
        raise ValueError(f"lam must be >= 0, got {lams.min():g}")
    if pb.st_f.n == 0:  # the no-op at every lam
        return np.repeat(pb.theta_p[:, None], len(lams), axis=1)
    w = lams / (pb.model.omega_r + lams)
    return (1.0 - w) * _uls(pb)[:, None] + w * _ols(pb)[:, None]


def _uls_plus_grad(pb: Problem, theta, lam):
    if pb.st_f.n == 0:  # the no-op, as for uls
        return 0.0
    return _uls_grad(theta, pb) + lam * _retain_grad(pb, theta)


# Iterative refinement as LAPACK's dporfs runs it: at most its five (ITMAX)
# corrections per column, each taken only if it lowers the column's
# componentwise backward error max_i |b - A theta|_i / (|A| |theta| + |b|)_i,
# and none once that error stops halving or is down to _ROUNDING (a correctly
# rounded solution's is up to about 2 eps at p = 50). A column whose error
# stays above _REFINED is solved by Cholesky instead, as LAPACK's dsposv
# falls back to a double factorization when its refinement fails.
_REFINE_STEPS, _ROUNDING, _REFINED = 5, 4.0 * np.finfo(np.float64).eps, 1e-14
_TINY = np.finfo(np.float64).tiny  # in the denominator: a row of zero terms has error 0


def _pencil_path(lams, c, mu, v, a_p, b_p, a_q, b_q, direct=False) -> np.ndarray:
    """The columns theta(lam) of (lam A_p - A_q) theta = lam b_p - b_q, from
    the pencil A_q V = A_p V diag(mu), V' A_p V = I, refined to rounding or
    solved directly.

    Each column is V diag(1/(lam - mu)) V' (lam b_p - b_q), and a correction
    solves the same way for its residual. Its backward error is taken on the
    equations over lam + c, so no finite lam overflows it. The pencil's error
    is relative to max |mu|, so a step multiplies a column's error by about
    1e-16 max |mu| / min (lam - mu): on columns of very different scales it
    may take several, and none converge where that factor nears 1. There the
    column is solved by Cholesky of lam A_p - A_q, as is every column of the
    mask ``direct``; a matrix that fails the pivot check gives a NaN column,
    as its objective is not numerically strictly convex.
    """
    b_p, b_q = b_p[:, None], b_q[:, None]
    gap, shift = lams - mu[:, None], lams + c
    w_p, abs_p, abs_q = lams / shift, np.abs(a_p), np.abs(a_q)
    fixed = w_p * np.abs(b_p) + np.abs(b_q) / shift + _TINY

    def solve(r_p, r_q):
        return v @ ((lams / gap) * (v.T @ r_p) - (v.T @ r_q) / gap)

    def residual(theta):
        r_p, r_q, size = b_p - a_p @ theta, b_q - a_q @ theta, np.abs(theta)
        scale = w_p * (abs_p @ size) + (abs_q @ size) / shift + fixed
        return r_p, r_q, np.max(np.abs(w_p * r_p - r_q / shift) / scale, axis=0)

    theta = solve(b_p, b_q)
    r_p, r_q, berr = residual(theta)
    last = np.full(len(lams), np.inf)
    for _ in range(_REFINE_STEPS):
        open_ = (berr > _ROUNDING) & (2.0 * berr <= last)
        if not open_.any():
            break
        trial = theta + solve(r_p, r_q)
        t_p, t_q, t_berr = residual(trial)
        take = open_ & (t_berr < berr)
        last = np.where(take, berr, 0.0)
        theta, berr = np.where(take, trial, theta), np.where(take, t_berr, berr)
        r_p, r_q = np.where(take, t_p, r_p), np.where(take, t_q, r_q)
    theta = finite_solution(theta)
    for k in np.flatnonzero((berr > _REFINED) | direct):
        try:
            factor = cholesky(lams[k] * a_p - a_q)
            theta[:, k] = spd_solve(factor, (lams[k] * b_p - b_q)[:, 0])
        except NotPositiveDefinite:
            theta[:, k] = np.nan
    return theta


def graddiff_threshold(pb: Problem) -> float:
    """mu_max: the GradDiff objective is bounded below iff lam > mu_max; inf
    when the subsample Gram is singular, as then no lam is feasible."""
    return float(pb.pencil[0][-1])


def graddiff_feasible(pb: Problem, lams: np.ndarray) -> np.ndarray:
    """Where GradDiff's objective is bounded below, as a mask of ``lams``.

    lam sigma_sub - sigma_f = L (lam I - C) L', so this floors the
    eigenvalues of lam I - C as :func:`cholesky` floors equilibrated pivots.
    """
    return lams - graddiff_threshold(pb) > PIVOT_FLOOR * lams


def _graddiff_path(pb: Problem, lams: np.ndarray) -> np.ndarray:
    _require_squared(pb, "graddiff")
    mu, v = pb.pencil
    st_sub, st_f = pb.st_sub, pb.st_f
    ok = graddiff_feasible(pb, lams)
    thetas = np.full((len(mu), len(lams)), np.nan)
    thetas[:, ok] = _pencil_path(lams[ok], 0.0, mu, v, st_sub.sigma, st_sub.m,
                                 st_f.sigma, st_f.m)
    return thetas


def _graddiff_grad(pb: Problem, theta, lam) -> np.ndarray:
    st_f = pb.st_f
    return 2.0 * (st_f.m - st_f.sigma @ theta) + lam * _retain_grad(pb, theta)


def _transfer_ridge_path(pb: Problem, lams: np.ndarray) -> np.ndarray:
    _require_squared(pb, "tl")
    if np.any(lams <= 0.0):
        raise ValueError(f"lam must be > 0, got {lams.min():g}")
    sigma = pb.st_sub.sigma
    d, q = np.linalg.eigh(sigma)
    # a shifted spectrum this wide cannot tell a singular system from columns
    # of very different scales; Cholesky's scale-invariant pivot floor can
    singular = d[0] + lams <= PIVOT_FLOOR * (d[-1] + lams)
    return _pencil_path(lams, 1.0, -d, q, np.eye(len(d)), pb.theta_p,
                        -sigma, -pb.st_sub.m, singular)


def _transfer_ridge_grad(pb: Problem, theta, lam) -> np.ndarray:
    return _retain_grad(pb, theta) + lam * (2.0 * (theta - pb.theta_p))


def _gd(pb: Problem, lam=None) -> EstimateResult:
    if pb.model.loss_id == SQUARED:
        return gd_unlearn(pb.model, pb.st_f, pb.st_sub, pb.gd)
    # the default step from the statistics, which logistic GD would form again
    cfg = replace(pb.gd, alpha=pb.gd.alpha or default_step_size(pb.model, pb.st_sub))
    return gd_unlearn(pb.model, pb.forget, pb.sub, cfg)


class Solver(NamedTuple):
    """``fit(problem, lam)`` gives a method's guarded fit and its certificate.

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


def _solver(method: str, grad, coef=None, path=None) -> Solver:
    """The entry of ``method``: its fit is ``coef(problem)``, or a tuned
    method's path column at lam, certified by ``grad(problem, theta, lam)``.
    Each callable has its own errstate, as one is not reentrant on numpy 1.x."""

    def fit(pb: Problem, lam=None) -> EstimateResult:
        if path is None:
            theta, lam = coef(pb), None
        elif not math.isfinite(lam):
            raise ValueError(f"lam must be finite, got {lam}")
        else:
            theta = path(pb, np.array([lam], dtype=np.float64))[:, 0]
            if np.isnan(theta).any():
                raise IndefiniteObjective(f"lam={lam:g}: the objective is not"
                                          " numerically strictly convex")
        return _result(method, theta, grad(pb, theta, lam), lam)

    quiet = dict(over="ignore", invalid="ignore")  # finite_solution, _result name it
    return Solver(np.errstate(**quiet)(fit), path and np.errstate(**quiet)(path))


SOLVERS = {
    "ols": _solver("ols", lambda pb, theta, _: pb.st_sub.m - pb.st_sub.sigma @ theta, _ols),
    "uls": _solver("uls", lambda pb, theta, _: _uls_grad(theta, pb), _uls),
    "uls+": _solver("uls+", _uls_plus_grad, path=_uls_plus_path),
    "graddiff": _solver("graddiff", _graddiff_grad, path=_graddiff_path),
    "tl": _solver("tl", _transfer_ridge_grad, path=_transfer_ridge_path),
    "gd": Solver(_gd),
}


# ---------------------------------------------------------------------------
# Dataset-level estimators: prepare, solve through the table
# ---------------------------------------------------------------------------

def ols_fit(d: Dataset) -> EstimateResult:
    """Ordinary least squares via the normal equations."""
    return SOLVERS["ols"].fit(prepare(None, None, d))


def uls(model: PretrainedModel, forget: Dataset, sub: Dataset) -> EstimateResult:
    """Bias-corrected least-squares unlearning of the forget set.

    An empty forget set is a no-op: the pretrained coefficients are returned
    unchanged.
    """
    return SOLVERS["uls"].fit(prepare(model, forget, sub))


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


def default_step_size(model: PretrainedModel, sub: Dataset | SufficientStats) -> float:
    """Step size inside the convergent range for :func:`gd_unlearn`.

    The retain term's curvature is bounded by 2 Nr Lmax(sigma_sub) for the
    squared loss and by Nr Lmax(sigma_sub) / 4 for the logistic loss; the
    step returned for ``model.loss_id`` keeps the iteration map a strict
    contraction. Lmax is computed exactly from the symmetric eigenvalues of
    sigma_sub, which ``sub`` gives as rows or as their statistics.
    """
    lam_max = max_eigenvalue(_stats(sub, model.p).sigma)
    if lam_max <= 0.0:
        raise SingularGram("subsample Gram matrix has no positive spectrum")
    return (0.9 if model.loss_id == SQUARED else 3.6) / (model.n_remaining * lam_max)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing gradient is named
def gd_unlearn(
    model: PretrainedModel,
    forget: Dataset | SufficientStats,
    sub: Dataset | SufficientStats,
    cfg: GdConfig = GdConfig(),
    callback=None,
) -> EstimateResult:
    """Unlearning by gradient descent from the pretrained fit, under ``model.loss_id``.

    Starting at theta_p, iterates theta <- theta - alpha g(theta) with

        g(theta) = (Nr/n_sub) [grad(theta; sub) - grad(theta_p; sub)]
                   - grad(theta_p; forget)

    until ||g|| <= grad_tol * (1 + ||theta_p||), raising :class:`NotConverged`
    if that takes more than t_max steps, and a ValueError at once where ||g||
    overflows. For the squared loss ``forget`` and ``sub`` may be rows or
    their statistics (rows are reduced once), and g is 2 Nr sigma_sub
    (theta - theta_p) - grad(theta_p; forget), an O(p^2) step whose fixed
    point is exactly :func:`uls`. Expanded into (Nr/n_sub) grad(theta; sub)
    minus a constant, it cancels two large terms and can stall above a tight
    tolerance. ``callback(t, theta)`` observes each iterate.
    """
    _check_dims(model, forget, sub)
    loss, theta_p = model.loss_id, model.theta_p
    scale = 1.0 + safe_norm(theta_p)
    if loss == SQUARED:
        forget, sub = _stats(forget, model.p), _stats(sub, model.p)
        hess, c = 2.0 * model.n_remaining * sub.sigma, -loss_grad(loss, theta_p, forget)

        def objective_grad(theta):
            return hess @ (theta - theta_p) + c
    else:
        ratio = model.n_remaining / sub.n
        anchor = ratio * loss_grad(loss, theta_p, sub) + loss_grad(loss, theta_p, forget)

        def objective_grad(theta):
            return ratio * loss_grad(loss, theta, sub) - anchor
    alpha = cfg.alpha if cfg.alpha is not None else default_step_size(model, sub)

    theta = theta_p.copy()
    tol = cfg.grad_tol * scale
    for t in range(cfg.t_max + 1):
        g = objective_grad(theta)
        residual = safe_norm(g)
        if not math.isfinite(residual):
            raise ValueError(f"the GD objective's gradient overflows at iteration {t}")
        if residual <= tol or t == cfg.t_max:
            break
        theta = theta - alpha * g
        if safe_norm(theta) > _DIVERGE_FACTOR * scale:
            raise Diverged(
                f"iterate norm exceeded {_DIVERGE_FACTOR:g} * (1 + ||theta_p||);"
                " reduce the step size"
            )
        if callback is not None:
            callback(t + 1, theta)
    if not residual <= tol:
        raise NotConverged(
            f"gradient residual {residual:.3e} still above grad_tol * (1 +"
            f" ||theta_p||) = {tol:.3e} after {t} iterations"
        )
    return EstimateResult(theta=theta, method="gd", iterations=t, grad_residual=residual)


def pretrain(
    loss: str, full: Dataset, n_forget: int = 0, t_max: int = 10_000
) -> PretrainedModel:
    """Fit the full-data model under ``loss``; ``n_forget`` of its rows are forget rows.

    Squared loss solves the normal equations. Logistic loss runs gradient
    descent with Armijo backtracking until the gradient norm reaches
    1e-8 * n, raising :class:`NotConverged` at the iteration cap (which is
    what perfectly separable data produces).
    """
    check_loss(loss)
    if not 0 <= n_forget < full.n:
        raise ValueError(f"n_forget={n_forget} must lie in [0, n={full.n})")
    if loss == SQUARED:
        theta = ols_fit(full).theta
    else:
        theta = _fit_logistic(full, t_max)
    return PretrainedModel(
        theta_p=theta,
        n_total=full.n,
        n_remaining=full.n - n_forget,
        n_forget=n_forget,
        loss_id=loss,
    )


def _fit_logistic(d: Dataset, t_max: int) -> np.ndarray:
    tol = 1e-8 * d.n
    theta = np.zeros(d.p)
    value = loss_value(LOGISTIC, theta, d)
    for _ in range(t_max):
        g = loss_grad(LOGISTIC, theta, d)
        gnorm2 = float(g @ g)
        if np.sqrt(gnorm2) <= tol:
            return theta
        step = 1.0
        for _ in range(200):
            trial = theta - step * g
            trial_value = loss_value(LOGISTIC, trial, d)
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
