"""Selection of the regularization weight lambda on a prepared problem.

Both rules read an :class:`~ulskit.estimators.Problem`, so a tuned fit forms
its Gram matrices once, in :func:`~ulskit.estimators.prepare`.
:func:`cv_select` splits the problem's subsample rows into shuffled
round-robin folds, drawn once per problem, fold count and random stream, so
every method tuned with that stream scores the same folds. On each training
fold the solver's path gives the coefficients of every candidate lambda, as
a mix of the fold's uls and ols fits, which share one factorization (uls+),
or from one pencil eigendecomposition (ridge and GradDiff, which share one
path: refined with its own residual, and solved by Cholesky where refinement
cannot converge), and one vectorized expression scores them all by squared
prediction error on the held-out fold.
Every tuned fit is a column of the same path, so the search scores exactly
what the fit returns. Ties break toward the larger (more conservative)
lambda.

GradDiff's objective is bounded below only for lambda above a convexity
threshold, which differs from fold to fold; its path marks an infeasible
lambda with a NaN column. Infeasible candidates score inf rather than
failing the search: on every fold if the full subsample's
:func:`~ulskit.estimators.graddiff_feasible` rejects them, else from the
first fold they are infeasible on. :func:`plugin_lambda` is the closed-form
rule for uls+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data_model import Dataset, SufficientStats
from .errors import HeldOutOverflow, InsufficientData, NoFeasibleLambda
from .estimators import SOLVERS, Problem, graddiff_feasible, ols_theta
from .numerics import RngStream, safe_norm

CV_METHODS = tuple(name for name, solver in SOLVERS.items() if solver.tuned)

# The default search of CvSpec, SimConfig and the CLI's CV flags
CV_FOLDS, CV_GRID_LO, CV_GRID_HI, CV_GRID_SIZE = 5, 1e-4, 1e4, 20


def plugin_lambda(pb: Problem) -> float:
    """Plug-in retain weight for the robustified estimator.

    Estimates the model discrepancy as the gap between separate least-squares
    fits of the subsample and the forget set, then returns
    omega_r * omega_f * delta_hat. Needs enough forget rows for their own
    fit (n_f >= p); cross-validation is the alternative when there are not.
    With no forget rows there is nothing to weigh against, and lambda is 0.
    """
    if pb.st_f.n == 0:
        return 0.0
    theta_sub = SOLVERS["ols"].fit(pb).theta  # reuses the subsample factor
    delta_hat = safe_norm(theta_sub - ols_theta(pb.st_f))
    return pb.model.omega_r * pb.model.omega_f * delta_hat


def log_grid(lo: float, hi: float, k: int) -> list[float]:
    """k log-uniform candidates from lo to hi, endpoints exact."""
    if not 0.0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if math.isinf(hi):
        raise ValueError(f"grid bounds must be finite, got hi={hi}")
    if k < 2:
        raise ValueError(f"need at least two grid points, got {k}")
    return [float(v) for v in np.geomspace(lo, hi, k)]


@dataclass(frozen=True)
class CvSpec:
    """Fold count and lambda grid; scoring is held-out mean squared error."""

    folds: int = CV_FOLDS
    grid: tuple[float, ...] = tuple(log_grid(CV_GRID_LO, CV_GRID_HI, CV_GRID_SIZE))

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("need at least two folds")
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ValueError("grid must be nonempty")
        if not all(0.0 < v < math.inf for v in grid):
            raise ValueError(f"grid values must be positive and finite, got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)


def search_spec(methods, folds: int, lo: float, hi: float, size: int) -> CvSpec | None:
    """``folds`` folds over the ``size`` log-uniform lambdas from lo to hi, or
    None when none of ``methods`` is tuned: the arguments are checked only
    where a search runs."""
    if any(name in CV_METHODS for name in methods):
        return CvSpec(folds, tuple(log_grid(lo, hi, size)))
    return None


def _fold_stats(d: Dataset, idx: np.ndarray) -> tuple[SufficientStats, float]:
    """Statistics of the rows idx, plus their mean squared response for scoring
    (inf where it overflows; SufficientStats names an overflowing X'X or X'y)."""
    x, y, n = d.x[idx], d.y[idx], len(idx)
    return SufficientStats(sigma=x.T @ x / n, m=x.T @ y / n, n=n), float(y @ y) / n


def _folds(pb: Problem, k: int, rng: RngStream | None) -> list:
    """The k folds of ``pb.sub`` drawn from ``rng`` (None: ``RngStream(0, 0)``)
    as (training problem, held statistics, held mean squared response), drawn
    once and kept on ``pb``; each training problem caches its own factor."""
    key = (k, rng)
    if key not in pb.folds:
        perm = (RngStream(0, 0) if rng is None else rng).permutation(pb.sub.n)
        held = [_fold_stats(pb.sub, np.sort(perm[j::k])) for j in range(k)]
        pb.folds[key] = [(replace(pb, st_sub=pb.st_sub - st, sub=None), st, yy)
                         for st, yy in held]
    return pb.folds[key]


def _heldout_mse(thetas: np.ndarray, fold: SufficientStats, yy: float) -> np.ndarray:
    """Held-out MSE of each column of thetas, from the fold's statistics.

    einsum rather than BLAS: BLAS kernels treat edge columns differently, and
    equal columns must score bit-equal so that exact ties stay ties. A score
    that overflows is not finite, and :func:`cv_select` takes it as inf.
    """
    quad = np.einsum("ik,ik->k", thetas, np.einsum("ij,jk->ik", fold.sigma, thetas))
    return yy - 2.0 * np.einsum("i,ik->k", fold.m, thetas) + quad


def cv_select(
    method: str,
    pb: Problem,
    spec: CvSpec = CvSpec(),
    rng: RngStream | None = None,
):
    """Pick the grid lambda minimizing mean held-out MSE on ``pb.sub``.

    Each fold problem is ``pb`` with the training-fold statistics as
    ``st_sub``; nothing is prepared again, and the solver's path fits every
    lambda of the grid on it at once. The first search of ``pb`` with ``rng``
    draws the folds, and later ones reuse them. Returns ``(lam, cv_table)`` where
    the table rows are ``(lam, fold_index, mse)`` for audit. Raises
    :class:`NoFeasibleLambda` when every candidate is infeasible,
    :class:`InsufficientData` when the subsample cannot support the folds,
    and :class:`HeldOutOverflow` when the held-out MSE of every feasible one
    overflows.
    """
    if method not in CV_METHODS:
        raise ValueError(f"unknown CV method {method!r}; expected {CV_METHODS}")
    sub = pb.sub
    if sub.n < spec.folds * (sub.p + 1):
        raise InsufficientData(
            f"need at least folds*(p+1) = {spec.folds * (sub.p + 1)} subsample"
            f" rows, got {sub.n}"
        )
    path = SOLVERS[method].path
    grid = np.array(spec.grid)
    alive = np.full(len(grid), True)
    if method == "graddiff":  # infeasible on the whole subsample: inf on every fold
        alive = graddiff_feasible(pb, grid)
    scores = np.empty((spec.folds, len(grid)))
    with np.errstate(over="ignore", invalid="ignore"):  # fold stats named, scores inf
        for j, (train, held, yy) in enumerate(_folds(pb, spec.folds, rng)):
            thetas = path(train, grid)
            alive &= ~np.isnan(thetas).any(axis=0)
            mse = _heldout_mse(thetas, held, yy)
            scores[j] = np.where(alive & np.isfinite(mse), mse, math.inf)
    means = scores.mean(axis=0)

    best = means.min()
    if math.isinf(best) and alive.any():
        raise HeldOutOverflow(
            f"{method}: the held-out MSE overflows at every feasible lambda"
        )
    if math.isinf(best):
        raise NoFeasibleLambda("every grid lambda failed the definiteness check")
    # ties break toward the larger lambda
    chosen = max(lam for lam, mean in zip(spec.grid, means) if mean == best)
    cv_table = [
        (lam, j, float(scores[j, k]))
        for k, lam in enumerate(spec.grid)
        for j in range(spec.folds)
    ]
    return chosen, cv_table
