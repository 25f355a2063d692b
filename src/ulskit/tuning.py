"""Selection of the regularization weight lambda on a prepared problem.

Both rules read an :class:`~ulskit.estimators.Problem`, so a tuned fit forms
its Gram matrices once, in :func:`~ulskit.estimators.prepare`.
:func:`cv_select` splits the problem's subsample rows into shuffled
round-robin folds. On each training fold the solver's path gives the
coefficients of every candidate lambda from one factorization (uls+) or one
eigendecomposition (ridge, GradDiff), and one vectorized expression scores
them all by squared prediction error on the held-out fold. Ties break toward
the larger (more conservative) lambda.

GradDiff's objective is bounded below only for lambda above a convexity
threshold, which differs from fold to fold; its path marks an infeasible
lambda with a NaN column, and its fit is a column of that path. Infeasible
candidates score inf rather than failing the search: on every fold if the
fit on the full subsample would reject them, else from the first fold they
are infeasible on. :func:`plugin_lambda` is the closed-form rule for uls+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data_model import Dataset, SufficientStats
from .errors import InsufficientData, NoFeasibleLambda
from .estimators import SOLVERS, Problem, ols_theta
from .numerics import RngStream

CV_METHODS = tuple(name for name, solver in SOLVERS.items() if solver.tuned)


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
    delta_hat = float(np.linalg.norm(theta_sub - ols_theta(pb.st_f)))
    return pb.w.omega_r * pb.w.omega_f * delta_hat


def log_grid(lo: float, hi: float, k: int) -> list[float]:
    """k log-uniform candidates from lo to hi, endpoints exact."""
    if not 0.0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if k < 2:
        raise ValueError(f"need at least two grid points, got {k}")
    return [float(v) for v in np.geomspace(lo, hi, k)]


def _default_grid() -> tuple[float, ...]:
    return tuple(log_grid(1e-4, 1e4, 20))


@dataclass(frozen=True)
class CvSpec:
    """Fold count and lambda grid; scoring is held-out mean squared error."""

    folds: int = 5
    grid: tuple[float, ...] = field(default_factory=_default_grid)

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("need at least two folds")
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ValueError("grid must be nonempty")
        if any(v <= 0.0 for v in grid):
            raise ValueError("grid values must be positive")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)


def _fold_stats(d: Dataset, idx: np.ndarray) -> tuple[SufficientStats, float]:
    """Statistics of the rows idx, plus their mean squared response for scoring."""
    x, y = d.x[idx], d.y[idx]
    n = len(idx)
    return SufficientStats(sigma=x.T @ x / n, m=x.T @ y / n, n=n), float(y @ y) / n


def _heldout_mse(thetas: np.ndarray, fold: SufficientStats, yy: float) -> np.ndarray:
    """Held-out MSE of each column of thetas, from the fold's statistics.

    einsum rather than BLAS: BLAS kernels treat edge columns differently, and
    equal columns must score bit-equal so that exact ties stay ties.
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
    lambda of the grid on it at once. Returns ``(lam, cv_table)`` where
    the table rows are ``(lam, fold_index, mse)`` for audit. Raises
    :class:`NoFeasibleLambda` when every candidate is infeasible and
    :class:`InsufficientData` when the subsample cannot support the folds.
    """
    if method not in CV_METHODS:
        raise ValueError(f"unknown CV method {method!r}; expected {CV_METHODS}")
    if rng is None:
        rng = RngStream(0, 0)
    sub = pb.sub
    if sub.n < spec.folds * (sub.p + 1):
        raise InsufficientData(
            f"need at least folds*(p+1) = {spec.folds * (sub.p + 1)} subsample"
            f" rows, got {sub.n}"
        )
    path = SOLVERS[method].path
    grid = np.array(spec.grid)
    perm = rng.permutation(sub.n)  # shuffled round-robin folds
    held_idx = [np.sort(perm[j::spec.folds]) for j in range(spec.folds)]
    alive = np.full(len(grid), True)
    if method == "graddiff":  # infeasible on the whole subsample: inf on every fold
        alive = ~np.isnan(path(pb, grid)).any(axis=0)
    scores = np.empty((spec.folds, len(grid)))
    for j, idx in enumerate(held_idx):
        held, yy = _fold_stats(sub, idx)
        thetas = path(replace(pb, st_sub=pb.st_sub - held, sub=None), grid)
        alive &= ~np.isnan(thetas).any(axis=0)
        scores[j] = np.where(alive, _heldout_mse(thetas, held, yy), math.inf)
    means = scores.mean(axis=0)

    best = means.min()
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
