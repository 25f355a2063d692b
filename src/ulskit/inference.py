"""Asymptotic variance estimation and confidence intervals after unlearning.

For a direction v, the unlearning estimate's sampling noise splits per
subsample row i into an outcome-noise part

    a_i = v' sigma_sub^{-1} x_i (y_i - x_i' theta_uls)

and a Hessian-approximation part

    b_i = v' sigma_sub^{-1} (x_i x_i' - sigma_sub) (theta_uls - theta_p).

The variance estimate reweights these to stand in for the unobserved
remaining rows:

    V = (1/Nr^2) sum_i (a_i + (n_sub - Nr)/n_sub * b_i)^2
        + (Nr - n_sub)/(Nr^2 n_sub) * sum_i (a_i + b_i)^2.

With nominal level alpha, the interval is v'theta +/- z_{1-alpha/2} sqrt(V).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .data_model import Dataset, PretrainedModel, compute_stats
from .errors import (
    DegenerateDirection,
    DimensionMismatch,
    NotPositiveDefinite,
    SingularGram,
)
from .estimators import ols_fit, uls
from .numerics import as_vector, cholesky, spd_solve


@dataclass(frozen=True)
class NoiseTerms:
    """Per-subsample-row noise components a_i and b_i."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise DimensionMismatch("a and b must be vectors of equal length")


@dataclass(frozen=True)
class InferenceReport:
    v: np.ndarray
    point: float
    variance: float
    ci_lo: float
    ci_hi: float
    alpha: float
    method: str

    def __post_init__(self):
        if not np.isfinite(self.variance):
            raise SingularGram(f"interval variance is not finite ({self.variance})")
        if not self.ci_lo <= self.point <= self.ci_hi:
            raise ValueError("interval must contain the point estimate")

    def to_json_dict(self) -> dict:
        return {
            "v": [float(x) for x in self.v],
            "point": self.point,
            "variance": self.variance,
            "ci": [self.ci_lo, self.ci_hi],
            "alpha": self.alpha,
            "method": self.method,
        }


def normal_quantile(q: float) -> float:
    """Standard normal quantile; q = 0.975 gives 1.959964 to six decimals."""
    return float(norm.ppf(q))


def _check_direction(v, p: int) -> np.ndarray:
    v = as_vector(v, "v")
    if v.shape[0] != p:
        raise DimensionMismatch(f"direction has length {v.shape[0]}, expected {p}")
    if not np.any(v):
        raise DegenerateDirection("direction vector is zero")
    return v


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def noise_terms(v, sub: Dataset, theta_uls, theta_p) -> NoiseTerms:
    """Per-row noise components, both computed against the subsample's Gram."""
    theta_uls = as_vector(theta_uls, "theta_uls")
    theta_p = as_vector(theta_p, "theta_p")
    v = _check_direction(v, sub.p)
    stats = compute_stats(sub)
    try:
        factor = cholesky(stats.sigma)
    except NotPositiveDefinite as exc:
        raise SingularGram(str(exc)) from None
    w = spd_solve(factor, v)
    xw = sub.x @ w
    a = xw * (sub.y - sub.x @ theta_uls)
    diff = theta_uls - theta_p
    # v' sigma^{-1} (x_i x_i' - sigma) diff = (x_i'w)(x_i'diff) - v'diff,
    # using sigma w = v; the terms average to zero by construction of sigma.
    b = xw * (sub.x @ diff) - float(v @ diff)
    return NoiseTerms(a=a, b=b)


def variance_uls(terms: NoiseTerms, n_r: int, n_sub: int) -> float:
    """Reweighted variance estimate for v'theta_uls; always >= 0."""
    if terms.a.shape[0] != n_sub:
        raise DimensionMismatch(
            f"terms have length {terms.a.shape[0]}, expected n_sub={n_sub}"
        )
    if n_sub > n_r:
        raise ValueError(f"n_sub={n_sub} cannot exceed n_r={n_r}")
    a, b = terms.a, terms.b
    first = np.sum((a + ((n_sub - n_r) / n_sub) * b) ** 2) / n_r**2
    second = (n_r - n_sub) / (n_r**2 * n_sub) * np.sum((a + b) ** 2)
    return float(first + second)


def ci_uls(
    model: PretrainedModel,
    forget: Dataset,
    sub: Dataset,
    v,
    alpha: float = 0.05,
) -> InferenceReport:
    """Confidence interval for v'theta after unlearning the forget set.

    Needs only the pretrained model, the forget rows, and the subsample;
    in particular the subsample responses enter the variance but not the
    point estimate.
    """
    _check_alpha(alpha)
    v = _check_direction(v, model.p)
    fit = uls(model, forget, sub)
    terms = noise_terms(v, sub, fit.theta, model.theta_p)
    variance = variance_uls(terms, model.n_remaining, sub.n)
    point = float(v @ fit.theta)
    half = normal_quantile(1.0 - alpha / 2.0) * np.sqrt(variance)
    return InferenceReport(
        v=v,
        point=point,
        variance=variance,
        ci_lo=point - half,
        ci_hi=point + half,
        alpha=alpha,
        method="uls",
    )


def ci_ols(sub: Dataset, v, alpha: float = 0.05) -> InferenceReport:
    """Classical OLS interval for v'theta from the subsample alone."""
    _check_alpha(alpha)
    v = _check_direction(v, sub.p)
    if sub.n <= sub.p:
        raise SingularGram(
            f"classical interval needs n > p, got n={sub.n}, p={sub.p}"
        )
    fit = ols_fit(sub)
    resid = sub.y - sub.x @ fit.theta
    s2 = float(resid @ resid) / (sub.n - sub.p)
    stats = compute_stats(sub)
    # v'(X'X)^{-1} v = v' sigma^{-1} v / n
    w = spd_solve(cholesky(stats.sigma), v)
    quad = float(v @ w) / sub.n
    variance = s2 * quad
    point = float(v @ fit.theta)
    half = normal_quantile(1.0 - alpha / 2.0) * np.sqrt(variance)
    return InferenceReport(
        v=v,
        point=point,
        variance=variance,
        ci_lo=point - half,
        ci_hi=point + half,
        alpha=alpha,
        method="ols",
    )
