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
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .data_model import Dataset, PretrainedModel
from .errors import DegenerateDirection, DimensionMismatch, SingularGram
from .estimators import SOLVERS, Problem, prepare
from .numerics import SpdFactor, as_vector, spd_solve


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


@lru_cache(maxsize=None)
def normal_quantile(q: float) -> float:
    """Standard normal quantile; q = 0.975 gives 1.959964 to six decimals.

    ``scipy.special.ndtri`` is the kernel behind ``scipy.stats.norm.ppf`` and
    returns the same bits, without importing ``scipy.stats``, which would
    more than double the start-up time of every ``uls`` process. Cached,
    since an interval needs it for one alpha again and again.
    """
    return float(ndtri(q))


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


def _noise_terms(v, sub: Dataset, factor: SpdFactor, theta_uls, theta_p) -> NoiseTerms:
    w = spd_solve(factor, v)
    xw = sub.x @ w
    a = xw * (sub.y - sub.x @ theta_uls)
    diff = theta_uls - theta_p
    # v' sigma^{-1} (x_i x_i' - sigma) diff = (x_i'w)(x_i'diff) - v'diff,
    # using sigma w = v; the terms average to zero by construction of sigma.
    b = xw * (sub.x @ diff) - float(v @ diff)
    return NoiseTerms(a=a, b=b)


def noise_terms(v, sub: Dataset, theta_uls, theta_p) -> NoiseTerms:
    """Per-row noise components, both computed against the subsample's Gram."""
    theta_uls = as_vector(theta_uls, "theta_uls")
    theta_p = as_vector(theta_p, "theta_p")
    v = _check_direction(v, sub.p)
    factor = prepare(None, None, sub).sub_factor
    return _noise_terms(v, sub, factor, theta_uls, theta_p)


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


def _report(v, theta, variance: float, alpha: float, method: str) -> InferenceReport:
    point = float(v @ theta)
    half = normal_quantile(1.0 - alpha / 2.0) * np.sqrt(variance)
    return InferenceReport(
        v=v,
        point=point,
        variance=variance,
        ci_lo=point - half,
        ci_hi=point + half,
        alpha=alpha,
        method=method,
    )


def uls_interval(pb: Problem, theta, v, alpha: float) -> InferenceReport:
    """Interval for v'theta from a prepared problem and its uls fit theta."""
    _check_alpha(alpha)
    v = _check_direction(v, pb.sub.p)
    terms = _noise_terms(v, pb.sub, pb.sub_factor, theta, pb.theta_p)
    variance = variance_uls(terms, pb.model.n_remaining, pb.sub.n)
    return _report(v, theta, variance, alpha, "uls")


def ols_interval(pb: Problem, theta, v, alpha: float) -> InferenceReport:
    """Classical interval for v'theta from a prepared problem and its OLS fit."""
    _check_alpha(alpha)
    sub = pb.sub
    v = _check_direction(v, sub.p)
    if sub.n <= sub.p:
        raise SingularGram(
            f"classical interval needs n > p, got n={sub.n}, p={sub.p}"
        )
    resid = sub.y - sub.x @ theta
    s2 = float(resid @ resid) / (sub.n - sub.p)
    # v'(X'X)^{-1} v = v' sigma^{-1} v / n
    quad = float(v @ spd_solve(pb.sub_factor, v)) / sub.n
    return _report(v, theta, s2 * quad, alpha, "ols")


# The methods with an interval, each computed from the problem the fit used.
INTERVALS = {"uls": uls_interval, "ols": ols_interval}


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
    pb = prepare(model, forget, sub)
    return uls_interval(pb, SOLVERS["uls"].fit(pb).theta, v, alpha)


def ci_ols(sub: Dataset, v, alpha: float = 0.05) -> InferenceReport:
    """Classical OLS interval for v'theta from the subsample alone."""
    pb = prepare(None, None, sub)
    return ols_interval(pb, SOLVERS["ols"].fit(pb).theta, v, alpha)
