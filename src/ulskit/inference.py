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

Every interval comes from a prepared problem through :data:`INTERVALS`, so
the terms reuse its subsample Cholesky factor; :func:`ci_uls` and
:func:`ci_ols` prepare the problem from datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data_model import Dataset, PretrainedModel
from .errors import DegenerateDirection, DimensionMismatch, SingularGram
from .estimators import SOLVERS, Problem, prepare
from .numerics import as_vector, spd_solve


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


# Cephes ndtri's rational approximations: P0/Q0 for |q - 1/2| <= 1/2 - e^-2,
# and in t = sqrt(-2 log q), P1/Q1 for t < 8 (q > e^-32), P2/Q2 beyond.
# Q's leading coefficient is 1 and is left out.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # e^-2


def _horner(x: float, coef, monic: bool = False) -> float:
    """Cephes' polevl, or with ``monic`` its p1evl (a leading 1 left out)."""
    acc = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)
def normal_quantile(q: float) -> float:
    """Standard normal quantile; q = 0.975 gives 1.959964 to six decimals, and
    q outside [0, 1] gives NaN.

    Cephes' ``ndtri``, in its own operation order, so it returns the bits of
    ``scipy.special.ndtri`` (and ``scipy.stats.norm.ppf``) without importing
    scipy. Cached, since an interval needs it for one alpha again and again.
    """
    if q == 0.0 or q == 1.0:
        return math.copysign(math.inf, q - 0.5)
    if not 0.0 < q < 1.0:
        return math.nan
    y, upper = (1.0 - q, True) if q > 1.0 - _EXP_M2 else (q, False)
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _horner(y2, _NDTRI_P0) / _horner(y2, _NDTRI_Q0, monic=True))
        return x * 2.50662827463100050242e0  # sqrt(2 pi)
    t = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / t
    num, den = (_NDTRI_P1, _NDTRI_Q1) if t < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = (t - math.log(t) / t) - z * _horner(z, num) / _horner(z, den, monic=True)
    return x if upper else -x


def _check_direction(v, p: int) -> np.ndarray:
    v = as_vector(v, "v")
    if v.shape[0] != p:
        raise DimensionMismatch(f"direction has length {v.shape[0]}, expected {p}")
    if not np.any(v):
        raise DegenerateDirection("direction vector is zero")
    return v


def check_alpha(alpha: float) -> None:
    """The nominal level of an interval must lie strictly between 0 and 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _noise_terms(v, sub: Dataset, lower: np.ndarray, theta_uls, theta_p):
    """The per-row noise terms (a, b) of the subsample ``sub``, whose Gram
    matrix has the Cholesky factor ``lower``."""
    w = spd_solve(lower, v)
    xw = sub.x @ w
    a = xw * (sub.y - sub.x @ theta_uls)
    diff = theta_uls - theta_p
    # v' sigma^{-1} (x_i x_i' - sigma) diff = (x_i'w)(x_i'diff) - v'diff,
    # using sigma w = v; the terms average to zero by construction of sigma.
    b = xw * (sub.x @ diff) - float(v @ diff)
    return a, b


def variance_uls(a: np.ndarray, b: np.ndarray, n_r: int) -> float:
    """Reweighted variance estimate for v'theta_uls from the noise terms a and
    b; always >= 0. They hold one entry per subsample row, so their common
    length is n_sub <= n_r."""
    if a.ndim != 1 or a.shape != b.shape:
        raise DimensionMismatch("a and b must be vectors of equal length")
    n_sub = a.shape[0]
    if n_sub > n_r:
        raise ValueError(f"n_sub={n_sub} cannot exceed n_r={n_r}")
    with np.errstate(over="ignore"):  # InferenceReport names an overflow
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
    check_alpha(alpha)
    v = _check_direction(v, pb.sub.p)
    a, b = _noise_terms(v, pb.sub, pb.sub_factor, theta, pb.theta_p)
    variance = variance_uls(a, b, pb.model.n_remaining)
    return _report(v, theta, variance, alpha, "uls")


def ols_interval(pb: Problem, theta, v, alpha: float) -> InferenceReport:
    """Classical interval for v'theta from a prepared problem and its OLS fit."""
    check_alpha(alpha)
    sub = pb.sub
    v = _check_direction(v, sub.p)
    if sub.n <= sub.p:
        raise SingularGram(
            f"classical interval needs n > p, got n={sub.n}, p={sub.p}"
        )
    resid = sub.y - sub.x @ theta
    with np.errstate(over="ignore"):  # InferenceReport names an overflow
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
