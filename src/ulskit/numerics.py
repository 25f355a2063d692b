"""Dense linear-algebra kernel and deterministic random streams.

Everything downstream funnels its SPD solves through :func:`cholesky` /
:func:`spd_solve` so that near-singular Gram matrices surface as explicit
errors instead of silently regularized answers, and draws its randomness
through :class:`RngStream` so that identical (seed, stream_id) pairs replay
bit-identical sequences regardless of thread schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, toeplitz

from .errors import DimensionMismatch, NotPositiveDefinite

# A Cholesky pivot at or below PIVOT_FLOOR * trace(A)/dim is treated as a
# failure; callers that want ridge stabilization must add it themselves.
PIVOT_FLOOR = 1e-12

_SYMMETRY_RTOL = 1e-12


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-d float64 array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SpdFactor:
    """Lower-triangular Cholesky factor L of an SPD matrix A = L @ L.T."""

    lower: np.ndarray

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


def cholesky(a) -> SpdFactor:
    """Factor a symmetric positive-definite matrix.

    Raises :class:`NotPositiveDefinite` when the factorization fails or any
    pivot falls at or below the jitter floor ``PIVOT_FLOOR * trace(a)/dim``,
    which is how a singular Gram matrix (e.g. fewer rows than columns)
    announces itself.
    """
    arr = as_matrix(a, "a")
    n = arr.shape[0]
    if arr.shape[1] != n:
        raise DimensionMismatch(f"matrix must be square, got {arr.shape}")
    scale = max(np.max(np.abs(arr)), 1.0)
    if np.max(np.abs(arr - arr.T)) > _SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    try:
        lower = np.linalg.cholesky(arr)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None
    floor = PIVOT_FLOOR * np.trace(arr) / n
    pivots = np.diag(lower) ** 2
    if np.any(pivots <= floor):
        raise NotPositiveDefinite(
            f"smallest pivot {pivots.min():.3e} at or below floor {floor:.3e}"
        )
    return SpdFactor(lower=lower)


def spd_solve(f: SpdFactor, b) -> np.ndarray:
    """Solve A x = b given the Cholesky factor of A. Accepts 1-d or 2-d b.

    The factor is finite by construction, so instead of scanning both
    operands first, only the solution is checked: a non-finite b, or a solve
    that overflows, is a ValueError rather than a NaN answer.
    """
    arr = np.asarray(b, dtype=np.float64)
    if arr.shape[0] != f.dim:
        raise DimensionMismatch(
            f"factor dim {f.dim} does not match rhs length {arr.shape[0]}"
        )
    x = cho_solve((f.lower, True), arr, check_finite=False)
    if not np.all(np.isfinite(x)):
        raise ValueError("linear solve gave non-finite entries (its input overflows)")
    return x


def ar1_covariance(p: int, rho: float) -> np.ndarray:
    """AR(1) covariance matrix with entries rho**|j - k|."""
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got {p}")
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho}")
    return toeplitz(rho ** np.arange(p, dtype=np.float64))


def max_eigenvalue(a: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(a)[-1])


class RngStream:
    """Deterministic random stream identified by (seed, stream_id).

    Two streams constructed with equal identifiers replay the same sequence
    on any platform and under any thread schedule. Streams are single-owner:
    parallel code derives sibling streams by choosing distinct stream ids,
    never by sharing one instance.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.Philox(seq))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def chisquare(self, df) -> np.ndarray:
        """Chi-square draws; ``df`` may be an array of degrees of freedom."""
        return self._gen.chisquare(df)

    def uniform(self, shape) -> np.ndarray:
        return self._gen.random(shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), returned in ascending order."""
        idx = self._gen.choice(n, size=k, replace=False, shuffle=False)
        return np.sort(idx)

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))


def sample_gaussian(rng: RngStream, mean, cov_factor: SpdFactor, n: int) -> np.ndarray:
    """Draw n rows of N(mean, L @ L.T) as mean + z @ L.T with z std normal."""
    mu = as_vector(mean, "mean")
    if mu.shape[0] != cov_factor.dim:
        raise DimensionMismatch(
            f"mean length {mu.shape[0]} does not match factor dim {cov_factor.dim}"
        )
    z = rng.standard_normal((n, cov_factor.dim))
    return z @ cov_factor.lower.T + mu


def bartlett_factor(rng: RngStream, df: int, p: int) -> SpdFactor:
    """Lower-triangular A with A @ A.T ~ Wishart(df, I_p), for df >= p.

    Bartlett decomposition: sqrt(chi2(df - i)) on the diagonal (i = 0..p-1)
    and independent N(0, 1) below it. A is the Cholesky factor of the draw,
    so the p x p statistics of df iid N(0, I_p) rows cost O(p^2) normals.
    """
    if df < p:
        raise ValueError(f"Bartlett draw needs df >= p, got df={df}, p={p}")
    lower = np.zeros((p, p))
    lower[np.diag_indices(p)] = np.sqrt(rng.chisquare(df - np.arange(p)))
    lower[np.tril_indices(p, -1)] = rng.standard_normal(p * (p - 1) // 2)
    return SpdFactor(lower=lower)
