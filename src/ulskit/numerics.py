"""Dense linear-algebra kernel and deterministic random streams.

Everything downstream funnels its SPD solves through :func:`cholesky` /
:func:`spd_solve` so that near-singular Gram matrices surface as explicit
errors instead of silently regularized answers, and draws its randomness
through :class:`RngStream` so that identical (seed, stream_id) pairs replay
bit-identical sequences. :func:`blas_single_threaded` keeps numpy's
OpenBLAS, found through numpy's own core extension, from starting threads of
its own while a simulation or bench runs.
"""

from __future__ import annotations

import ctypes
import math
import sys
from contextlib import contextmanager
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

# A Cholesky pivot L_ii^2 at or below PIVOT_FLOOR * A_ii is treated as a
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


def safe_norm(v) -> float:
    """Euclidean norm of v, rescaled by its largest entry where the squares
    overflow, so it is inf only where the norm itself is; where the plain
    norm is finite, it is that norm's bits."""
    v = np.asarray(v, dtype=np.float64).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        norm = math.sqrt(v.dot(v))  # np.linalg.norm's own sum, without its overhead
        if not math.isfinite(norm):
            top = np.max(np.abs(v))
            norm = float(top * np.linalg.norm(v / top))
    return norm


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L @ L.T = a, a symmetric positive-definite matrix.

    Raises :class:`NotPositiveDefinite` when the factorization fails or any
    pivot of the equilibrated ``diag(a)^-1/2 a diag(a)^-1/2``, ``L_ii**2 /
    a_ii``, falls at or below ``PIVOT_FLOOR``, which is how a singular Gram
    matrix (e.g. fewer rows than columns) announces itself. Like Cholesky's
    accuracy (van der Sluis), the test is invariant to diagonal scaling.
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
    # each ratio lies in (0, 1], so neither it nor its square can overflow
    ratios = (np.diag(lower) / np.sqrt(np.diag(arr))) ** 2
    if np.any(ratios <= PIVOT_FLOOR):
        raise NotPositiveDefinite(
            f"smallest equilibrated pivot {ratios.min():.3e} <= floor {PIVOT_FLOOR:g}"
        )
    return lower


def spd_solve(lower: np.ndarray, b) -> np.ndarray:
    """Solve A x = b given A's Cholesky factor ``lower``. Accepts 1-d or 2-d b.

    The factor is finite by construction, so instead of scanning both
    operands first, only the solution is checked: a non-finite b, or a solve
    that overflows, is a ValueError rather than a NaN answer.
    """
    arr = np.asarray(b, dtype=np.float64)
    if arr.shape[0] != lower.shape[0]:
        raise DimensionMismatch(
            f"factor dim {lower.shape[0]} does not match rhs length {arr.shape[0]}"
        )
    return finite_solution(np.linalg.solve(lower.T, _lower_solve(lower, arr)))


def _lower_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """lower^-1 b by forward substitution.

    LU with partial pivoting swaps no rows of an upper-triangular matrix, such
    as ``lower.T`` or ``lower`` with its rows and columns reversed, so
    ``np.linalg.solve`` on one is a plain substitution. On ``lower`` itself it
    would pivot, and on ill-conditioned factors lose digits that substitution
    keeps.
    """
    return np.linalg.solve(lower[::-1, ::-1], b[::-1])[::-1]


def finite_solution(x: np.ndarray) -> np.ndarray:
    """x itself; a non-finite entry, the mark of an overflowing input, is a
    ValueError rather than a NaN answer."""
    if not np.all(np.isfinite(x)):
        raise ValueError("linear solve gave non-finite entries (its input overflows)")
    return x


def pencil_eigh(lower: np.ndarray, a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues mu, ascending, and eigenvectors V of the pencil ``a V = b V
    diag(mu)``, ``V' b V = I``, given b's factor L, reduced as LAPACK's sygvd
    does: the eigenvectors W of ``L^-1 a L^-T`` give ``V = L^-T W``."""
    half = _lower_solve(lower, a)
    mu, w = np.linalg.eigh(_lower_solve(lower, half.T))
    return mu, np.linalg.solve(lower.T, w)


def _numpy_blas():
    """A ctypes handle to numpy's core extension, or None where it cannot be
    had. ``dlsym`` on the handle also searches the libraries the extension
    loaded, so numpy's BLAS symbols resolve through it. numpy 1.x keeps the
    extension under ``numpy.core``."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            return ctypes.CDLL(sys.modules[name].__file__)
        except (KeyError, AttributeError, OSError):
            pass
    return None


def _openblas_thread_controls() -> list:
    """[(get, set)]: the thread-count functions of numpy's OpenBLAS, found
    through :func:`_numpy_blas`.

    numpy's wheels bundle OpenBLAS under the symbol prefix ``scipy_openblas``
    (older wheels: ``openblas``), with a ``64_`` suffix for the
    64-bit-integer build. Empty where numpy's BLAS is not OpenBLAS (MKL,
    Accelerate) or the handle cannot be had.
    """
    lib = _numpy_blas()
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return [(get, put)]
    return []


@contextmanager
def blas_single_threaded():
    """Run the block with numpy's OpenBLAS limited to one thread.

    On the small matrices of a replication or a bench method, BLAS threads
    mostly spin waiting for work, which costs CPU time and gains no speed.
    The previous count is restored on exit. Where
    :func:`_openblas_thread_controls` finds no OpenBLAS this does nothing.
    """
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)


def ar1_covariance(p: int, rho: float) -> np.ndarray:
    """AR(1) covariance matrix with entries rho**|j - k|."""
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got {p}")
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho}")
    k = np.arange(p, dtype=np.float64)
    return rho ** np.abs(k[:, None] - k)


def max_eigenvalue(a: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(a)[-1])


class RngStream:
    """Deterministic random stream identified by (seed, stream_id).

    Two streams constructed with equal identifiers replay the same sequence
    on any platform and under any thread schedule. Streams are single-owner:
    parallel code derives sibling streams by choosing distinct stream ids,
    never by sharing one instance. The generator is built at the first draw.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if int(seed) < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)

    @cached_property  # importing numpy.random early adds to a later read's peak memory
    def _gen(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(seq))

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


def sample_gaussian(rng: RngStream, lower: np.ndarray, n: int) -> np.ndarray:
    """Draw n rows of N(0, L @ L.T) as z @ L.T with z std normal."""
    return rng.standard_normal((n, lower.shape[0])) @ lower.T


def bartlett_factor(rng: RngStream, df: int, p: int) -> np.ndarray:
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
    return lower
