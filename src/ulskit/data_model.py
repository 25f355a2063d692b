"""Datasets, sufficient statistics, subsampling, and file formats.

A dataset is an immutable (X, y) pair with a role tag. All squared-loss
machinery downstream consumes datasets through their normalized sufficient
statistics: the Gram matrix X'X/n and cross-moment X'y/n. Normalizing by the
dataset's own row count keeps the remaining/forget weight algebra free of
sample-size scaling mistakes.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyDataset,
    ParseError,
    SchemaMismatch,
    SubsampleTooLarge,
)
from .numerics import RngStream

ROLES = ("remaining", "forget", "subsample", "test")

LOSS_IDS = ("squared", "logistic")


@dataclass(frozen=True)
class Dataset:
    """Rows of (covariate vector, response) with a role tag.

    Only a forget set may be empty; every other role needs at least one row.
    No intercept handling: append a constant-1 column yourself if you want one.
    """

    x: np.ndarray
    y: np.ndarray
    role: str = "remaining"

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 2:
            raise DimensionMismatch(f"x must be 2-d, got shape {x.shape}")
        if y.ndim != 1:
            raise DimensionMismatch(f"y must be 1-d, got shape {y.shape}")
        if x.shape[0] != y.shape[0]:
            raise DimensionMismatch(
                f"x has {x.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if x.shape[1] < 1:
            raise DimensionMismatch("datasets need at least one covariate column")
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}; expected one of {ROLES}")
        if x.shape[0] == 0 and self.role != "forget":
            raise EmptyDataset(f"role {self.role!r} may not be empty")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def with_role(self, role: str) -> "Dataset":
        return Dataset(self.x, self.y, role)


@dataclass(frozen=True)
class SufficientStats:
    """Normalized second moments of a dataset: sigma = X'X/n, m = X'y/n.

    ``a + b`` pools two disjoint row sets; ``a - b`` removes the subset ``b``.
    """

    sigma: np.ndarray
    m: np.ndarray
    n: int

    def __add__(self, other: "SufficientStats") -> "SufficientStats":
        return self._merge(other, other.n)

    def __sub__(self, other: "SufficientStats") -> "SufficientStats":
        return self._merge(other, -other.n)

    def _merge(self, other: "SufficientStats", k: int) -> "SufficientStats":
        n = self.n + k
        sigma = (self.n * self.sigma + k * other.sigma) / n
        m = (self.n * self.m + k * other.m) / n
        return SufficientStats(sigma=sigma, m=m, n=n)


@dataclass(frozen=True)
class PretrainedModel:
    """Coefficients fitted on the full data plus the sample-count bookkeeping."""

    theta_p: np.ndarray
    n_total: int
    n_remaining: int
    n_forget: int
    loss_id: str = "squared"

    def __post_init__(self):
        theta = np.asarray(self.theta_p, dtype=np.float64)
        if theta.ndim != 1:
            raise DimensionMismatch("theta_p must be a vector")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta_p contains non-finite entries")
        if self.n_total != self.n_remaining + self.n_forget:
            raise ValueError(
                f"n_total={self.n_total} != n_remaining={self.n_remaining}"
                f" + n_forget={self.n_forget}"
            )
        if self.n_remaining < 1:
            raise ValueError("n_remaining must be >= 1 (forget fraction < 1)")
        if self.n_forget < 0:
            raise ValueError("n_forget must be >= 0")
        if self.loss_id not in LOSS_IDS:
            raise ValueError(f"unknown loss {self.loss_id!r}")
        object.__setattr__(self, "theta_p", theta)

    @property
    def p(self) -> int:
        return self.theta_p.shape[0]

    def weights(self, n_sub: int | None = None) -> "WeightProfile":
        return WeightProfile.from_counts(
            self.n_total, self.n_remaining, self.n_forget, n_sub
        )


@dataclass(frozen=True)
class WeightProfile:
    """Forget/remaining proportions; omega_f + omega_r = 1 exactly."""

    omega_f: float
    omega_r: float
    tilde_omega_r: float = 1.0

    @classmethod
    def from_counts(
        cls,
        n_total: int,
        n_remaining: int,
        n_forget: int,
        n_sub: int | None = None,
    ) -> "WeightProfile":
        if n_total != n_remaining + n_forget:
            raise ValueError("counts are inconsistent")
        omega_f = n_forget / n_total
        if not 0.0 <= omega_f < 1.0:
            raise ValueError(f"omega_f must lie in [0, 1), got {omega_f}")
        tilde = 1.0 if n_sub is None else n_sub / n_remaining
        if not 0.0 < tilde <= 1.0:
            raise ValueError(f"tilde_omega_r must lie in (0, 1], got {tilde}")
        # exact complement so omega_f + omega_r == 1 holds bitwise
        return cls(omega_f=omega_f, omega_r=1.0 - omega_f, tilde_omega_r=tilde)


def compute_stats(d: Dataset) -> SufficientStats:
    """Normalized Gram matrix and cross-moment of a nonempty dataset."""
    if d.n == 0:
        raise EmptyDataset("cannot compute statistics of an empty dataset")
    sigma = d.x.T @ d.x / d.n
    m = d.x.T @ d.y / d.n
    return SufficientStats(sigma=sigma, m=m, n=d.n)


def concat_datasets(parts, role: str) -> Dataset:
    """Stack datasets row-wise under a single role."""
    parts = [d for d in parts if d.n > 0]
    if not parts:
        raise EmptyDataset("nothing to concatenate")
    x = np.concatenate([d.x for d in parts], axis=0)
    y = np.concatenate([d.y for d in parts], axis=0)
    return Dataset(x, y, role)


def subsample(d: Dataset, n_sub: int, rng: RngStream) -> Dataset:
    """Uniform subsample of n_sub rows drawn without replacement."""
    if n_sub < 1:
        raise ValueError(f"n_sub must be >= 1, got {n_sub}")
    if n_sub > d.n:
        raise SubsampleTooLarge(f"requested {n_sub} rows from a dataset of {d.n}")
    idx = rng.choice_without_replacement(d.n, n_sub)
    return Dataset(d.x[idx], d.y[idx], "subsample")


def split_train_test(d: Dataset, test_fraction: float, rng: RngStream):
    """Disjoint (train, test) partition; the test side gets round(n * fraction) rows."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n_test = int(round(d.n * test_fraction))
    n_test = min(max(n_test, 1), d.n - 1)
    perm = rng.permutation(d.n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    train = Dataset(d.x[train_idx], d.y[train_idx], d.role)
    test = Dataset(d.x[test_idx], d.y[test_idx], "test")
    return train, test


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------
# CSV: header "y,x1,...,xp", decimal literals, UTF-8, comma separator, no
# quoting. Model JSON: {"theta": [...], "n_total": N, "n_remaining": Nr,
# "n_forget": Nf, "loss": "squared"|"logistic"}.

_HEADER_RE = re.compile(r"^x([1-9][0-9]*)$")


def _check_header(fields, path) -> int:
    if not fields or fields[0] != "y":
        raise SchemaMismatch(f"{path}: header must start with 'y', got {fields[:1]}")
    p = len(fields) - 1
    if p < 1:
        raise SchemaMismatch(f"{path}: header needs at least one covariate column")
    for j, name in enumerate(fields[1:], start=1):
        match = _HEADER_RE.match(name)
        if not match or int(match.group(1)) != j:
            raise SchemaMismatch(
                f"{path}: column {j + 1} named {name!r}, expected 'x{j}'"
            )
    return p


def load_csv(path, role: str = "remaining", expected_p: int | None = None) -> Dataset:
    """Read a y,x1,...,xp CSV into a dataset.

    Parse failures point at the offending cell (1-based row and column, the
    header counting as row 1). Non-finite literals such as NaN are rejected.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaMismatch(f"{path}: file is empty")
            p = _check_header(header, path)
            if expected_p is not None and p != expected_p:
                raise SchemaMismatch(f"{path}: expected p={expected_p}, file has p={p}")
            ys = []
            rows = []
            for row_idx, fields in enumerate(reader, start=2):
                if len(fields) != p + 1:
                    raise ParseError(
                        f"{path}: row {row_idx} has {len(fields)} fields,"
                        f" expected {p + 1}"
                    )
                values = np.empty(p + 1)
                for col_idx, cell in enumerate(fields, start=1):
                    try:
                        value = float(cell)
                    except ValueError:
                        raise ParseError(
                            f"{path}: row {row_idx}, column {col_idx}:"
                            f" cannot parse {cell!r}"
                        ) from None
                    if not np.isfinite(value):
                        raise ParseError(
                            f"{path}: row {row_idx}, column {col_idx}:"
                            f" non-finite value {cell!r}"
                        )
                    values[col_idx - 1] = value
                ys.append(values[0])
                rows.append(values[1:])
        except csv.Error as exc:  # e.g. a cell over the field size limit
            raise ParseError(f"{path}: row {reader.line_num}: {exc}") from None
    if rows:
        x = np.vstack(rows)
        y = np.asarray(ys)
    else:
        x = np.empty((0, p))
        y = np.empty(0)
    return Dataset(x, y, role)


def save_csv(d: Dataset, path) -> None:
    """Write a dataset as y,x1,...,xp with 17-significant-digit literals."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        header = "y," + ",".join(f"x{j}" for j in range(1, d.p + 1))
        fh.write(header + "\n")
        np.savetxt(fh, np.column_stack([d.y, d.x]), fmt="%.17g", delimiter=",")


def save_model(model: PretrainedModel, path) -> None:
    payload = {
        "theta": [float(v) for v in model.theta_p],
        "n_total": model.n_total,
        "n_remaining": model.n_remaining,
        "n_forget": model.n_forget,
        "loss": model.loss_id,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path) -> PretrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaMismatch(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise SchemaMismatch(f"{path}: model JSON must be an object")
    required = {"theta", "n_total", "n_remaining", "n_forget", "loss"}
    missing = required - set(payload)
    if missing:
        raise SchemaMismatch(f"{path}: model JSON missing keys {sorted(missing)}")
    try:
        return PretrainedModel(
            theta_p=np.asarray(payload["theta"], dtype=np.float64),
            n_total=int(payload["n_total"]),
            n_remaining=int(payload["n_remaining"]),
            n_forget=int(payload["n_forget"]),
            loss_id=str(payload["loss"]),
        )
    except (TypeError, ValueError, DimensionMismatch) as exc:
        raise SchemaMismatch(f"{path}: {exc}") from None
