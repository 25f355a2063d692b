"""Datasets, sufficient statistics, the pretrained model, and file formats.

A dataset is an immutable (X, y) pair with a role tag. All squared-loss
machinery downstream consumes datasets through their normalized sufficient
statistics: the Gram matrix X'X/n and cross-moment X'y/n. Normalizing by the
dataset's own row count keeps the remaining/forget weight algebra free of
sample-size scaling mistakes; the weights themselves, omega_f = Nf/N and
omega_r = 1 - omega_f, are properties of the pretrained model.
"""

from __future__ import annotations

import csv
import json
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


def check_loss(loss: str) -> None:
    """A loss is one of the names of :data:`LOSS_IDS`."""
    if loss not in LOSS_IDS:
        raise ValueError(f"unknown loss {loss!r}; expected one of {LOSS_IDS}")


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


@dataclass(frozen=True)
class SufficientStats:
    """Normalized second moments of a dataset: sigma = X'X/n, m = X'y/n.

    ``a + b`` pools two disjoint row sets; ``a - b`` removes the subset ``b``.
    """

    sigma: np.ndarray
    m: np.ndarray
    n: int

    def __post_init__(self):
        if not (np.all(np.isfinite(self.sigma)) and np.all(np.isfinite(self.m))):
            raise ValueError(
                "the data's moments overflow: X'X/n or X'y/n is not finite"
            )

    @property
    def p(self) -> int:
        return self.m.shape[0]

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
    """Coefficients fitted on the full data plus the sample-count bookkeeping,
    from which the proportions :attr:`omega_f` and :attr:`omega_r` follow."""

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
        check_loss(self.loss_id)
        object.__setattr__(self, "theta_p", theta)

    @property
    def p(self) -> int:
        return self.theta_p.shape[0]

    @property
    def omega_f(self) -> float:
        """The forget proportion N_f / N."""
        return self.n_forget / self.n_total

    @property
    def omega_r(self) -> float:
        """The remaining proportion, the exact complement: omega_f + omega_r == 1."""
        return 1.0 - self.omega_f


def compute_stats(d: Dataset) -> SufficientStats:
    """Normalized Gram matrix and cross-moment of a nonempty dataset."""
    if d.n == 0:
        raise EmptyDataset("cannot compute statistics of an empty dataset")
    # an overflow is reported once, by SufficientStats, as a named error
    with np.errstate(over="ignore", invalid="ignore"):
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


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------
# CSV: header "y,x1,...,xp", float() literals, UTF-8, comma separator, one
# record per line, no comment or blank lines; a quoted cell reads as unquoted.
# Model JSON: {"theta": [...], "n_total": N, "n_remaining": Nr, "n_forget": Nf,
# "loss": "squared"|"logistic"}. Results and summaries: indented JSON with
# sorted keys (save_json). Output tables (simulation records, bench results,
# CV audits): a header line, then one comma-separated row per line (save_table).

def _check_header(fields, path) -> int:
    if not fields or fields[0] != "y":
        raise SchemaMismatch(f"{path}: header must start with 'y', got {fields[:1]}")
    p = len(fields) - 1
    if p < 1:
        raise SchemaMismatch(f"{path}: header needs at least one covariate column")
    for j, name in enumerate(fields[1:], start=1):
        if name != f"x{j}":
            raise SchemaMismatch(
                f"{path}: column {j + 1} named {name!r}, expected 'x{j}'"
            )
    return p


def load_csv(path, role: str = "remaining", expected_p: int | None = None) -> Dataset:
    """Read a y,x1,...,xp CSV into a dataset.

    Parse failures point at the offending cell (1-based row and column, the
    header counting as row 1). Non-finite literals such as NaN are rejected.
    A file with no data rows is an input error unless it is a forget set.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaMismatch(f"{path}: file is empty")
        p = _check_header(header, path)
        if expected_p is not None and p != expected_p:
            raise SchemaMismatch(f"{path}: expected p={expected_p}, file has p={p}")
        table = _parse_body(lines[reader.line_num:], p)
        if table is None:
            table = _scan_cells(reader, p, path)
    except csv.Error as exc:  # e.g. a cell over the field size limit
        raise ParseError(f"{path}: row {reader.line_num}: {exc}") from None
    if table.shape[0] == 0 and role != "forget":
        raise SchemaMismatch(f"{path}: no data rows, but role {role!r} needs some")
    return Dataset(np.ascontiguousarray(table[:, 1:]), table[:, 0].copy(), role)


# ASCII separators that np.loadtxt strips around a number and float() rejects
_FS, _GS, _RS, _US = "\x1c", "\x1d", "\x1e", "\x1f"


def _parse_body(lines, p: int) -> np.ndarray | None:
    """The body lines as an (n, p + 1) array from one np.loadtxt, or None.

    The array stands only where the cell scan would give the same one: one
    finite record of p + 1 fields per line (np.loadtxt skips blank lines and
    joins quoted line breaks, so either changes the row count), no cell over
    the csv module's size limit, and no character that np.loadtxt and
    float() read differently. On None the cell scan decides.
    """
    # np.loadtxt warns on an input without rows, so the first line must be one
    if not lines or "," not in lines[0]:
        return None
    limit = csv.field_size_limit()
    if any(
        len(line) > limit and max(map(len, line.split(","))) > limit
        for line in lines
    ):
        return None
    if any(_FS in line or _GS in line or _RS in line or _US in line for line in lines):
        return None
    try:
        # comments=None: "#" is no comment marker in this format
        table = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except Exception:  # whatever np.loadtxt refuses, the cell scan rules on
        return None
    if table.shape != (len(lines), p + 1) or not np.all(np.isfinite(table)):
        return None
    return table


def _scan_cells(reader, p: int, path) -> np.ndarray:
    """Parse the rest of ``reader`` cell by cell with float(), naming a bad cell."""
    rows = []
    for row_idx, fields in enumerate(reader, start=2):
        if len(fields) != p + 1:
            raise ParseError(
                f"{path}: row {row_idx} has {len(fields)} fields, expected {p + 1}"
            )
        values = []
        for col_idx, cell in enumerate(fields, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {row_idx}, column {col_idx}: cannot parse {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise ParseError(
                    f"{path}: row {row_idx}, column {col_idx}:"
                    f" non-finite value {cell!r}"
                )
            values.append(value)
        rows.append(values)
    return np.array(rows, dtype=np.float64).reshape(len(rows), p + 1)


def save_csv(d: Dataset, path) -> None:
    """Write a dataset as y,x1,...,xp with 17-significant-digit literals."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        header = "y," + ",".join(f"x{j}" for j in range(1, d.p + 1))
        fh.write(header + "\n")
        np.savetxt(fh, np.column_stack([d.y, d.x]), fmt="%.17g", delimiter=",")


def _cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else format(value, ".17g")


def save_table(header, rows, path) -> None:
    """Write a CSV table: the ``header`` names, then one line per row, with
    text cells as they are, numbers as 17-significant-digit literals (a bool
    as 1 or 0, inf and nan as such) and None as an empty cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def save_json(payload: dict, path) -> None:
    """Write a result or summary as indented JSON with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    counts = {k: payload[k] for k in ("n_total", "n_remaining", "n_forget")}
    for key, value in counts.items():  # ints (not bools), or integral floats
        if not (type(value) is int or isinstance(value, float) and value.is_integer()):
            raise SchemaMismatch(f"{path}: {key} must be an integer, got {value!r}")
        counts[key] = int(value)
    try:
        return PretrainedModel(
            theta_p=np.asarray(payload["theta"], dtype=np.float64),
            loss_id=str(payload["loss"]),
            **counts,
        )
    except (TypeError, ValueError, OverflowError, DimensionMismatch) as exc:
        raise SchemaMismatch(f"{path}: {exc}") from None
