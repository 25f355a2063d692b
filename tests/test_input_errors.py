"""Each named input error, raised with its class and its message."""

import re

import numpy as np
import pytest

from helpers import linear_instance
from ulskit import (
    CvSpec,
    Dataset,
    DimensionMismatch,
    EmptyDataset,
    PretrainedModel,
    RngStream,
    SQUARED,
    ar1_covariance,
    cholesky,
    ci_uls,
    compute_stats,
    concat_datasets,
    loss_grad,
    subsample,
    uls,
    variance_uls,
)

X = np.ones((3, 2))
Y = np.ones(3)
EMPTY_FORGET = Dataset(np.zeros((0, 2)), np.zeros(0), "forget")


def _instance():
    model, _, forget, sub = linear_instance(0, p=3)
    return model, forget, sub


def _ci_uls(v):
    model, forget, sub = _instance()
    return ci_uls(model, forget, sub, v)


def _uls_with_forget_of_another_p():
    model, _, sub = _instance()
    return uls(model, Dataset(np.ones((4, 2)), np.ones(4), "forget"), sub)


CASES = {
    "dataset-1d-x": (lambda: Dataset(np.ones(3), Y), DimensionMismatch,
                     "x must be 2-d, got shape (3,)"),
    "dataset-2d-y": (lambda: Dataset(X, np.ones((3, 1))), DimensionMismatch,
                     "y must be 1-d, got shape (3, 1)"),
    "dataset-row-mismatch": (lambda: Dataset(X, np.ones(2)), DimensionMismatch,
                             "x has 3 rows but y has 2 entries"),
    "dataset-no-columns": (lambda: Dataset(np.ones((3, 0)), Y), DimensionMismatch,
                           "datasets need at least one covariate column"),
    "dataset-role": (lambda: Dataset(X, Y, "train"), ValueError,
                     "unknown role 'train'; expected one of"),
    "dataset-nan": (lambda: Dataset(X, np.array([1.0, np.nan, 1.0])), ValueError,
                    "dataset contains non-finite entries"),
    "model-2d-theta": (lambda: PretrainedModel(np.ones((2, 2)), 10, 9, 1),
                       DimensionMismatch, "theta_p must be a vector"),
    "model-inf-theta": (lambda: PretrainedModel(np.array([1.0, np.inf]), 10, 9, 1),
                        ValueError, "theta_p contains non-finite entries"),
    "model-no-remaining": (lambda: PretrainedModel(np.ones(2), 1, 0, 1), ValueError,
                           "n_remaining must be >= 1"),
    "model-negative-forget": (lambda: PretrainedModel(np.ones(2), 4, 5, -1), ValueError,
                              "n_forget must be >= 0"),
    "stats-of-empty": (lambda: compute_stats(EMPTY_FORGET), EmptyDataset,
                       "cannot compute statistics of an empty dataset"),
    "concat-of-empty": (lambda: concat_datasets([EMPTY_FORGET], "forget"), EmptyDataset,
                        "nothing to concatenate"),
    "subsample-of-none": (lambda: subsample(Dataset(X, Y), 0, RngStream(0, 0)),
                          ValueError, "n_sub must be >= 1, got 0"),
    "cholesky-not-square": (lambda: cholesky(np.ones((2, 3))), DimensionMismatch,
                            "matrix must be square, got (2, 3)"),
    "cholesky-inf": (lambda: cholesky(np.array([[np.inf]])), ValueError,
                     "a contains non-finite entries"),
    "ar1-no-dimension": (lambda: ar1_covariance(0, 0.3), ValueError,
                         "dimension must be >= 1, got 0"),
    "cv-grid-zero": (lambda: CvSpec(grid=(0.0, 1.0)), ValueError,
                     "grid values must be positive"),
    "cv-grid-inf": (lambda: CvSpec(grid=(1.0, np.inf)), ValueError,
                    "grid values must be positive and finite, got (1.0, inf)"),
    "cv-grid-nan": (lambda: CvSpec(grid=(1.0, np.nan)), ValueError,
                    "grid values must be positive and finite, got (1.0, nan)"),
    "loss-grad-theta": (lambda: loss_grad(SQUARED, np.ones(3), Dataset(X, Y)),
                        DimensionMismatch, "theta has shape (3,), dataset has p=2"),
    "uls-forget-p": (_uls_with_forget_of_another_p, DimensionMismatch,
                     "dataset has p=2, model has p=3"),
    "ci-uls-v-length": (lambda: _ci_uls(np.ones(2)), DimensionMismatch,
                        "direction has length 2, expected 3"),
    "ci-uls-v-2d": (lambda: _ci_uls(np.ones((3, 1))), DimensionMismatch,
                    "v must be 1-d, got shape (3, 1)"),
    "ci-uls-v-nan": (lambda: _ci_uls(np.array([1.0, np.nan, 0.0])), ValueError,
                     "v contains non-finite entries"),
    "variance-uls-lengths": (lambda: variance_uls(np.ones(3), np.ones(2), 5),
                             DimensionMismatch, "a and b must be vectors of equal length"),
}


@pytest.mark.parametrize("call, cls, message", CASES.values(), ids=CASES.keys())
def test_named_input_error(call, cls, message):
    with pytest.raises(cls, match=re.escape(message)) as info:
        call()
    assert info.type is cls
