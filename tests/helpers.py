"""Shared generators for the test suite."""

import numpy as np
from scipy.special import expit

from ulskit import (
    Dataset,
    LOGISTIC,
    PretrainedModel,
    RngStream,
    SQUARED,
    concat_datasets,
    pretrain,
    subsample,
)


def linear_instance(
    seed,
    n_r=400,
    n_f=40,
    p=5,
    n_sub=120,
    delta=2.0,
    sub_is_remaining=False,
):
    """One synthetic squared-loss unlearning problem.

    Returns (model, remaining, forget, sub) with the model pretrained on
    remaining + forget.
    """
    rng = RngStream(seed, 0)
    theta_r = rng.standard_normal(p)
    theta_f = theta_r + delta / np.sqrt(p)
    x_r = rng.standard_normal((n_r, p))
    y_r = x_r @ theta_r + rng.standard_normal(n_r)
    x_f = rng.standard_normal((n_f, p))
    y_f = x_f @ theta_f + rng.standard_normal(n_f)
    remaining = Dataset(x_r, y_r, "remaining")
    forget = Dataset(x_f, y_f, "forget")
    full = concat_datasets([remaining, forget], "remaining")
    model = pretrain(SQUARED, full, n_forget=n_f)
    if sub_is_remaining:
        sub = Dataset(remaining.x, remaining.y, "subsample")
    else:
        sub = subsample(remaining, n_sub, RngStream(seed, 1))
    return model, remaining, forget, sub


def near_range_instance():
    """A valid p = 3 squared-loss model whose coefficients are +-1e307, with
    20 forget rows of covariates x 10 and a 40-row subsample: sigma_f theta_p
    lies beyond the double range, so uls overflows where ols does not.

    Returns (model, forget, sub).
    """
    rng = RngStream(0, 0)
    x = rng.standard_normal((60, 3))
    y = x @ np.ones(3) + rng.standard_normal(60)
    model = PretrainedModel(np.array([1e307, -1e307, 1e307]), n_total=100,
                            n_remaining=80, n_forget=20)
    forget = Dataset(10.0 * x[:20], y[:20], "forget")
    return model, forget, Dataset(x[20:], y[20:], "subsample")


def logistic_instance(seed, n_r=1800, n_f=200, p=6, shift=1.0):
    """A non-separable binary-response instance for the generic-loss path."""
    rng = RngStream(seed, 0)
    theta_r = rng.standard_normal(p) * 0.5
    theta_f = theta_r + shift / np.sqrt(p)
    x_r = rng.standard_normal((n_r, p))
    y_r = (rng.uniform(n_r) < expit(x_r @ theta_r)).astype(float)
    x_f = rng.standard_normal((n_f, p))
    y_f = (rng.uniform(n_f) < expit(x_f @ theta_f)).astype(float)
    remaining = Dataset(x_r, y_r, "remaining")
    forget = Dataset(x_f, y_f, "forget")
    full = concat_datasets([remaining, forget], "remaining")
    model = pretrain(LOGISTIC, full, n_forget=n_f)
    return model, remaining, forget


def rows_as_multiset(d):
    """Lexicographically sorted (y, x...) rows for multiset comparisons."""
    stacked = np.column_stack([d.y, d.x])
    order = np.lexsort(stacked.T[::-1])
    return stacked[order]
