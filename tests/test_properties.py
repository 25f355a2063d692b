"""Property tests: rescaling the columns of the design rescales every closed
form's coefficients and leaves GradDiff's threshold alone, for scales far
apart enough that a pivot floor relative to trace(A) would reject the Gram."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from helpers import linear_instance
from ulskit import Dataset, prepare
from ulskit.estimators import SOLVERS, graddiff_threshold

P = 5
MODEL, _, FORGET, SUB = linear_instance(40, p=P, n_sub=150)
PROBLEM = prepare(MODEL, FORGET, SUB)
LAMS = {"ols": None, "uls": None, "uls+": 0.5,
        "graddiff": 2.0 * graddiff_threshold(PROBLEM) + 1.0}


def _scaled(d: Dataset, c) -> Dataset:
    return Dataset(d.x * c, d.y, d.role)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.lists(st.floats(-4.0, 4.0), min_size=P, max_size=P))
def test_column_scaling_rescales_the_coefficients(exponents):
    c = 10.0 ** np.array(exponents)  # log-uniform in [1e-4, 1e4]
    model = replace(MODEL, theta_p=MODEL.theta_p / c)
    scaled = prepare(model, _scaled(FORGET, c), _scaled(SUB, c))
    for method, lam in LAMS.items():
        theta = SOLVERS[method].fit(PROBLEM, lam).theta
        theta_scaled = SOLVERS[method].fit(scaled, lam).theta
        assert_allclose(theta_scaled * c, theta, rtol=1e-9,
                        atol=1e-12 * np.linalg.norm(theta), err_msg=method)
    assert_allclose(graddiff_threshold(scaled), graddiff_threshold(PROBLEM),
                    rtol=1e-12)
