"""Property tests of the closed forms and their paths.

Rescaling the columns of the design rescales every closed form's
coefficients and leaves GradDiff's threshold alone, for scales far apart
enough that a pivot floor relative to trace(A) would reject the Gram. An
empty forget set is the identity. GradDiff's path is feasible exactly above
the threshold, up to the pivot floor."""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import eigh

from helpers import linear_instance
from ulskit import Dataset, prepare, uls
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


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(0, 10**6), st.integers(1, 8), st.integers(0, 40),
       st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=8))
def test_empty_forget_set_is_the_identity(seed, p, n_f, lams):
    # whatever forget count the model was pretrained with
    model, _, _, sub = linear_instance(seed, n_f=n_f, p=p, n_sub=3 * p + 10)
    empty = Dataset(np.empty((0, p)), np.empty(0), "forget")
    assert np.array_equal(uls(model, empty, sub).theta, model.theta_p)
    thetas = SOLVERS["uls+"].path(prepare(model, empty, sub), np.array(lams))
    assert np.array_equal(thetas, np.repeat(model.theta_p[:, None], len(lams), axis=1))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.integers(0, 10**6), st.integers(1, 8),
       st.lists(st.floats(-10.0, 3.0), min_size=1, max_size=8))
@example(seed=0, p=5, exponents=[-10.0])
def test_graddiff_path_is_feasible_exactly_above_the_threshold(seed, p, exponents):
    model, _, forget, sub = linear_instance(seed, p=p, n_sub=3 * p + 10)
    pb = prepare(model, forget, sub)
    mu_max = eigh(pb.st_f.sigma, pb.st_sub.sigma, eigvals_only=True)[-1]
    gaps = 10.0 ** np.array(exponents)  # relative distances from mu_max
    path = SOLVERS["graddiff"].path
    assert np.all(np.isfinite(path(pb, mu_max * (1.0 + gaps)))), mu_max
    assert np.all(np.isnan(path(pb, mu_max * (1.0 - gaps)))), mu_max
