"""Property tests of the batched coordinate-descent kernel on small edge cases.

Instances cover p > n, q = 1, collinear columns and an all-zero response.
Every level must end with a nonincreasing trace and either meet the KKT
conditions to ``kkt_tol`` or have used all ``max_sweeps``.  Leave-one-out
cross-validation (k = n) on the same instances, in both estimator modes,
must solve every (fold, lambda) cell and give the same output at any
``jobs`` level.
"""

import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from larn import group_solver, simbench
from larn.estimator import LarnConfig
from larn.group_solver import Dataset, SolverSettings, bcd_solve_path, kkt_residual
from larn.model_selection import CvGrid, cross_validate

MAX_SWEEPS = 300
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None)


@st.composite
def instances(draw):
    n = draw(st.integers(2, 8))
    p = draw(st.integers(1, 12))
    q = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((n, p))
    if p > 1 and draw(st.booleans()):
        X[:, -1] = draw(st.sampled_from([-2.0, 0.5, 1.0])) * X[:, 0]
    if draw(st.booleans()):
        Y = np.zeros((n, q))
    else:
        Y = X @ rng.standard_normal((p, q)) + rng.standard_normal((n, q))
    lambdas = 10.0 ** np.array(draw(st.lists(st.floats(-2.0, 3.0), min_size=1,
                                             max_size=4)))
    return Dataset(X, Y), lambdas, rng


def lasso_kkt(data, B, lam):
    # entrywise lasso conditions for ||Y - XB||^2 + lam ||B||_1
    G = data.X.T @ (data.Y - data.X @ B)
    return np.max(np.where(B != 0, np.abs(2.0 * G - lam * np.sign(B)),
                           np.maximum(np.abs(G) - 0.5 * lam, 0.0)))


def assert_level_done(trace, kkt, kkt_tol):
    scale = max(1.0, abs(trace[0]))
    assert np.all(np.diff(trace) <= 1e-12 * scale)
    assert kkt <= kkt_tol or len(trace) - 1 == MAX_SWEEPS


@PROPERTY_SETTINGS
@given(instances())
def test_group_path_certified_or_exhausted(case):
    data, lambdas, rng = case
    w = rng.uniform(0.0, 2.0, data.p)
    solver = SolverSettings(max_sweeps=MAX_SWEEPS)
    stack, traces = bcd_solve_path(data, w, lambdas, settings=solver)
    for B, lam, trace in zip(stack, lambdas, traces):
        kkt = np.max(kkt_residual(data, B, w, lam))
        assert_level_done(trace, kkt, solver.kkt_tol)


@PROPERTY_SETTINGS
@given(instances())
def test_lasso_path_certified_or_exhausted(case):
    data, lambdas, _ = case
    runs = []

    def recording(*args, **kwargs):
        runs.append(group_solver._cd_path(*args, **kwargs))
        return runs[-1]

    with mock.patch.object(simbench, "_cd_path", recording):
        stack = simbench.lasso_path(data, lambdas, max_sweeps=MAX_SWEEPS)
    # one single-column kernel level per (lambda, column), column k of
    # lambda l at l q + k
    (columns, traces), = runs
    q = data.q
    assert np.array_equal(stack, columns.reshape(len(lambdas), q, data.p).transpose(0, 2, 1))
    for i, trace in enumerate(traces):
        l, k = divmod(i, q)
        B = stack[l][:, [k]]
        kkt = lasso_kkt(Dataset(data.X, data.Y[:, [k]]), B, lambdas[l])
        assert_level_done(trace, kkt, SolverSettings().kkt_tol)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(instances(), st.booleans(), st.integers(0, 2 ** 16))
def test_leave_one_out_cross_validation(case, one_step, seed):
    data, lambdas, _ = case
    grid = CvGrid(lambdas=lambdas, n_thresholds=3, k=data.n, seed=seed)
    config = LarnConfig(one_step=one_step)
    with warnings.catch_warnings():
        # p > n - 1 starts are rank deficient, and short full-mode fits may
        # stop uncertified; neither is what this test checks
        warnings.simplefilter("ignore", RuntimeWarning)
        serial = cross_validate(data, config, grid, jobs=1)
        pooled = cross_validate(data, config, grid, jobs=2)
    assert serial.fit_count == data.n * len(lambdas)
    assert np.all(np.isfinite(serial.cv_rmse))
    for name in ("cv_rmse", "per_fold_sse", "thresholds"):
        assert np.array_equal(getattr(serial, name), getattr(pooled, name))
    assert (serial.best_index, serial.fit_count) == (pooled.best_index, pooled.fit_count)
    assert np.array_equal(serial.full_fit.b_hat, pooled.full_fit.b_hat)
