import numpy as np
import pytest

from larn.group_solver import (Dataset, SolverError, SolverSettings, bcd_solve,
                               bcd_solve_path, element_support, kkt_residual,
                               objective, row_support)

from oracle_gridsearch import grid_min_objective


def naive_objective(X, Y, B, weights, lam):
    # elementwise recomputation with explicit loops
    n, q = Y.shape
    p = X.shape[1]
    total = 0.0
    for i in range(n):
        for k in range(q):
            pred = 0.0
            for j in range(p):
                pred += X[i, j] * B[j, k]
            total += (Y[i, k] - pred) ** 2
    for j in range(p):
        norm = 0.0
        for k in range(q):
            norm += B[j, k] ** 2
        total += lam * weights[j] * np.sqrt(norm)
    return total


def random_instance(seed, n=20, p=8, q=4, row_frac=0.4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    B0 = np.zeros((p, q))
    live = rng.random(p) < row_frac
    B0[live] = rng.normal(1.5, 1.0, (live.sum(), q))
    Y = X @ B0 + rng.standard_normal((n, q))
    return Dataset(X, Y)


class TestDataset:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros((4, 1)))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0], [np.nan]]), np.zeros((2, 1)))

    def test_dims(self):
        d = Dataset(np.zeros((5, 3)), np.zeros((5, 2)))
        assert (d.n, d.p, d.q) == (5, 3, 2)


class TestSupports:
    def test_row_support(self):
        B = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, -2.0]])
        assert list(row_support(B)) == [1, 2]

    def test_element_support(self):
        B = np.array([[0.0, 3.0]])
        assert element_support(B).tolist() == [[False, True]]


class TestObjective:
    def test_perfect_fit_no_penalty(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        B = rng.standard_normal((3, 2))
        d = Dataset(X, X @ B)
        assert objective(d, B, np.ones(3), 0.0) == pytest.approx(0.0, abs=1e-18)

    def test_zero_matrix(self):
        d = random_instance(1)
        val = objective(d, np.zeros((d.p, d.q)), np.ones(d.p), 3.0)
        assert val == pytest.approx(np.sum(d.Y ** 2), rel=1e-14)

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((3, 2))
        Y = rng.standard_normal((3, 2))
        B = rng.standard_normal((2, 2))
        w = rng.uniform(0.1, 1.0, 2)
        d = Dataset(X, Y)
        assert objective(d, B, w, 1.7) == pytest.approx(
            naive_objective(X, Y, B, w, 1.7), abs=1e-12)


class TestRowUpdate:
    def test_unpenalized_orthonormal_is_least_squares(self):
        rng = np.random.default_rng(2)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        Y = rng.standard_normal((6, 3))
        d = Dataset(Q, Y)
        B, _ = bcd_solve(d, np.ones(6), 0.0)
        np.testing.assert_allclose(B, Q.T @ Y, atol=1e-10)

    def test_single_row_closed_form(self):
        # stationarity 2g = (2s + lam*w/||b||) b solved by hand: shrink g by
        # (1 - (lam w / 2)/||g||) = 1 - 2/5
        d = Dataset(np.array([[1.0]]), np.array([[3.0, 4.0]]))
        B, _ = bcd_solve(d, np.array([1.0]), 4.0)
        np.testing.assert_allclose(B, [[1.8, 2.4]], atol=1e-12)
        # dense grid confirmation around the solution
        grid = np.arange(0.0, 3.0, 0.005)
        bb1, bb2 = np.meshgrid(grid, grid, indexing="ij")
        vals = ((3.0 - bb1) ** 2 + (4.0 - bb2) ** 2
                + 4.0 * np.sqrt(bb1 ** 2 + bb2 ** 2))
        assert objective(d, B, np.array([1.0]), 4.0) <= np.min(vals) + 1e-6

    def test_zero_condition(self):
        d = Dataset(np.array([[1.0]]), np.array([[3.0, 4.0]]))
        B, _ = bcd_solve(d, np.array([1.0]), 12.0)  # lam*w/2 = 6 >= ||g|| = 5
        assert np.all(B == 0.0)

    def test_updated_rows_collinear_with_gradient(self):
        d = random_instance(11)
        w = np.random.default_rng(11).uniform(0.2, 1.0, d.p)
        B, _ = bcd_solve(d, w, 3.0)
        R = d.Y - d.X @ B
        for j in row_support(B):
            g = d.X[:, j] @ R + (d.X[:, j] @ d.X[:, j]) * B[j]
            cos = g @ B[j] / (np.linalg.norm(g) * np.linalg.norm(B[j]))
            assert cos == pytest.approx(1.0, abs=1e-8)


class TestConvergence:
    def test_trace_nonincreasing(self):
        for seed in range(5):
            d = random_instance(seed)
            w = np.random.default_rng(seed).uniform(0.1, 2.0, d.p)
            _, trace = bcd_solve(d, w, 2.5)
            assert np.all(np.diff(trace) <= 1e-12)

    def test_kkt_certificate_random_instances(self):
        for seed in range(100):
            d = random_instance(seed, n=20, p=8, q=4)
            w = np.random.default_rng(seed).uniform(0.1, 2.0, d.p)
            B, _ = bcd_solve(d, w, 2.5)
            assert np.max(kkt_residual(d, B, w, 2.5)) <= 1e-6

    def test_solution_not_worse_than_dense_grid(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((10, 2))
            Y = X @ rng.normal(0, 0.4, (2, 2)) + 0.5 * rng.standard_normal((10, 2))
            d = Dataset(X, Y)
            w = rng.uniform(0.2, 1.0, 2)
            lam = rng.uniform(0.5, 4.0)
            B, _ = bcd_solve(d, w, lam, settings=SolverSettings(tol=1e-12, kkt_tol=1e-8))
            gmin = grid_min_objective(X, Y, w, lam, step=0.02, lo=-3.0, hi=3.0)
            assert objective(d, B, w, lam) <= gmin + 1e-4

    def test_unpenalized_weight_row(self):
        # w_j = 0 rows take the plain least-squares update
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        Y = rng.standard_normal((5, 2))
        d = Dataset(Q, Y)
        w = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        B, _ = bcd_solve(d, w, 1e6)
        np.testing.assert_allclose(B[0], (Q.T @ Y)[0], atol=1e-10)
        assert np.all(B[1:] == 0.0)


def residual_form_sweeps(X, Y, w, lam, B, sweeps):
    # plain cyclic block updates that read x_j'R and update R
    B = B.copy()
    R = Y - X @ B
    s = np.einsum("ij,ij->j", X, X)
    for _ in range(sweeps):
        for j in range(X.shape[1]):
            g = X[:, j] @ R + s[j] * B[j]
            norm = np.linalg.norm(g)
            b = max(0.0, 1.0 - lam * w[j] / (2.0 * norm)) * g / s[j] if norm > 0 else 0.0 * g
            R -= np.outer(X[:, j], b - B[j])
            B[j] = b
    return B


class TestGramForm:
    @pytest.mark.parametrize("n, p", [(80, 12), (12, 15)])
    def test_gram_updates_match_residual_form(self, n, p):
        # each level equals the residual-form iterate after as many sweeps
        d = random_instance(21, n=n, p=p, q=5)
        w = np.random.default_rng(21).uniform(0.2, 2.0, d.p)
        lambdas = np.logspace(-2, 3, 12)
        B0 = np.linalg.lstsq(d.X, d.Y, rcond=None)[0]
        stack, traces = bcd_solve_path(d, w, lambdas, init=B0)
        for B, lam, trace in zip(stack, lambdas, traces):
            ref = residual_form_sweeps(d.X, d.Y, w, lam, B0, len(trace) - 1)
            assert np.max(np.abs(B - ref)) <= 1e-10


class TestKktResidual:
    def test_zero_at_least_squares_when_unpenalized(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((20, 5))
        Y = rng.standard_normal((20, 3))
        B_ls = np.linalg.lstsq(X, Y, rcond=None)[0]
        d = Dataset(X, Y)
        assert np.max(kkt_residual(d, B_ls, np.ones(5), 0.0)) <= 1e-8

    def test_zero_matrix_with_large_penalty(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((15, 4))
        Y = rng.standard_normal((15, 2))
        d = Dataset(X, Y)
        bound = max(np.linalg.norm(X[:, j] @ Y) for j in range(4))
        lam = 4.0 * bound  # lam * w_j / 2 exceeds every gradient norm
        res = kkt_residual(d, np.zeros((4, 2)), np.ones(4), lam)
        assert np.all(res == 0.0)


class TestErrors:
    def test_zero_column(self):
        X = np.array([[1.0, 0.0], [2.0, 0.0]])
        d = Dataset(X, np.ones((2, 1)))
        with pytest.raises(SolverError, match="column 1"):
            bcd_solve(d, np.ones(2), 1.0)

    def test_weight_shape_mismatch(self):
        d = random_instance(0)
        with pytest.raises(ValueError):
            bcd_solve(d, np.ones(d.p + 1), 1.0)

    def test_negative_lambda(self):
        d = random_instance(0)
        with pytest.raises(ValueError):
            bcd_solve(d, np.ones(d.p), -1.0)

    def test_init_shape_mismatch(self):
        d = random_instance(0)
        with pytest.raises(ValueError):
            bcd_solve(d, np.ones(d.p), 1.0, init=np.zeros((d.p, d.q + 1)))
