import numpy as np
import pytest

from larn import group_solver
from larn.estimator import LarnConfig, group_weights, initial_estimate
from larn.group_solver import (Dataset, SolverError, SolverSettings,
                               _entry_residuals, _feature_sign, _newton_direction,
                               _newton_finish, _sign_round, bcd_solve,
                               bcd_solve_path, kkt_residual, objective,
                               row_support)
from larn.simbench import SimConfig, generate_instance

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

    def test_solution_not_worse_than_dense_grid(self, monkeypatch):
        monkeypatch.setattr(group_solver, "_FLAT_TOL", 1e-12)
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((10, 2))
            Y = X @ rng.normal(0, 0.4, (2, 2)) + 0.5 * rng.standard_normal((10, 2))
            d = Dataset(X, Y)
            w = rng.uniform(0.2, 1.0, 2)
            lam = rng.uniform(0.5, 4.0)
            B, _ = bcd_solve(d, w, lam, settings=SolverSettings(kkt_tol=1e-8))
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


def residual_form_sweeps(X, Y, w, lam, B, sweeps, depth=5, eps=1e-10):
    # plain cyclic block updates that read x_j'R and update R; after every
    # ``depth`` sweeps (never when depth is None) the Anderson extrapolation
    # of the last depth + 1 iterates, then the kernel's Newton finish when
    # the nonzero rows held over them, each kept only when it lowers the
    # objective
    def obj(B):
        return np.sum((Y - X @ B) ** 2) + lam * w @ np.linalg.norm(B, axis=1)

    B = B.copy()
    R = Y - X @ B
    s = np.einsum("ij,ij->j", X, X)
    hist = [B.copy()]
    for _ in range(sweeps):
        for j in range(X.shape[1]):
            g = X[:, j] @ R + s[j] * B[j]
            norm = np.linalg.norm(g)
            b = max(0.0, 1.0 - lam * w[j] / (2.0 * norm)) * g / s[j] if norm > 0 else 0.0 * g
            R -= np.outer(X[:, j], b - B[j])
            B[j] = b
        hist.append(B.copy())
        if depth is not None and len(hist) == depth + 1:
            U = np.array([(b1 - b0).ravel() for b0, b1 in zip(hist, hist[1:])])
            C = U @ U.T
            scale = np.trace(C)
            if scale > 0:
                z = np.linalg.solve(C + eps * scale * np.eye(depth), np.ones(depth))
                Bx = sum(c * b for c, b in zip(z / z.sum(), hist[1:]))
                if obj(Bx) < obj(B):
                    B = Bx
                    R = Y - X @ B
            rows = [np.linalg.norm(b, axis=1) > 0 for b in hist]
            if all(np.array_equal(r, rows[-1]) for r in rows) and rows[-1].any():
                Bn, steps = _newton_finish(X, Y, B, w, lam, 1e-6)
                if steps and obj(Bn) < obj(B):
                    B = Bn
                    R = Y - X @ B
            hist = [B.copy()]
    return B


def gram_form_instance(n, p):
    d = random_instance(21, n=n, p=p, q=5)
    w = np.random.default_rng(21).uniform(0.2, 2.0, d.p)
    B0 = np.linalg.lstsq(d.X, d.Y, rcond=None)[0]
    return d, w, np.logspace(-2, 3, 12), B0


class TestGramForm:
    @pytest.mark.parametrize("n, p", [(80, 12), (12, 15)])
    def test_gram_updates_match_residual_form(self, n, p):
        # each level equals the residual-form iterate after as many sweeps,
        # extrapolated and Newton-finished on the same schedule.  Nine sweeps
        # take in one window; over longer runs the Newton finish takes levels
        # to the same optimum whatever the sweeps did, so a wrong Gram update
        # would no longer show, and the converged path is compared by the
        # next test instead
        d, w, lambdas, B0 = gram_form_instance(n, p)
        stack, traces = bcd_solve_path(d, w, lambdas, init=B0,
                                       settings=SolverSettings(max_sweeps=9))
        for B, lam, trace in zip(stack, lambdas, traces):
            ref = residual_form_sweeps(d.X, d.Y, w, lam, B0, len(trace) - 1)
            assert np.max(np.abs(B - ref)) <= 1e-10

    @pytest.mark.parametrize("n, p", [(80, 12), (12, 15)])
    def test_path_agrees_with_converged_residual_form(self, n, p):
        # certified levels reach the objective of plain residual-form sweeps
        # run until they are certified too
        d, w, lambdas, B0 = gram_form_instance(n, p)
        stack, _ = bcd_solve_path(d, w, lambdas, init=B0)
        compared = 0
        for B, lam in zip(stack, lambdas):
            if np.max(kkt_residual(d, B, w, lam)) > 1e-6:
                continue
            ref = B0
            for _ in range(30):
                ref = residual_form_sweeps(d.X, d.Y, w, lam, ref, 100, depth=None)
                if np.max(kkt_residual(d, ref, w, lam)) <= 1e-9:
                    break
            else:
                continue
            assert objective(d, B, w, lam) == pytest.approx(
                objective(d, ref, w, lam), rel=1e-10)
            compared += 1
        assert compared >= 8


class TestExtrapolation:
    def test_level_that_stops_moving(self):
        # on an identity design each sweep reproduces the fixed point bit for
        # bit, so every iterate difference is zero; no level is certified
        # at kkt_tol = 1e-300, so all ten extrapolation steps run
        rng = np.random.default_rng(0)
        d = Dataset(np.eye(3), rng.uniform(1.0, 2.0, (3, 4)))
        w = np.ones(3)
        for lam in (0.5, 1.0, 2.0):
            B1, _ = bcd_solve(d, w, lam, settings=SolverSettings(max_sweeps=1))
            B, trace = bcd_solve(d, w, lam, init=B1,
                                 settings=SolverSettings(max_sweeps=50, kkt_tol=1e-300))
            assert len(trace) == 51
            assert np.all(np.isfinite(trace))
            assert np.array_equal(B, B1)

    def test_wide_instance_traces_nonincreasing(self):
        # p > n: extrapolations (25 candidates on this path) and Newton
        # finishes both run, each kept only when it lowers the objective
        data, _ = generate_instance(SimConfig(n=50, p=60, q=10, seed=1))
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            B0 = initial_estimate(data)
        w = group_weights(B0, LarnConfig().penalty)
        _, traces = bcd_solve_path(data, w, np.logspace(-2, 4, 10), init=B0)
        for trace in traces:
            assert np.all(np.diff(trace) <= 1e-12)

    def test_paper_path_sweep_count(self):
        # plain cyclic sweeps certify this path in 10394 level-sweeps, with
        # the extrapolation alone 4380; with the Newton finish it takes 845
        data, _ = generate_instance(SimConfig(n=50, p=20, q=20, seed=[1, 0]))
        B0 = initial_estimate(data)
        w = group_weights(B0, LarnConfig().penalty)
        _, traces = bcd_solve_path(data, w, np.logspace(-2, 4, 100), init=B0)
        assert sum(len(t) - 1 for t in traces) <= 0.2 * 10394


def dense_newton_direction(X, Y, B, c):
    # -Hess^-1 grad with the Hessian of the objective on the rows of B built
    # entry by entry: 2 X'X (x) I_q, plus c_j (I - u_j u_j') / ||b_j|| on the
    # diagonal block of row j
    s, q = B.shape
    hess = np.kron(2.0 * X.T @ X, np.eye(q))
    grad = -2.0 * X.T @ (Y - X @ B)
    for j in range(s):
        nrm = np.linalg.norm(B[j])
        u = B[j] / nrm
        hess[j * q:(j + 1) * q, j * q:(j + 1) * q] += c[j] / nrm * (np.eye(q) - np.outer(u, u))
        grad[j] += c[j] * u
    return grad, -np.linalg.solve(hess, grad.ravel()).reshape(s, q)


class TestNewtonFinish:
    @pytest.mark.parametrize("n, p, q, w_lo, w_hi", [
        (40, 8, 4, 0.5, 2.0),        # n > p
        (10, 15, 6, 0.5, 2.0),       # p > n: X'X has rank 10 < 15
        (40, 8, 4, 1e-9, 1e-8),      # tiny weights
    ])
    def test_woodbury_direction_matches_dense_solve(self, n, p, q, w_lo, w_hi):
        rng = np.random.default_rng(p + q)
        X = rng.standard_normal((n, p))
        Y = rng.standard_normal((n, q))
        B = rng.normal(0.0, 1.0, (p, q))
        c = 5.0 * rng.uniform(w_lo, w_hi, p)
        grad, ref = dense_newton_direction(X, Y, B, c)
        d = _newton_direction(X.T @ X, B, grad, c)
        assert np.linalg.norm(d - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_finish_steps_on_support_only(self):
        d = random_instance(3, n=30, p=8, q=3)
        w = np.random.default_rng(3).uniform(0.5, 1.5, d.p)
        B = np.linalg.lstsq(d.X, d.Y, rcond=None)[0]
        B[[1, 4]] = 0.0
        B_new, steps = _newton_finish(d.X, d.Y, B, w, 2.0, 1e-9)
        assert steps >= 1
        assert np.all(B_new[[1, 4]] == 0.0)
        assert objective(d, B_new, w, 2.0) < objective(d, B, w, 2.0)
        support = [0, 2, 3, 5, 6, 7]
        sub = Dataset(d.X[:, support], d.Y)
        assert np.max(kkt_residual(sub, B_new[support], w[support], 2.0)) <= 1e-9

    def test_wide_instance_every_level_certified_and_batch_free(self):
        # p > n: without the finish, the four smallest levels used all 1000
        # sweeps and ended uncertified, and they differed between the batch
        # and a single-level solve by up to 0.097
        data, _ = generate_instance(SimConfig(n=50, p=60, q=10, seed=1))
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            B0 = initial_estimate(data)
        w = group_weights(B0, LarnConfig().penalty)
        lambdas = np.logspace(-2, 4, 10)
        stack, _ = bcd_solve_path(data, w, lambdas, init=B0)
        for B, lam in zip(stack, lambdas):
            assert np.max(kkt_residual(data, B, w, lam)) <= 1e-6
            single, _ = bcd_solve(data, w, lam, init=B0)
            assert np.max(np.abs(B - single)) <= 1e-10


def column_pairs(X, Y, B, lam):
    # (level, column) pair arrays of the feature-sign finish for one level
    return (B.T.copy(), (X.T @ (Y - X @ B)).T, (X.T @ Y).T,
            np.full((Y.shape[1], X.shape[1]), 0.5 * lam))


def column_objectives(X, Y, b, lam):
    # ||y - X b||^2 + lam ||b||_1 per column, b laid out as (q, p)
    R = Y - X @ b.T
    return np.sum(R * R, axis=0) + lam * np.abs(b).sum(axis=1)


class TestFeatureSignFinish:
    @pytest.mark.parametrize("lam", [0.05, 2.0, 30.0])
    def test_from_zero_reaches_the_lasso_optimum(self, lam, monkeypatch):
        # the finish alone, from B = 0, certifies every column, and no round
        # raises a column's objective
        d = random_instance(4, n=25, p=7, q=3)
        b0, g, xty, half = column_pairs(d.X, d.Y, np.zeros((d.p, d.q)), lam)
        rounds = []

        def shifted(G, b, xty, half):
            # each column's objective less ||y||^2, from the pair arrays alone
            return np.einsum("np,np->n", b, b @ G - 2.0 * xty) + 2.0 * (half * np.abs(b)).sum(1)

        def recording(G, b, g, xty, half, max_active):
            before = shifted(G, b, xty, half)
            moved = _sign_round(G, b, g, xty, half, max_active)
            rounds.append((before, shifted(G, b, xty, half), moved))
            return moved

        monkeypatch.setattr(group_solver, "_sign_round", recording)
        b, moved = _feature_sign(d.X.T @ d.X, b0, g, xty, half, 1e-10, d.n)
        assert rounds and moved.all()
        for before, after, step in rounds:
            assert np.all(after[step] < before[step])
        g = (d.X.T @ (d.Y - d.X @ b.T)).T
        assert np.max(_entry_residuals(g, b, half)) <= 1e-9

    def test_wide_columns_step_down_to_n_nonzeros(self):
        # p > n: from the least-norm interpolant every entry is nonzero; each
        # round removes one without raising the objective, then the finish
        # certifies the column with at most n nonzeros
        rng = np.random.default_rng(5)
        X = rng.standard_normal((8, 14))
        Y = rng.standard_normal((8, 2))
        lam = 0.3
        B = np.linalg.lstsq(X, Y, rcond=None)[0]
        b, g, xty, half = column_pairs(X, Y, B, lam)
        G = X.T @ X
        before = column_objectives(X, Y, b, lam)
        moved = _sign_round(G, b, g, xty, half, 8)
        assert moved.all()
        assert np.all(np.count_nonzero(b, axis=1) == 13)
        assert np.all(column_objectives(X, Y, b, lam) <= before + 1e-12)
        b, _ = _feature_sign(G, b, g, xty, half, 1e-9, 8)
        assert np.all(np.count_nonzero(b, axis=1) <= 8)
        g = (X.T @ (Y - X @ b.T)).T
        assert np.max(_entry_residuals(g, b, half)) <= 1e-9

    def test_blocks_do_not_change_the_result(self, monkeypatch):
        d = random_instance(6, n=30, p=9, q=5)
        pairs = column_pairs(d.X, d.Y, np.zeros((d.p, d.q)), 1.5)
        ref, _ = _feature_sign(d.X.T @ d.X, *pairs, 1e-10, d.n)
        monkeypatch.setattr(group_solver, "_SIGN_BLOCK_ENTRIES", 1)
        b, _ = _feature_sign(d.X.T @ d.X, *pairs, 1e-10, d.n)
        assert np.max(np.abs(b - ref)) <= 1e-12

    def test_group_path_does_not_run_it(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the group path ran the feature-sign finish")

        monkeypatch.setattr(group_solver, "_feature_sign", fail)
        monkeypatch.setattr(group_solver, "_sign_round", fail)
        for sim, lambdas in ((dict(n=50, p=20, q=20, seed=1), np.logspace(-2, 4, 20)),
                             (dict(n=50, p=60, q=10, seed=1), np.logspace(-2, 4, 5))):
            data, _ = generate_instance(SimConfig(**sim))
            stack, _ = bcd_solve_path(data, np.ones(data.p), lambdas)
            assert np.all(np.isfinite(stack))


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
