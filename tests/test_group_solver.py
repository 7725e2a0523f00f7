import contextlib
import warnings

import numpy as np
import pytest

from larn import group_solver
from larn.estimator import LarnConfig, group_weights, initial_estimate, larn_path
from larn.group_solver import (Dataset, SolverError, SolverSettings,
                               _newton_direction, _newton_finish, bcd_solve,
                               bcd_solve_path, kkt_residual, objective,
                               row_support)
from larn.simbench import SimConfig, generate_instance, lasso_path

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

    def test_solution_not_worse_than_dense_grid(self):
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

    @pytest.mark.parametrize("n, p", [(20, 8), (10, 15)])
    def test_certified_start_retires_with_no_sweep(self, n, p):
        # a level that passes the KKT test at its start leaves before the
        # first sweep: its own solution comes back bitwise, its trace the
        # start's one value
        d = random_instance(5, n=n, p=p)
        w = np.random.default_rng(5).uniform(0.5, 1.5, p)
        B, trace = bcd_solve(d, w, 3.0)
        assert len(trace) > 1
        assert np.max(kkt_residual(d, B, w, 3.0)) <= 1e-6
        again, trace = bcd_solve(d, w, 3.0, init=B)
        assert np.array_equal(again, B)
        assert len(trace) == 1

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


def gram_form_instance(n, p):
    d = random_instance(21, n=n, p=p, q=5)
    w = np.random.default_rng(21).uniform(0.2, 2.0, d.p)
    B0 = np.linalg.lstsq(d.X, d.Y, rcond=None)[0]
    return d, w, np.logspace(-2, 3, 12), B0


class TestGramForm:
    @pytest.mark.parametrize("n, p", [(80, 12), (12, 15)])
    def test_gram_updates_match_residual_form(self, n, p, monkeypatch):
        # with no Newton step, each level equals the residual-form iterate
        # after as many sweeps.  The sweeps alone are compared: a finish
        # takes levels to the same optimum whatever the sweeps did, so a
        # wrong Gram update would no longer show, and two finishes that
        # stop on either side of kkt_tol differ by more than the rounding
        # of the two forms; the converged path is compared by the next test
        monkeypatch.setattr(group_solver, "_NEWTON_STEPS", 0)
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
                ref = residual_form_sweeps(d.X, d.Y, w, lam, ref, 100)
                if np.max(kkt_residual(d, ref, w, lam)) <= 1e-9:
                    break
            else:
                continue
            assert objective(d, B, w, lam) == pytest.approx(
                objective(d, ref, w, lam), rel=1e-10)
            compared += 1
        assert compared >= 8


class TestFinishWindow:
    def test_level_that_stops_moving(self):
        # on an identity design each sweep reproduces the fixed point bit for
        # bit; no level is certified at kkt_tol = 1e-300, so the Newton
        # finish runs after all 50 sweeps and must leave that exact fixed
        # point bitwise alone
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
        # p > n: a Newton finish runs after every sweep its level's rows held
        # over, and each is kept only when it lowers the objective.  The
        # largest trace is 5 sweeps: a level leaves once a finish certifies
        # it.  It was 20 with a finish only every fifth sweep
        data, _ = generate_instance(SimConfig(n=50, p=60, q=10, seed=1))
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            B0 = initial_estimate(data)
        w = group_weights(B0, LarnConfig().penalty)
        _, traces = bcd_solve_path(data, w, np.logspace(-2, 4, 10), init=B0)
        for trace in traces:
            assert np.all(np.diff(trace) <= 1e-12)
        assert max(len(t) - 1 for t in traces) <= 5

    def test_level_due_once_its_rows_hold_over_the_last_sweep(self, monkeypatch):
        # from least squares this level drops rows in sweep 1, and its rows
        # hold over sweep 2: it is not due after sweep 1, and the first
        # finish holds this one level at its sweep-2 iterate
        d = random_instance(2, n=30, p=8, q=3)
        w = np.random.default_rng(2).uniform(0.5, 1.5, d.p)
        lam = 80.0
        B0 = np.linalg.lstsq(d.X, d.Y, rcond=None)[0]
        rows = [np.linalg.norm(residual_form_sweeps(d.X, d.Y, w, lam, B0, k), axis=1) > 0
                for k in range(3)]
        assert not np.array_equal(rows[0], rows[1])
        assert np.array_equal(rows[1], rows[2])
        starts = []

        def recording(G, H, B, c, kkt_tol):
            starts.append(B.copy())
            return _newton_finish(G, H, B, c, kkt_tol)

        monkeypatch.setattr(group_solver, "_newton_finish", recording)
        B, _ = bcd_solve(d, w, lam, init=B0)
        assert len(starts[0]) == 1
        ref = residual_form_sweeps(d.X, d.Y, w, lam, B0, 2)
        assert np.max(np.abs(starts[0][0] - ref)) <= 1e-12
        assert np.max(kkt_residual(d, B, w, lam)) <= 1e-6

    def test_paper_path_sweep_count(self):
        # plain cyclic sweeps certify this path in 10394 level-sweeps; with
        # the Newton finish after every sweep the rows held over it takes 185
        data, _ = generate_instance(SimConfig(n=50, p=20, q=20, seed=[1, 0]))
        B0 = initial_estimate(data)
        w = group_weights(B0, LarnConfig().penalty)
        _, traces = bcd_solve_path(data, w, np.logspace(-2, 4, 100), init=B0)
        assert sum(len(t) - 1 for t in traces) <= 0.2 * 10394

    @pytest.mark.parametrize("unit", [False, True])
    def test_paper_path_parks_and_stays_batch_free(self, unit, monkeypatch):
        # the due levels park until no level is left sweeping, and then take
        # one finish together: 2 finishes per path and 14 (depth) or 15
        # (unit) batched directions, against 7 finishes and 41 or 34
        # directions when each sweep's due levels are finished at once.  Each
        # level still takes its own sweeps and finishes, 333 or 307 Newton
        # steps in all, and equals the level solved alone
        data, _ = generate_instance(SimConfig(n=50, p=20, q=20, seed=[1, 0]))
        B0 = initial_estimate(data)
        w = np.ones(data.p) if unit else group_weights(B0, LarnConfig().penalty)
        lambdas = np.logspace(-2, 4, 100)
        sizes, steps, directions = [], [], 0

        def finish(*args):
            result = _newton_finish(*args)
            sizes.append(len(args[2]))
            steps.append(result[1].sum())
            return result

        def direction(*args):
            nonlocal directions
            directions += 1
            return _newton_direction(*args)

        with monkeypatch.context() as m:
            m.setattr(group_solver, "_newton_finish", finish)
            m.setattr(group_solver, "_newton_direction", direction)
            stack, traces = bcd_solve_path(data, w, lambdas, init=B0)
        assert min(sizes) >= 1 and len(sizes) <= 3 and directions <= 20
        assert sum(steps) == (307 if unit else 333)
        for B, trace, lam in zip(stack, traces, lambdas):
            single, single_trace = bcd_solve(data, w, lam, init=B0)
            assert np.max(np.abs(B - single)) <= 1e-12
            assert len(trace) == len(single_trace)


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


def gram_args(data, B):
    # the Newton finish's design arrays for one level B: G = X'X and H = X'R
    X = data.X
    return X.T @ X, (X.T @ (data.Y - X @ B))[None], B[None]


class TestNewtonFinish:
    @pytest.mark.parametrize("n, p, q, w_lo, w_hi", [
        (40, 8, 4, 0.5, 2.0),        # n > p
        (10, 15, 6, 0.5, 2.0),       # p > n: X'X has rank 10 < 15
        (40, 8, 4, 1e-9, 1e-8),      # tiny weights
    ])
    def test_woodbury_direction_matches_dense_solve(self, n, p, q, w_lo, w_hi):
        # on every row, and with row 3 zero: padded out of the support, it
        # gets a zero direction and the other rows that of the smaller problem
        rng = np.random.default_rng(p + q)
        X = rng.standard_normal((n, p))
        Y = rng.standard_normal((n, q))
        B = rng.normal(0.0, 1.0, (p, q))
        c = 5.0 * rng.uniform(w_lo, w_hi, p)
        for off in ([], [3]):
            B[off] = 0.0
            S = np.flatnonzero(np.any(B != 0, axis=1))
            grad = -2.0 * X.T @ (Y - X @ B)
            grad[S], ref = dense_newton_direction(X[:, S], Y, B[S], c[S])
            d = _newton_direction(X.T @ X, B[None], grad[None], c[None])[0]
            assert np.all(d[off] == 0.0)
            assert np.linalg.norm(d[S] - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_finish_steps_on_support_only(self):
        d = random_instance(3, n=30, p=8, q=3)
        w = np.random.default_rng(3).uniform(0.5, 1.5, d.p)
        B = np.linalg.lstsq(d.X, d.Y, rcond=None)[0]
        B[[1, 4]] = 0.0
        B_new, steps, _ = _newton_finish(*gram_args(d, B), (2.0 * w)[None], 1e-9)
        B_new = B_new[0]
        assert steps[0] >= 1
        assert np.all(B_new[[1, 4]] == 0.0)
        assert objective(d, B_new, w, 2.0) < objective(d, B, w, 2.0)
        support = [0, 2, 3, 5, 6, 7]
        sub = Dataset(d.X[:, support], d.Y)
        assert np.max(kkt_residual(sub, B_new[support], w[support], 2.0)) <= 1e-9

    def test_rows_leave_the_support_where_their_step_crosses_zero(self, monkeypatch):
        # from least squares at a lambda whose solution has rows 0, 4 and 5
        # zero, the first Newton step of those rows passes through zero; the
        # finish takes them out of the support instead of shrinking the step
        d = random_instance(7, n=30, p=8, q=3)
        w = np.random.default_rng(7).uniform(0.5, 1.5, d.p)
        lam = 10.0
        B = np.linalg.lstsq(d.X, d.Y, rcond=None)[0]
        c = lam * w
        grad = (c / np.linalg.norm(B, axis=1))[:, None] * B - 2.0 * d.X.T @ (d.Y - d.X @ B)
        step = _newton_direction(d.X.T @ d.X, B[None], grad[None], c[None])[0]
        cross = np.flatnonzero(np.einsum("sq,sq->s", B, B + step) < 0)
        assert list(cross) == [0, 4, 5]
        B_new, steps, change = _newton_finish(*gram_args(d, B), c[None], 1e-9)
        B_new, steps, change = B_new[0], steps[0], change[0]
        assert np.all(B_new[cross] == 0.0)
        assert 1 <= steps < group_solver._NEWTON_STEPS
        support = row_support(B_new)
        sub = Dataset(d.X[:, support], d.Y)
        assert np.max(kkt_residual(sub, B_new[support], w[support], lam)) <= 1e-9
        # no step raises the objective, and the changes add up to the total
        objs = [objective(d, B, w, lam)]
        for cap in range(1, steps + 1):
            monkeypatch.setattr(group_solver, "_NEWTON_STEPS", cap)
            objs.append(objective(d, _newton_finish(*gram_args(d, B), c[None], 1e-9)[0][0],
                                  w, lam))
        assert np.all(np.diff(objs) <= 1e-12)
        assert objs[-1] - objs[0] == pytest.approx(change, rel=1e-12)

    @staticmethod
    def wide_finish_args():
        # the p > n instance, and the finish arguments (G, H, B, c, kkt_tol)
        # of the levels of its path whose nonzero rows held over the fifth
        # of five plain sweeps from B0
        data, _ = generate_instance(SimConfig(n=50, p=60, q=10, seed=1))
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            B0 = initial_estimate(data)
        w = group_weights(B0, LarnConfig().penalty)
        X, Y = data.X, data.Y
        due = []
        for lam in np.logspace(-2, 4, 10):
            rows = [np.linalg.norm(residual_form_sweeps(X, Y, w, lam, B0, k), axis=1) > 0
                    for k in (4, 5)]
            if np.array_equal(*rows) and rows[1].any():
                due.append((lam, residual_form_sweeps(X, Y, w, lam, B0, 5)))
        lam, B = (np.array(v) for v in zip(*due))
        return data, (X.T @ X, X.T @ (Y - X @ B), B, lam[:, None] * w,
                      SolverSettings().kkt_tol)

    def test_wide_instance_no_finish_reaches_the_step_cap(self):
        # p > n: with the support fixed, rows whose step passed through zero
        # made the line search shrink every step, and 2 of the 12 finishes
        # on this path (63 of 133 in a cross-validated fit) stopped at the
        # cap.  The 8 levels due after five plain sweeps are finished here
        _, args = self.wide_finish_args()
        assert len(args[2]) == 8
        _, steps, _ = _newton_finish(*args)
        assert np.all(steps >= 1) and max(steps) < group_solver._NEWTON_STEPS

    def test_halved_step_is_the_longest_that_meets_armijo(self, monkeypatch):
        # level 3 of the finish above: no row's full step crosses zero, the
        # full step fails Armijo and the step is halved.  The line search
        # reads each trial's change from row dots; here every trial point is
        # formed and its objective recomputed from the data
        data, (G, H, B, c, kkt_tol) = self.wide_finish_args()
        H, B, c = H[3], B[3], c[3]
        monkeypatch.setattr(group_solver, "_NEWTON_STEPS", 1)
        new, steps, total = _newton_finish(G, H[None], B[None], c[None], kkt_tol)
        new = new[0]
        nrm = np.linalg.norm(B, axis=1)
        assert np.all(nrm > 0) and steps[0] == 1
        grad = (c / nrm)[:, None] * B - 2.0 * H
        d = _newton_direction(G, B[None], grad[None], c[None])[0]
        lengths = 0.5 ** np.arange(group_solver._NEWTON_BACKTRACKS)
        t = lengths[np.argmin([np.abs(new - (B + s * d)).max() for s in lengths])]
        assert t == 0.5 and np.all(np.linalg.norm(new, axis=1) > 0)
        assert np.abs(new - (B + t * d)).max() <= 1e-12 * np.abs(B).max()
        # c holds lam w, so the objective is read at weights c and lam = 1
        before = objective(data, B, c, 1.0)
        margin = 1e-12 * before
        assert abs(objective(data, new, c, 1.0) - before - total[0]) <= margin
        # every longer length fails Armijo, and t meets it
        slope = np.sum(grad * d)
        for s in lengths[lengths >= t]:
            excess = (objective(data, B + s * d, c, 1.0) - before
                      - group_solver._ARMIJO * s * slope)
            assert excess <= margin if s == t else excess > margin

    @pytest.mark.parametrize("scale", [1e3, 1e4])
    def test_finish_near_the_optimum_certifies(self, scale):
        # steps of about 1e-7 on rows of norm about 1e3 s: the norm change
        # ||b + t d|| - ||b|| taken as a difference cancels to a rounding
        # error near the true change, so on some of these starts the full
        # step failed Armijo and the finish spent all its steps short of the
        # KKT test
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 6))
        Y = X @ (scale * rng.standard_normal((6, 5))) + rng.standard_normal((40, 5))
        d, w, lam = Dataset(X, Y), np.ones(6), 0.2 * scale
        B, _ = bcd_solve(d, w, lam, settings=SolverSettings(kkt_tol=1e-10))
        S = row_support(B)
        for _ in range(8):
            start = B.copy()
            start[S] += 1e-7 * rng.standard_normal((len(S), 5))
            assert np.max(kkt_residual(d, start, w, lam)) > 1e-6
            new, steps, change = _newton_finish(*gram_args(d, start), (lam * w)[None], 1e-6)
            assert steps[0] == 1 and change[0] < 0
            assert np.array_equal(row_support(new[0]), S)
            assert np.max(kkt_residual(d, new[0], w, lam)) <= 1e-6

    @pytest.mark.parametrize("sim, singular", [
        pytest.param(dict(n=50, p=60, q=10, seed=1), False, id="False"),
        pytest.param(dict(n=50, p=60, q=10, seed=1), True, id="True"),
        pytest.param(dict(n=1000, p=50, q=20, rho=0.7, seed=1), False, id="tall"),
    ])
    def test_levels_finished_together_equal_each_finished_alone(self, sim, singular,
                                                                monkeypatch):
        # three levels after four plain sweeps, on the p > n instance and on
        # the tall one of the CLI workload.  The singular case
        # duplicates design column 1 into column 0 and adds a level with zero
        # weights whose support is those two rows, so its A = 2 G_SS is
        # exactly singular: the batch is solved level by level, that level
        # stops, and the others are untouched by it
        data, _ = generate_instance(SimConfig(**sim))
        X = data.X.copy()
        if singular:
            X[:, 0] = X[:, 1]
        data = Dataset(X, data.Y)
        with (pytest.warns(RuntimeWarning, match="rank deficient") if data.p > data.n
              else contextlib.nullcontext()):
            B0 = initial_estimate(data)
        w = group_weights(B0, LarnConfig().penalty)
        lambdas = np.array([0.05, 2.0, 50.0])
        with monkeypatch.context() as m:
            m.setattr(group_solver, "_NEWTON_STEPS", 0)
            stack, _ = bcd_solve_path(data, w, lambdas, init=B0,
                                      settings=SolverSettings(max_sweeps=4))
        weights = np.tile(w, (3, 1))
        if singular:
            flat = np.zeros((data.p, data.q))
            flat[:2] = np.random.default_rng(0).standard_normal((2, data.q))
            stack = np.concatenate([stack, flat[None]])
            weights = np.vstack([weights, np.zeros(data.p)])
            lambdas = np.append(lambdas, 1.0)
        G, H = X.T @ X, X.T @ (data.Y - X @ stack)
        with monkeypatch.context() as m:
            m.setattr(group_solver, "_BLOCK_ENTRIES", 1 << 30)   # all levels in one block
            together, steps, change = _newton_finish(G, H, stack, lambdas[:, None] * weights,
                                                     1e-6)
        assert np.all(steps[:3] >= 1)
        for i in range(3):
            alone = _newton_finish(G, H[i:i + 1], stack[i:i + 1],
                                   (lambdas[i] * weights[i])[None], 1e-6)
            assert np.array_equal(together[i], alone[0][0])
            assert steps[i] == alone[1][0] and change[i] == alone[2][0]
            # the change computed from the tracked H is the refreshed one, to
            # 1e-12 of the objective (the tall one is 2e4, so the difference
            # of two refreshed objectives is known only to about 4e-12)
            before = objective(data, stack[i], weights[i], lambdas[i])
            after = objective(data, together[i], weights[i], lambdas[i])
            assert abs(after - before - change[i]) <= 1e-12 * before
        if singular:
            assert steps[3] == 0 and change[3] == 0.0
            assert np.array_equal(together[3], stack[3])

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

    def test_tall_instance_every_level_certified_and_batch_free(self):
        # n >> p: the kernel retires a level on its H = H_s - G (B - B_s),
        # never on X'(Y - XB); each level must pass the KKT test recomputed
        # from the data, and levels retire at different sweeps, so compaction
        # must carry every level's own H (the levels share their start here;
        # test_levels_with_their_own_starts covers B_s, H_s and r_s)
        data, _ = generate_instance(SimConfig(n=1000, p=50, q=20, rho=0.7, seed=1))
        B0 = initial_estimate(data)
        w = group_weights(B0, LarnConfig().penalty)
        lambdas = np.logspace(-2, 4, 10)
        stack, traces = bcd_solve_path(data, w, lambdas, init=B0)
        assert len({len(t) for t in traces}) > 1
        for B, lam in zip(stack, lambdas):
            assert np.max(kkt_residual(data, B, w, lam)) <= SolverSettings().kkt_tol
            single, _ = bcd_solve(data, w, lam, init=B0)
            assert np.max(np.abs(B - single)) <= 1e-12


class TestStartAnchor:
    @pytest.mark.parametrize("case", ["tall-zero", "tall-B0", "wide-B0"])
    def test_last_trace_value_is_the_objective(self, case):
        # the kernel's fit term r_s - <D, H_s> - <D, H>, D = B - B_s, against
        # ||Y - XB||^2 from the data: from a zero start (the anchor is zero,
        # r_s = ||Y||^2), from the least-squares start, and from the p > n
        # minimum-norm start
        sim = dict(n=50, p=60, q=10) if case == "wide-B0" else dict(n=1000, p=50, q=20)
        data, _ = generate_instance(SimConfig(rho=0.7, seed=1, **sim))
        with (pytest.warns(RuntimeWarning, match="rank deficient") if data.p > data.n
              else contextlib.nullcontext()):
            B0 = initial_estimate(data)
        w = group_weights(B0, LarnConfig().penalty)
        lambdas = np.logspace(-2, 4, 10)
        init = None if case == "tall-zero" else B0
        stack, traces = bcd_solve_path(data, w, lambdas, init=init)
        for B, lam, trace in zip(stack, lambdas, traces):
            # closest: the p > n level at lambda = 0.01, 7e-13 off an
            # objective of 0.079 (its start leaves a residual of 2e-26)
            assert trace[-1] == pytest.approx(objective(data, B, w, lam), rel=1e-12)

    def test_levels_with_their_own_starts(self):
        # each level anchored at a start of its own, as in full-mode rounds:
        # levels retire at different sweeps, so a level whose start, H_s or
        # r_s compaction took from another level would leave its single-level
        # solve or misreport its objective
        data, _ = generate_instance(SimConfig(n=1000, p=50, q=20, rho=0.7, seed=1))
        B0 = initial_estimate(data)
        w = group_weights(B0, LarnConfig().penalty)
        lambdas = np.logspace(-2, 4, 10)
        starts = np.linspace(1.0, 0.0, 10)[:, None, None] * B0
        stack, traces = group_solver._cd_path(data, np.tile(w[:, None], (1, 10)), lambdas,
                                              starts, SolverSettings())
        assert len({len(t) for t in traces}) > 1
        for B, lam, start, trace in zip(stack, lambdas, starts, traces):
            single, single_trace = bcd_solve(data, w, lam, init=start)
            assert np.max(np.abs(B - single)) <= 1e-12
            assert trace == pytest.approx(single_trace, rel=1e-12)
            assert trace[-1] == pytest.approx(objective(data, B, w, lam), rel=1e-12)


def fail(*args):
    raise AssertionError("a level ran the Newton finish")


def wide_single_response():
    data, _ = generate_instance(SimConfig(n=50, p=60, q=10, rho=0.7, seed=1))
    return Dataset(data.X, data.Y[:, [0]])


class TestSingleResponse:
    @pytest.mark.parametrize("unit, one_step", [(False, True), (True, True),
                                                (False, False), (True, False)],
                             ids=["False", "True", "False-full", "True-full"])
    def test_wide_path_every_level_certified(self, unit, one_step):
        # p > n with one response: the Newton finish's Hessian on S, 2 G_SS,
        # is singular once |S| > n, and with it 5 (depth weights) and 2 (unit
        # weights) of these levels ended uncertified after 1000 sweeps; each
        # level now starts on its weighted lasso path, in full mode at every
        # round, and the outer traces stay nonincreasing
        data = wide_single_response()
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            fits = larn_path(data, LarnConfig(unit_weights=unit, one_step=one_step),
                             np.logspace(-2, 4, 20))
        for fit in fits:
            assert fit.certified
            assert len(row_support(fit.b_hat)) <= data.n
            assert np.all(np.diff(fit.objective_trace) <= 1e-10)

    def test_collinear_columns_certified(self):
        # a design column that is -2 times another, which G_AA cannot hold
        # together: the homotopy's path keeps one of them, and its points
        # pass the KKT test
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 6))
        X[:, 5] = -2.0 * X[:, 2]
        data = Dataset(X, X[:, :3] @ np.ones((3, 1)) + 0.1 * rng.standard_normal((20, 1)))
        lambdas = [0.01, 0.5, 3.0]
        stack, _ = bcd_solve_path(data, np.ones(6), lambdas)
        for B, lam in zip(stack, lambdas):
            assert np.max(kkt_residual(data, B, np.ones(6), lam)) <= 1e-6

    @pytest.mark.parametrize("unit", [False, True])
    def test_wide_path_never_runs_newton(self, unit, monkeypatch):
        # the homotopy start alone certifies these levels: each retires at
        # its start, before any sweep or finish
        monkeypatch.setattr(group_solver, "_newton_finish", fail)
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            fits = larn_path(wide_single_response(), LarnConfig(unit_weights=unit),
                             np.logspace(-2, 4, 20))
        assert all(fit.certified for fit in fits)

    @pytest.mark.parametrize("one_step", [True, False])
    def test_zero_weight_row_certified(self, one_step):
        # B0's row 3 is about 60, where the halfspace weight phi(60)
        # underflows to exactly 0: that row is unpenalized, and the homotopy
        # starts it active at the least-squares fit on it.  Without that
        # rule 5 of these 20 one-step levels ended uncertified
        data = wide_single_response()
        data = Dataset(data.X, data.Y + 60.0 * data.X[:, [3]])
        config = LarnConfig(one_step=one_step)
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            B0 = initial_estimate(data)
            fits = larn_path(data, config, np.logspace(-2, 4, 20))
        w = group_weights(B0, config.penalty)
        assert w[3] == 0.0 and np.all(np.delete(w, 3) > 0)
        for fit in fits:
            assert fit.certified
            assert fit.b_hat[3, 0] != 0.0
            assert np.all(np.diff(fit.objective_trace) <= 1e-10)


class TestEmptyGrid:
    # an empty grid returns at once: the kernel runs no sweep over zero
    # levels, and the lasso path does not warn about them
    @pytest.fixture(autouse=True)
    def no_sweep(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a sweep ran on an empty grid")

        monkeypatch.setattr(group_solver, "_group_prox", fail)

    @pytest.mark.parametrize("q", [1, 3])
    def test_bcd_solve_path(self, q):
        d = random_instance(0, n=30, p=8, q=q)
        stack, traces = bcd_solve_path(d, np.ones(d.p), [])
        assert stack.shape == (0, d.p, q) and traces == []

    @pytest.mark.parametrize("one_step", [True, False])
    def test_larn_path(self, one_step):
        assert larn_path(random_instance(0, n=30, p=8), LarnConfig(one_step=one_step), []) == []

    def test_lasso_path(self):
        d = random_instance(0, n=30, p=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lasso_path(d, []).shape == (0, d.p, d.q)


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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_kkt_tol_is_positive_and_finite(self, value):
        # at NaN no level passes the KKT test and every level ran all its
        # sweeps; at inf every start passed it unswept and was certified
        with pytest.raises(ValueError, match="kkt_tol"):
            SolverSettings(kkt_tol=value)

    @pytest.mark.parametrize("value", [2.7, True])
    def test_max_sweeps_is_a_positive_integer(self, value):
        # 2.7 was truncated to 2 sweeps and True taken as 1
        with pytest.raises(ValueError, match="max_sweeps"):
            SolverSettings(max_sweeps=value)
