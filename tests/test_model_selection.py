import tracemalloc
import warnings

import numpy as np
import pytest

from larn import estimator, group_solver, model_selection
from larn.depth_penalty import EXP_NEG, PenaltySpec
from larn.estimator import (LarnConfig, initial_estimate, group_weights, larn_fit,
                            within_row_threshold)
from larn.group_solver import Dataset, SolverError, SolverSettings, bcd_solve, kkt_residual
from larn.model_selection import (CvGrid, cross_validate, default_lambdas,
                                  fit_with_selection, kfold_split,
                                  threshold_grid)
from larn.simbench import SimConfig, generate_instance


def cv_rmse(data, folds, b_per_fold):
    # reference for cross_validate: pooled held-out error,
    # sqrt(sum of squares over folds) / (n*q)
    if len(folds) != len(b_per_fold):
        raise ValueError(f"{len(folds)} folds but {len(b_per_fold)} estimates")
    sse = 0.0
    for idx, B in zip(folds, b_per_fold):
        R = data.Y[idx] - data.X[idx] @ np.asarray(B, dtype=float)
        sse += float(np.sum(R * R))
    return np.sqrt(sse) / (data.n * data.q)


def direct_sse(X_test, Y_test, stack, thresholds, dtype=float):
    # reference for _sse_over_thresholds: each thresholded fit's held-out
    # sum of squares formed directly, one threshold at a time, in ``dtype``
    X, Y = X_test.astype(dtype), Y_test.astype(dtype)
    out = np.empty(thresholds.shape, dtype=dtype)
    for l, (B, levels) in enumerate(zip(stack.astype(dtype), thresholds)):
        for j, t in enumerate(levels):
            R = Y - X @ np.where(np.abs(B) > t, B, 0.0)
            out[l, j] = np.sum(R * R)
    return out


def make_data(seed, n=30, p=6, q=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    B0 = np.zeros((p, q))
    B0[:2] = rng.normal(1.5, 0.5, (2, q))
    Y = X @ B0 + 0.5 * rng.standard_normal((n, q))
    return Dataset(X, Y)


class TestKfoldSplit:
    def test_even_split(self):
        folds = kfold_split(10, 5, seed=0)
        assert [len(f) for f in folds] == [2, 2, 2, 2, 2]

    def test_remainder_distribution(self):
        folds = kfold_split(7, 3, seed=0)
        assert sorted(len(f) for f in folds) == [2, 2, 3]
        assert max(len(f) for f in folds) - min(len(f) for f in folds) <= 1

    def test_partition(self):
        folds = kfold_split(23, 4, seed=5)
        assert sorted(np.concatenate(folds).tolist()) == list(range(23))

    def test_deterministic(self):
        a = kfold_split(50, 5, seed=9)
        b = kfold_split(50, 5, seed=9)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            kfold_split(5, 6, seed=0)
        with pytest.raises(ValueError):
            kfold_split(5, 1, seed=0)

    def test_k_above_n_named(self):
        # "fold count k = 6 must not exceed n = 5" did not lead with k, so
        # the CLI could not put --folds in its place
        with pytest.raises(ValueError, match="^k must not exceed n = 5, got 6$"):
            kfold_split(5, 6, seed=0)

    @pytest.mark.parametrize("k", [2.5, True])
    def test_non_integer_k_named(self, k):
        # 2.5 gave 2 folds
        with pytest.raises(ValueError, match="^k must be an integer"):
            kfold_split(10, k, 0)

    @pytest.mark.parametrize("n", [10.5, np.float64(10.0), True])
    def test_non_integer_n_named(self, n):
        # 10.5 failed inside numpy's permutation with an AxisError
        with pytest.raises(ValueError, match="^n must be an integer"):
            kfold_split(n, 3, 0)


class TestCvRmse:
    def test_perfect_predictions(self):
        data = make_data(0)
        B_true = np.linalg.lstsq(data.X, data.Y, rcond=None)[0]
        d = Dataset(data.X, data.X @ B_true)
        folds = kfold_split(d.n, 3, seed=0)
        assert cv_rmse(d, folds, [B_true] * 3) == pytest.approx(0.0, abs=1e-12)

    def test_single_fold_all_ones_residual(self):
        n, q = 6, 2
        X = np.eye(n)[:, :3]
        B = np.zeros((3, q))
        Y = X @ B + 1.0  # residual is the all-ones matrix
        d = Dataset(X, Y)
        val = cv_rmse(d, [np.arange(n)], [B])
        assert val == pytest.approx(1.0 / np.sqrt(n * q), rel=1e-14)

    def test_matches_flat_recomputation(self):
        data = make_data(1)
        folds = kfold_split(data.n, 3, seed=2)
        rng = np.random.default_rng(3)
        bs = [rng.standard_normal((data.p, data.q)) for _ in folds]
        sse = 0.0
        for f, B in zip(folds, bs):
            for i in f:
                for k in range(data.q):
                    sse += (data.Y[i, k] - data.X[i] @ B[:, k]) ** 2
        assert cv_rmse(data, folds, bs) == pytest.approx(
            np.sqrt(sse) / (data.n * data.q), rel=1e-12)

    def test_misaligned_inputs(self):
        data = make_data(1)
        folds = kfold_split(data.n, 3, seed=2)
        with pytest.raises(ValueError):
            cv_rmse(data, folds, [np.zeros((data.p, data.q))] * 2)


class TestGrids:
    def test_default_lambda_grid_is_log10(self):
        lam = default_lambdas()
        assert len(lam) == 100
        assert lam[0] == pytest.approx(1e-2)
        assert lam[-1] == pytest.approx(1e2)
        np.testing.assert_allclose(np.diff(np.log10(lam)), np.diff(np.log10(lam))[0])

    def test_linear_positive_scale_excludes_nonpositive(self):
        lam = default_lambdas(num=100, scale="linear-positive")
        assert np.all(lam > 0)
        assert lam[-1] < 2.0

    @pytest.mark.parametrize("num", [1, 2, 7, 100])
    def test_linear_positive_scale_has_every_level(self, num):
        lam = default_lambdas(num=num, scale="linear-positive")
        assert len(lam) == num
        assert np.all((lam > 0) & (lam < 2.0))

    def test_threshold_grid_span(self):
        t = threshold_grid(2.0, num=100)
        assert len(t) == 100
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(1.8)

    @pytest.mark.parametrize("make", [
        lambda num: default_lambdas(num=num),
        lambda num: default_lambdas(num=num, scale="linear-positive"),
        lambda num: threshold_grid(2.0, num=num),
    ], ids=["log10", "linear-positive", "threshold_grid"])
    @pytest.mark.parametrize("num", [2.5, True, 0])
    def test_level_count_named(self, make, num):
        # 2.5 raised a TypeError from numpy, and 0 gave an empty grid
        with pytest.raises(ValueError, match="^num must be an integer"):
            make(num)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            CvGrid(lambdas=[])
        with pytest.raises(ValueError):
            CvGrid(lambdas=[-0.5, 1.0])
        with pytest.raises(ValueError):
            CvGrid(k=1)
        with pytest.raises(ValueError):
            CvGrid(thresholds=[-0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_threshold_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CvGrid(thresholds=[0.1, bad])

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "0", [1, 2]])
    def test_bad_fold_seed_rejected(self, bad):
        # numpy rejected these only later, in the fold split, naming no seed
        with pytest.raises(ValueError, match="seed"):
            CvGrid(seed=bad)

    @pytest.mark.parametrize("field, value", [
        ("k", 2.7), ("k", True), ("n_thresholds", 3.9), ("n_thresholds", 0),
        ("lambdas", [0.1, np.nan]), ("lambdas", 1.0), ("thresholds", [[0.1], [0.2]]),
    ])
    def test_bad_counts_and_grids_named(self, field, value):
        # k = 2.7 ran 2 folds and n_thresholds = 3.9 gave 3 levels; a 2-D
        # lambda grid failed only in the fits, on a broadcast
        with pytest.raises(ValueError, match=f"^{field} must"):
            CvGrid(**{field: value})

    def test_integer_fold_seeds_accepted(self):
        assert CvGrid(seed=0).seed == 0
        assert CvGrid(seed=np.uint32(7)).seed == 7


class TestCrossValidate:
    def test_degenerate_grid_equals_heldout_least_squares(self):
        data = make_data(4, n=24, p=4, q=2)
        grid = CvGrid(lambdas=[0.0], thresholds=[0.0], k=2, seed=0)
        cv = cross_validate(data, LarnConfig(), grid)
        folds = kfold_split(data.n, 2, seed=0)
        bs = []
        for test_idx in folds:
            train_idx = np.setdiff1d(np.arange(data.n), test_idx)
            bs.append(np.linalg.lstsq(data.X[train_idx], data.Y[train_idx],
                                      rcond=None)[0])
        expected = cv_rmse(data, folds, bs)
        assert cv.cv_rmse[0, 0] == pytest.approx(expected, rel=1e-8)

    def test_fit_count_is_k_times_lambdas(self):
        data = make_data(5)
        grid = CvGrid(lambdas=default_lambdas(num=7), n_thresholds=5, k=3, seed=1)
        cv = cross_validate(data, LarnConfig(), grid)
        assert cv.fit_count == 3 * 7

    def test_cached_fit_rescoring_matches_fresh_refit(self):
        # thresholding is post-hoc: scoring a cached fit at any level equals
        # refitting at the same lambda and thresholding the result
        data = make_data(6)
        lam = 1.3
        grid = CvGrid(lambdas=[lam], n_thresholds=8, k=3, seed=3)
        config = LarnConfig()
        cv = cross_validate(data, config, grid)
        folds = kfold_split(data.n, 3, seed=3)
        for f_idx, test_idx in enumerate(folds):
            train_idx = np.setdiff1d(np.arange(data.n), test_idx)
            train = data.subset(train_idx)
            B0 = initial_estimate(train)
            w = group_weights(B0, config.penalty)
            B, _ = bcd_solve(train, w, lam, init=B0, settings=config.solver)
            for t_idx, t in enumerate(cv.thresholds[0]):
                Bt = B.copy()
                Bt[np.abs(Bt) <= t] = 0.0
                R = data.Y[test_idx] - data.X[test_idx] @ Bt
                assert cv.per_fold_sse[f_idx, 0, t_idx] == pytest.approx(
                    float(np.sum(R * R)), rel=1e-9)

    def test_threshold_blocks_do_not_change_scores(self, monkeypatch):
        # 108 work entries per fit here: one fit per block
        data = make_data(6)
        grid = CvGrid(lambdas=[0.5, 1.3], n_thresholds=8, k=3, seed=3)
        whole = cross_validate(data, LarnConfig(), grid).per_fold_sse
        monkeypatch.setattr(model_selection, "_SCORE_BLOCK_ENTRIES", 90)
        blocked = cross_validate(data, LarnConfig(), grid).per_fold_sse
        assert np.array_equal(blocked, whole)

    def test_support_monotone_along_threshold_axis(self):
        data = make_data(7)
        grid = CvGrid(lambdas=[0.5, 2.0], n_thresholds=12, k=3, seed=0)
        config = LarnConfig()
        from larn.model_selection import _fold_fits
        fits = _fold_fits(data, config, grid.lambdas, np.arange(data.n))
        cv = cross_validate(data, config, grid)
        for l_idx, fit in enumerate(fits):
            B = fit.b_hat
            sizes = [np.count_nonzero(np.where(np.abs(B) <= t, 0.0, B))
                     for t in cv.thresholds[l_idx]]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_tie_break_prefers_sparser_cell(self):
        from larn.model_selection import _best_cell
        surface = np.array([[2.0, 1.0, 1.0],
                            [1.0, 3.0, 1.0]])
        # four tied minima; the largest lambda index wins, then the largest
        # threshold index
        assert _best_cell(surface) == (1, 2)
        assert _best_cell(np.array([[5.0, 4.0], [6.0, 7.0]])) == (0, 1)

    @pytest.mark.filterwarnings("ignore:X'X is rank deficient")
    def test_fold_failure_raises(self):
        # column 3 is nonzero only in row 5, so the training set without row 5
        # cannot be solved at any lambda: no cell of that fold can be scored
        rng = np.random.default_rng(0)
        X = rng.standard_normal((12, 4))
        X[:, 3] = 0.0
        X[5, 3] = 1.0
        data = Dataset(X, rng.standard_normal((12, 2)))
        grid = CvGrid(lambdas=[0.1, 1.0, 10.0], n_thresholds=4, k=3, seed=0)
        fold = next(i for i, f in enumerate(kfold_split(12, 3, 0)) if 5 in f) + 1
        for jobs in (1, 2):
            with pytest.raises(SolverError, match=f"fold {fold} of 3: .*column 3 is "
                                                  "identically zero"):
                cross_validate(data, LarnConfig(), grid, jobs=jobs)

    def test_exp_transform_warns_in_either_mode(self):
        data = make_data(16)
        grid = CvGrid(lambdas=[0.5, 2.0], n_thresholds=3, k=3, seed=0)
        for one_step in (True, False):
            config = LarnConfig(penalty=PenaltySpec(transform=EXP_NEG), one_step=one_step)
            with pytest.warns(RuntimeWarning, match="concavity"):
                cross_validate(data, config, grid)

    @pytest.mark.parametrize("jobs", [1.5, True, 0])
    def test_jobs_is_a_positive_integer(self, jobs):
        # 1.5 and True ran
        grid = CvGrid(lambdas=[0.5, 2.0], n_thresholds=3, k=3, seed=0)
        with pytest.raises(ValueError, match="^jobs must be an integer"):
            cross_validate(make_data(9), LarnConfig(), grid, jobs=jobs)

    def test_determinism_across_jobs(self):
        data = make_data(9)
        grid = CvGrid(lambdas=default_lambdas(num=6), n_thresholds=5, k=3, seed=4)
        a = cross_validate(data, LarnConfig(), grid, jobs=1)
        b = cross_validate(data, LarnConfig(), grid, jobs=4)
        np.testing.assert_array_equal(a.cv_rmse, b.cv_rmse)
        assert a.best == b.best


class TestPrefixScoring:
    @staticmethod
    def assert_matches_direct(X_test, Y_test, stack, thresholds):
        got = model_selection._sse_over_thresholds(X_test, Y_test, stack, thresholds)
        ref = direct_sse(X_test, Y_test, stack, thresholds)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
        assert np.array_equal(np.diff(got, axis=1) == 0, np.diff(ref, axis=1) == 0)
        all_zero = thresholds >= np.abs(stack).max(axis=(1, 2))[:, None]
        assert np.all(got[all_zero] == np.sum(np.square(Y_test)))
        assert np.array_equal(got[all_zero], ref[all_zero])
        assert model_selection._best_cell(got) == model_selection._best_cell(ref)
        return got

    @staticmethod
    def fold(n_test, p, q=3, L=6, seed=0):
        # a stack of sparse fits with one all-zero fit and an entry whose |b|
        # repeats in another column
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_test, p))
        stack = rng.standard_normal((L, p, q)) * (rng.random((L, p, q)) < 0.5)
        stack[2] = 0.0
        stack[1, 0, 0], stack[1, 3, 1] = 0.7, -0.7
        Y = X @ stack[0] + 0.3 * rng.standard_normal((n_test, q))
        return X, Y, stack

    @pytest.mark.parametrize("n_test, p", [(8, 12), (40, 6)])
    def test_per_lambda_grids(self, n_test, p):
        # the grids cross_validate builds; the all-zero fit's are all 0
        X, Y, stack = self.fold(n_test, p)
        thresholds = np.vstack([threshold_grid(np.max(np.abs(B)), 40) for B in stack])
        assert np.all(thresholds[2] == 0.0)
        self.assert_matches_direct(X, Y, stack, thresholds)

    @pytest.mark.parametrize("n_test, p", [(8, 12), (40, 6)])
    def test_shared_grid_with_ties_and_entry_values(self, n_test, p):
        # one grid for every fit: a repeated level, levels equal to an entry's
        # |b| (kept only when |b| > t) and levels above every |b|
        X, Y, stack = self.fold(n_test, p)
        top = np.abs(stack).max()
        levels = np.sort(np.r_[np.linspace(0.0, top, 9), 0.7, 0.7,
                               np.abs(stack[0][stack[0] != 0])[:3], top, 2 * top])
        thresholds = np.tile(levels, (len(stack), 1))
        self.assert_matches_direct(X, Y, stack, thresholds)

    @pytest.mark.parametrize("noise", [1e-4, 1e-8])
    def test_low_noise(self, noise, monkeypatch):
        # at low noise a zero-anchored expansion, ||Y||^2 - 2<X'Y, B> + ...,
        # cancels to rounding; anchored at the fit's residual the error
        # stays that of forming the residual
        rng = np.random.default_rng(3)
        X = rng.standard_normal((60, 10))
        B0 = np.zeros((10, 3))
        B0[:3] = rng.normal(1.5, 0.5, (3, 3))
        data = Dataset(X, X @ B0 + noise * rng.standard_normal((60, 3)))
        calls = []
        score = model_selection._sse_over_thresholds

        def recorded(*args):
            calls.append(args)
            return score(*args)
        monkeypatch.setattr(model_selection, "_sse_over_thresholds", recorded)
        grid = CvGrid(np.logspace(-6, 2, 30), n_thresholds=50, k=5, seed=0)
        cv = cross_validate(data, LarnConfig(), grid)
        assert np.all(np.isfinite(cv.per_fold_sse)) and np.all(cv.per_fold_sse >= 0)
        ref = np.stack([direct_sse(*args) for args in calls])
        surface = np.sqrt(ref.sum(axis=0)) / (data.n * data.q)
        assert cv.best_index == model_selection._best_cell(surface)
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("np.longdouble is no wider than float64 here")
        exact = np.stack([direct_sse(*args, dtype=np.longdouble) for args in calls])

        def worst(sse):
            return float(np.max(np.abs(sse - exact) / exact))
        assert worst(cv.per_fold_sse) <= 4.0 * worst(ref)

    def test_work_memory_bounded_by_the_block(self):
        # a fold of the larger case: 100 fits, p = q = 50, n_test = 200
        rng = np.random.default_rng(0)
        X, Y = rng.standard_normal((200, 50)), rng.standard_normal((200, 50))
        stack = rng.standard_normal((100, 50, 50))
        thresholds = np.tile(np.linspace(0.0, 3.0, 100), (100, 1))
        tracemalloc.start()
        try:
            model_selection._sse_over_thresholds(X, Y, stack, thresholds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block's two (q, p, min(n_test, p)) work arrays and its small ones
        assert peak <= 3 * model_selection._SCORE_BLOCK_ENTRIES * 8


class TestBestOnEdge:
    def test_flags_an_optimum_at_the_grid_edge(self):
        # on the default grid (1e-2..1e2) the paper instance's optimum is
        # its largest lambda; widening the grid to 1e4 brings it inside
        data, _ = generate_instance(SimConfig(n=50, p=20, q=20, seed=1))
        edge = cross_validate(data, LarnConfig(), CvGrid(k=5, seed=0))
        assert edge.best_on_edge and edge.best[0] == edge.lambdas[-1]
        assert edge.to_dict()["best_on_edge"] is True
        inside = cross_validate(data, LarnConfig(),
                                CvGrid(lambdas=np.logspace(-2, 4, 100), k=5, seed=0))
        assert not inside.best_on_edge
        assert inside.to_dict()["best_on_edge"] is False

    def test_smallest_lambda_counts_as_edge(self):
        data = make_data(3)
        cv = cross_validate(data, LarnConfig(), CvGrid(lambdas=[1e-8, 1e3, 1e4],
                                                       thresholds=[0.0], k=3))
        assert cv.best_index[0] == 0 and cv.best_on_edge


class TestFitWithSelection:
    def test_benchmark_instance_selects_positive_threshold(self):
        cfg = SimConfig(n=50, p=20, q=20, rho=0.7, seed=1)
        data, _ = generate_instance(cfg)
        grid = CvGrid(lambdas=default_lambdas(num=25), n_thresholds=25, k=5, seed=0)
        fit, cv = fit_with_selection(data, LarnConfig(), grid)
        lam_star, t_star = cv.best
        assert t_star > 0
        unthresholded = larn_fit(data, LarnConfig(), lam_star).b_hat
        assert np.count_nonzero(fit.b_hat) < np.count_nonzero(unthresholded)

    def test_result_carries_selected_pair(self):
        data = make_data(10)
        grid = CvGrid(lambdas=default_lambdas(num=5), n_thresholds=4, k=3, seed=2)
        fit, cv = fit_with_selection(data, LarnConfig(), grid)
        assert (fit.lam, fit.threshold) == cv.best

    def test_one_step_reads_the_cross_validation_fit(self, monkeypatch):
        # the selected fit is the full-data path level: nothing is solved again
        def no_refit(*args, **kwargs):
            raise AssertionError("larn_fit called")
        monkeypatch.setattr(model_selection, "larn_fit", no_refit)
        data = make_data(11)
        grid = CvGrid(lambdas=default_lambdas(num=6), n_thresholds=5, k=3, seed=1)
        fit, cv = fit_with_selection(data, LarnConfig(), grid)
        lam, t = cv.best
        assert cv.full_fit.lam == lam
        assert np.array_equal(fit.b_hat, within_row_threshold(cv.full_fit.b_hat, t))
        assert fit.objective_trace == cv.full_fit.objective_trace
        assert np.array_equal(fit.kkt_residuals, cv.full_fit.kkt_residuals)

    def test_one_start_per_training_set(self, monkeypatch):
        # k fold starts and one full-data start in either mode: not one per
        # lambda, and no second one for a refit
        calls = []

        def counted(train):
            calls.append(train.n)
            return initial_estimate(train)
        monkeypatch.setattr(model_selection, "initial_estimate", counted)
        monkeypatch.setattr(estimator, "initial_estimate", counted)
        data = make_data(12)
        grid = CvGrid(lambdas=default_lambdas(num=4), n_thresholds=3, k=4, seed=0)
        for one_step in (True, False):
            calls.clear()
            fit_with_selection(data, LarnConfig(one_step=one_step), grid)
            assert len(calls) == 4 + 1
            assert calls.count(data.n) == 1

    def test_path_kkt_residuals_match_single_level_formula(self):
        data = make_data(13)
        config = LarnConfig()
        lambdas = default_lambdas(num=5)
        fits = model_selection._fold_fits(data, config, lambdas, np.arange(data.n))
        B0 = initial_estimate(data)
        w = group_weights(B0, config.penalty)
        for fit, lam in zip(fits, lambdas):
            np.testing.assert_allclose(fit.kkt_residuals,
                                       kkt_residual(data, fit.b_hat, w, lam),
                                       rtol=1e-9, atol=1e-12)

    def test_full_mode_selected_fit_is_larn_fit(self):
        data = make_data(14)
        config = LarnConfig(one_step=False)
        grid = CvGrid(lambdas=[0.5, 2.0, 8.0], n_thresholds=4, k=3, seed=0)
        fit, cv = fit_with_selection(data, config, grid)
        lam, t = cv.best
        ref = larn_fit(data, config, lam)
        assert np.array_equal(cv.full_fit.b_hat, ref.b_hat)
        assert np.array_equal(fit.b_hat, within_row_threshold(ref.b_hat, t))
        assert fit.objective_trace == ref.objective_trace
        assert fit.outer_iters == ref.outer_iters

    def test_uncertified_selection_warns_once(self, monkeypatch):
        # in either mode: the selected fit warns, the (fold, lambda) fits do
        # not.  Three sweeps with no Newton finish leave it uncertified
        monkeypatch.setattr(group_solver, "_NEWTON_STEPS", 0)
        data = make_data(15)
        grid = CvGrid(lambdas=[0.5, 2.0], n_thresholds=4, k=3, seed=0)
        solver = SolverSettings(max_sweeps=3)
        # full mode runs rounds until a level is certified, so it is capped at one
        for config in (LarnConfig(solver=solver),
                       LarnConfig(one_step=False, max_outer_iters=1, solver=solver)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fit, cv = fit_with_selection(data, config, grid)
            messages = [str(w.message) for w in caught if "not certified" in str(w.message)]
            assert np.max(cv.full_fit.kkt_residuals) > 1e-6
            assert len(messages) == 1
            assert f"lambda = {fit.lam:g}" in messages[0]
