import warnings

import numpy as np
import pytest

from larn import estimator, model_selection
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

    def test_threshold_grid_span(self):
        t = threshold_grid(2.0, num=100)
        assert len(t) == 100
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(1.8)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            CvGrid(lambdas=[])
        with pytest.raises(ValueError):
            CvGrid(lambdas=[-0.5, 1.0])
        with pytest.raises(ValueError):
            CvGrid(k=1)
        with pytest.raises(ValueError):
            CvGrid(thresholds=[-0.1])


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
        # 30 entries per threshold here: blocks of 3, 3 and 2 thresholds
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

    def test_determinism_across_jobs(self):
        data = make_data(9)
        grid = CvGrid(lambdas=default_lambdas(num=6), n_thresholds=5, k=3, seed=4)
        a = cross_validate(data, LarnConfig(), grid, jobs=1)
        b = cross_validate(data, LarnConfig(), grid, jobs=4)
        np.testing.assert_array_equal(a.cv_rmse, b.cv_rmse)
        assert a.best == b.best


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

    def test_uncertified_selection_warns_once(self):
        # in either mode: the selected fit warns, the (fold, lambda) fits do not
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
