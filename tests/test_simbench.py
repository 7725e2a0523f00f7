import warnings
from unittest import mock

import numpy as np
import pytest

from larn import group_solver, simbench
from larn.estimator import LarnConfig, larn_fit
from larn.group_solver import Dataset, bcd_solve, kkt_residual
from larn.model_selection import default_lambdas, kfold_split
from larn.simbench import (METHODS, SimConfig, ar1_covariance,
                           generate_instance, lasso_path, metrics,
                           run_benchmark, sample_gaussian_rows, select_lasso,
                           separate_lasso)


class TestAr1Covariance:
    def test_entries(self):
        S = ar1_covariance(3, 0.7)
        assert S[0, 2] == pytest.approx(0.49, rel=1e-15)
        assert S[1, 0] == pytest.approx(0.7)
        assert np.all(np.diag(S) == 1.0)

    def test_rho_zero_identity(self):
        np.testing.assert_array_equal(ar1_covariance(4, 0.0), np.eye(4))

    def test_positive_definite(self):
        S = ar1_covariance(4, 0.5)
        assert np.min(np.linalg.eigvalsh(S)) > 0

    def test_rho_range(self):
        with pytest.raises(ValueError):
            ar1_covariance(3, 1.0)
        with pytest.raises(ValueError):
            ar1_covariance(3, -0.1)

    @pytest.mark.parametrize("dim", [2.5, True, 0])
    def test_dim_is_a_count(self, dim):
        # 2.5 gave a 3 x 3 matrix
        with pytest.raises(ValueError, match="^dim must be an integer"):
            ar1_covariance(dim, 0.5)


class TestSampling:
    def test_seed_repeat_identical(self):
        S = ar1_covariance(4, 0.5)
        a = sample_gaussian_rows(10, S, 42)
        b = sample_gaussian_rows(10, S, 42)
        np.testing.assert_array_equal(a, b)

    def test_identity_covariance_moments(self):
        Z = sample_gaussian_rows(100_000, np.eye(4), 0)
        emp = Z.T @ Z / len(Z)
        assert np.max(np.abs(emp - np.eye(4))) < 0.05

    def test_ar_correlation_recovered(self):
        S = ar1_covariance(5, 0.7)
        Z = sample_gaussian_rows(100_000, S, 1)
        corr = np.corrcoef(Z[:, 0], Z[:, 1])[0, 1]
        assert corr == pytest.approx(0.7, abs=0.02)

    def test_non_pd_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            sample_gaussian_rows(5, bad, 0)


class TestGenerateInstance:
    def test_no_rows_means_pure_noise(self):
        cfg = SimConfig(n=15, p=4, q=3, rho=0.5, row_prob=0.0, seed=3)
        data, B0 = generate_instance(cfg)
        assert np.all(B0 == 0.0)
        # Y equals the noise matrix exactly when B0 is zero
        assert data.Y.shape == (15, 3)

    def test_dense_config_has_no_zeros(self):
        cfg = SimConfig(n=10, p=6, q=4, within_row_prob=1.0, row_prob=1.0, seed=4)
        _, B0 = generate_instance(cfg)
        assert np.all(B0 != 0.0)

    def test_shapes_and_determinism(self):
        cfg = SimConfig(n=20, p=7, q=5, seed=9)
        d1, b1 = generate_instance(cfg)
        d2, b2 = generate_instance(cfg)
        np.testing.assert_array_equal(d1.X, d2.X)
        np.testing.assert_array_equal(d1.Y, d2.Y)
        np.testing.assert_array_equal(b1, b2)
        assert d1.X.shape == (20, 7) and d1.Y.shape == (20, 5)

    def test_sparsity_rates_moderate_sample(self):
        # smaller replicate of the generator-fidelity acceptance check
        row_fracs, within = [], []
        for rep in range(100):
            cfg = SimConfig(n=2, p=60, q=60, seed=[5, rep])
            _, B0 = generate_instance(cfg)
            nz_rows = np.linalg.norm(B0, axis=1) > 0
            row_fracs.append(nz_rows.mean())
            if nz_rows.any():
                within.append((B0[nz_rows] != 0).mean())
        assert np.mean(row_fracs) == pytest.approx(0.125, abs=0.05)
        assert np.mean(within) == pytest.approx(0.3, abs=0.05)


class TestMetrics:
    def test_exact_recovery(self):
        B = np.array([[1.0, 0.0], [0.0, 2.0]])
        m = metrics(B, B, 0.1)
        assert (m["mae"], m["tp"], m["tn"]) == (0.0, 1.0, 1.0)

    def test_zero_estimate(self):
        B0 = np.array([[1.0, 0.0], [0.0, -2.0]])
        m = metrics(np.zeros((2, 2)), B0, 0.0)
        assert m["tp"] == 0.0
        assert m["tn"] == 1.0
        assert m["mae"] == pytest.approx(np.sum(np.abs(B0)) / 4)

    def test_matches_flat_loop(self):
        rng = np.random.default_rng(0)
        B_hat = rng.standard_normal((4, 3)) * (rng.random((4, 3)) > 0.4)
        B0 = rng.standard_normal((4, 3)) * (rng.random((4, 3)) > 0.5)
        m = metrics(B_hat, B0, 0.0)
        mae = tp_num = tp_den = tn_num = tn_den = 0.0
        for j in range(4):
            for k in range(3):
                mae += abs(B_hat[j, k] - B0[j, k]) / 12
                if B0[j, k] != 0:
                    tp_den += 1
                    tp_num += B_hat[j, k] != 0
                else:
                    tn_den += 1
                    tn_num += B_hat[j, k] == 0
        assert m["mae"] == pytest.approx(mae, rel=1e-12)
        assert m["tp"] == pytest.approx(tp_num / tp_den)
        assert m["tn"] == pytest.approx(tn_num / tn_den)

    def test_empty_reference_class_convention(self):
        ones = np.ones((2, 2))
        assert metrics(ones, ones, 0.0)["tn"] == 1.0
        zeros = np.zeros((2, 2))
        assert metrics(zeros, zeros, 0.0)["tp"] == 1.0

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(1)
        B_hat = rng.standard_normal((5, 4)) * (rng.random((5, 4)) > 0.3)
        B0 = rng.standard_normal((5, 4)) * (rng.random((5, 4)) > 0.5)
        perm = rng.permutation(4)
        m1 = metrics(B_hat, B0, 0.7)
        m2 = metrics(B_hat[:, perm], B0[:, perm], 0.7)
        assert m1 == m2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            metrics(np.zeros((2, 2)), np.zeros((3, 2)), 0.0)


class TestSeparateLasso:
    def test_unpenalized_orthonormal(self):
        rng = np.random.default_rng(2)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        Y = rng.standard_normal((6, 3))
        B = separate_lasso(Dataset(Q, Y), 0.0)
        np.testing.assert_allclose(B, Q.T @ Y, atol=1e-10)

    def test_orthonormal_soft_threshold_closed_form(self):
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        Y = 2.0 * rng.standard_normal((8, 4))
        lam = 1.1
        B = separate_lasso(Dataset(Q, Y), lam)
        Z = Q.T @ Y
        closed = np.sign(Z) * np.maximum(np.abs(Z) - lam / 2, 0.0)
        np.testing.assert_allclose(B, closed, atol=1e-10)

    def test_huge_penalty_zeroes_everything(self):
        rng = np.random.default_rng(4)
        d = Dataset(rng.standard_normal((10, 4)), rng.standard_normal((10, 2)))
        assert np.all(separate_lasso(d, 1e8) == 0.0)

    def test_path_matches_individual_solves(self):
        rng = np.random.default_rng(5)
        d = Dataset(rng.standard_normal((15, 5)), rng.standard_normal((15, 3)))
        lambdas = [0.3, 2.0, 9.0]
        stack = lasso_path(d, lambdas)
        for lam, B in zip(lambdas, stack):
            np.testing.assert_allclose(B, separate_lasso(d, lam), atol=1e-8)

    def test_path_certified_on_paper_instance(self):
        data, _ = generate_instance(SimConfig(n=50, p=20, q=20, seed=1))
        lambdas = np.logspace(-2, 4, 100)
        stack = lasso_path(data, lambdas)
        for lam, B in zip(lambdas, stack):
            G = data.X.T @ (data.Y - data.X @ B)
            res = np.where(B != 0, np.abs(2.0 * G - lam * np.sign(B)),
                           np.maximum(np.abs(G) - lam / 2, 0.0))
            assert np.max(res) <= 1e-6


class TestSelectLasso:
    def test_all_zero_fits_tie_to_the_largest_lambda(self):
        # every level lies above the lasso's zero threshold 2 max |X'Y| on
        # the full data and on each training set, so every fit is zero, every
        # level has the same CV error, and the tie goes to the largest level
        rng = np.random.default_rng(6)
        d = Dataset(rng.standard_normal((20, 5)), rng.standard_normal((20, 3)))
        k, seed = 4, 0
        sets = [np.arange(d.n)] + [np.setdiff1d(np.arange(d.n), f)
                                   for f in kfold_split(d.n, k, seed)]
        zero = max(2.0 * np.max(np.abs(d.X[i].T @ d.Y[i])) for i in sets)
        lambdas = zero * np.array([3.0, 1.5, 8.0, 2.0])
        B, lam, err = select_lasso(d, lambdas, k, seed)
        assert np.all(B == 0.0)
        assert lam == 8.0 * zero
        assert err == pytest.approx(np.sqrt(np.sum(d.Y ** 2)) / (d.n * d.q), rel=1e-12)


class TestUnitWeightSpecialCase:
    def test_larn_fit_with_unit_weights_equals_plain_group_lasso(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((25, 8))
        Y = rng.standard_normal((25, 3))
        data = Dataset(X, Y)
        lam = 2.4
        cfg = LarnConfig(unit_weights=True)
        fit = larn_fit(data, cfg, lam)
        B0 = np.linalg.lstsq(X, Y, rcond=None)[0]
        B_direct, _ = bcd_solve(data, np.ones(8), lam, init=B0)
        np.testing.assert_array_equal(fit.b_hat, B_direct)


class TestRunBenchmark:
    def test_smoke_single_replication(self):
        cfg = SimConfig(n=20, p=5, q=3, rho=0.5, seed=1, replications=1)
        rows = run_benchmark(cfg, lambdas=default_lambdas(num=8),
                             n_thresholds=8, k=3)
        assert len(rows) == len(METHODS)
        for row in rows:
            assert row.method in METHODS
            assert np.isfinite([row.cv_rmse, row.mae, row.tp, row.tn]).all()
            assert 0.0 <= row.tp <= 1.0 and 0.0 <= row.tn <= 1.0

    def test_seed_repeat_identical_rows(self):
        cfg = SimConfig(n=15, p=4, q=2, rho=0.0, seed=7, replications=2)
        kw = dict(lambdas=default_lambdas(num=5), n_thresholds=4, k=3)
        a = run_benchmark(cfg, **kw)
        b = run_benchmark(cfg, **kw)
        assert [r.astuple() for r in a] == [r.astuple() for r in b]

    def test_jobs_do_not_change_rows(self):
        cfg = SimConfig(n=15, p=4, q=2, rho=0.5, seed=8, replications=3)
        kw = dict(lambdas=default_lambdas(num=5), n_thresholds=4, k=3)
        a = run_benchmark(cfg, jobs=1, **kw)
        b = run_benchmark(cfg, jobs=4, **kw)
        assert [r.astuple() for r in a] == [r.astuple() for r in b]

    def test_list_seed_rows_do_not_depend_on_jobs(self):
        # a list-valued seed is flattened to one integer per replication
        cfg = SimConfig(n=15, p=4, q=2, rho=0.5, seed=[8, 3], replications=2)
        kw = dict(lambdas=default_lambdas(num=5), n_thresholds=4, k=3)
        a = run_benchmark(cfg, jobs=1, **kw)
        b = run_benchmark(cfg, jobs=2, **kw)
        assert len(a) == 2 * len(METHODS)
        assert [r.astuple() for r in a] == [r.astuple() for r in b]

    def test_unknown_method_rejected(self):
        cfg = SimConfig(replications=1)
        with pytest.raises(ValueError, match="unknown methods"):
            run_benchmark(cfg, methods=["larn", "ridge"])

    def test_empty_method_list_rejected(self):
        # rejected before any replication is drawn, not scored as no rows
        cfg = SimConfig(n=15, p=4, q=2, replications=1)
        with mock.patch.object(simbench, "generate_instance") as draw:
            with pytest.raises(ValueError, match="no methods"):
                run_benchmark(cfg, methods=[])
        draw.assert_not_called()

    @pytest.mark.parametrize("jobs", [2.5, True])
    def test_jobs_is_a_positive_integer(self, jobs):
        # both ran; checked before any replication is drawn
        cfg = SimConfig(n=15, p=4, q=2, replications=1)
        with mock.patch.object(simbench, "generate_instance") as draw:
            with pytest.raises(ValueError, match="^jobs must be an integer"):
                run_benchmark(cfg, jobs=jobs)
        draw.assert_not_called()

    def test_bad_fold_seed_rejected(self):
        # checked with the grid, before any replication is drawn
        cfg = SimConfig(n=15, p=4, q=2, replications=1)
        with mock.patch.object(simbench, "generate_instance") as draw:
            with pytest.raises(ValueError, match="seed"):
                run_benchmark(cfg, cv_seed=-1)
        draw.assert_not_called()

    def test_failed_replication_skipped_and_reported(self):
        # a replication whose solve fails adds no rows but a note; the next
        # one still runs
        calls = []

        def failing_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise group_solver.SolverError("no progress")
            return select_lasso(*args)

        notes = []
        cfg = SimConfig(n=30, p=6, q=3, seed=2, replications=2)
        with mock.patch.object(simbench, "select_lasso", failing_once):
            rows = run_benchmark(cfg, methods=("seplasso",), lambdas=[0.1, 1, 10],
                                 n_thresholds=3, k=3, progress=notes.append)
        assert [(row.replication, row.method) for row in rows] == [(1, "seplasso")]
        assert notes == ["replication 0 failed: no progress",
                         "scored 1 rows over 2 replications"]


class TestSimConfigValidation:
    def test_unknown_field_named(self):
        with pytest.raises(ValueError, match="wrong_field"):
            SimConfig.from_dict({"n": 10, "wrong_field": 3})

    def test_bad_rho(self):
        with pytest.raises(ValueError, match="rho"):
            SimConfig(rho=1.5)

    @pytest.mark.parametrize("field, value", [
        ("n", 20.7), ("p", 5.0), ("q", "3"), ("replications", True), ("n", 0),
        ("seed", 1.5), ("seed", "abc"), ("seed", -1), ("seed", [1, 2.5]), ("seed", None),
    ])
    def test_non_integer_counts_and_seeds_named(self, field, value):
        # a JSON config reaches the constructor as is: a float count was
        # truncated, and a bad seed failed only when an instance was drawn
        with pytest.raises(ValueError, match=field):
            SimConfig.from_dict({field: value})

    @pytest.mark.parametrize("field, value", [
        ("signal_mean", np.nan), ("signal_mean", -np.inf), ("signal_sd", np.inf),
        ("signal_sd", -1.0),
    ])
    def test_bad_signal_named(self, field, value):
        # NaN and inf were accepted, and drawing an instance then failed on
        # a non-finite Y
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("seed", [0, 7, np.int64(3), [1, 0], (8, 3)])
    def test_integer_seeds_accepted(self, seed):
        assert SimConfig(seed=seed).seed is seed

    def test_roundtrip(self):
        cfg = SimConfig(n=11, p=3, q=2, rho=0.9, seed=5)
        assert SimConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


def lasso_residuals(data, B, lam):
    # entrywise lasso conditions for ||Y - XB||^2 + lam ||B||_1
    G = data.X.T @ (data.Y - data.X @ B)
    return np.where(B != 0, np.abs(2.0 * G - lam * np.sign(B)),
                    np.maximum(np.abs(G) - 0.5 * lam, 0.0))


def proximal_gradient_lasso(X, Y, lam, steps=20000):
    # ISTA on ||Y - XB||^2 + lam ||B||_1 with step 1 / (2 ||X||_2^2)
    step = 0.5 / np.linalg.norm(X, 2) ** 2
    B = np.zeros((X.shape[1], Y.shape[1]))
    for _ in range(steps):
        Z = B + 2.0 * step * X.T @ (Y - X @ B)
        B = np.sign(Z) * np.maximum(np.abs(Z) - step * lam, 0.0)
    return B


def assert_collinear_path_certified(scale):
    # lasso path on a design whose column 5 is ``scale`` times column 2
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 6))
    X[:, 5] = scale * X[:, 2]
    d = Dataset(X, X[:, :3] @ np.ones((3, 2)) + 0.1 * rng.standard_normal((20, 2)))
    lambdas = [0.0, 0.01, 0.5, 3.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stack = lasso_path(d, lambdas)
    for B, lam in zip(stack, lambdas):
        assert np.max(lasso_residuals(d, B, lam)) <= 1e-6


def recorded_lasso_path(data, lambdas, **kw):
    # lasso_path plus the kernel's traces, one list of q column traces per level
    runs = []

    def recording(*args, **kwargs):
        runs.append(group_solver._cd_path(*args, **kwargs))
        return runs[-1]

    with mock.patch.object(simbench, "_cd_path", recording):
        stack = lasso_path(data, lambdas, **kw)
    traces = runs[0][1]
    return stack, [traces[i:i + data.q] for i in range(0, len(traces), data.q)]


def sweeps_and_monotone(traces):
    # level-sweeps, counting a level's as its slowest column's; and whether
    # every column's trace is nonincreasing, scaled by its own start
    sweeps = sum(max(len(t) - 1 for t in level) for level in traces)
    return sweeps, all(np.all(np.diff(t) <= 1e-12 * t[0]) for level in traces for t in level)


class TestLassoFinish:
    def test_paper_path_certified_in_few_sweeps(self):
        # from zero, plain sweeps certify this path in 9574 level-sweeps;
        # from the homotopy's start it takes 0: every column starts
        # certified and retires before a sweep, a level's sweeps counted as
        # its slowest column's
        data, _ = generate_instance(SimConfig(n=50, p=20, q=20, seed=1))
        lambdas = np.logspace(-2, 4, 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            stack, traces = recorded_lasso_path(data, lambdas)
        sweeps, monotone = sweeps_and_monotone(traces)
        assert sweeps == 0 and monotone
        for B, lam in zip(stack, lambdas):
            assert np.max(lasso_residuals(data, B, lam)) <= 1e-6

    @pytest.mark.parametrize("n, p, q", [(30, 8, 3), (25, 6, 1)])
    def test_agrees_with_proximal_gradient(self, n, p, q):
        rng = np.random.default_rng(n + p + q)
        X = rng.standard_normal((n, p))
        B0 = rng.normal(0.0, 2.0, (p, q)) * (rng.random((p, q)) < 0.5)
        d = Dataset(X, X @ B0 + rng.standard_normal((n, q)))
        lambdas = [0.05, 1.0, 8.0, 40.0]
        stack = lasso_path(d, lambdas)
        for lam, B in zip(lambdas, stack):
            np.testing.assert_allclose(B, proximal_gradient_lasso(X, d.Y, lam), atol=1e-8)

    def test_wide_instance_certified_and_finite(self):
        # p > n: from zero the sweeps leave more nonzeros per column than X
        # has rows, and the six smallest levels used to end uncertified after
        # 1000 sweeps (KKT 2e-2 to 9e-2); the homotopy's start has at most n
        data, _ = generate_instance(SimConfig(n=50, p=60, q=10, rho=0.7, seed=1))
        lambdas = np.logspace(-2, 4, 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            stack, traces = recorded_lasso_path(data, lambdas)
        assert np.all(np.isfinite(stack))
        assert sweeps_and_monotone(traces)[1]
        for B, lam in zip(stack, lambdas):
            assert np.max(lasso_residuals(data, B, lam)) <= 1e-6
            assert np.count_nonzero(B, axis=0).max() <= data.n

    def test_tiny_wide_design_finite(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((6, 15))
        X[:, 14] = -2.0 * X[:, 3]
        d = Dataset(X, rng.standard_normal((6, 2)))
        stack = lasso_path(d, [0.0, 1e-3, 0.1, 2.0], max_sweeps=200)
        assert np.all(np.isfinite(stack))

    def test_duplicate_column_certified(self):
        # two equal columns, which G_AA cannot hold together: the homotopy's
        # path keeps one of them
        assert_collinear_path_certified(1.0)

    def test_scaled_copy_column_certified(self):
        # a column -2 times another: from zero, the sweeps alone left
        # lambda = 0.01 at a KKT residual of 5e-3
        assert_collinear_path_certified(-2.0)

    def test_uncertified_level_warns_once(self, monkeypatch):
        # from the homotopy's start every level is certified at once, so the
        # homotopy returns zero here, where three sweeps leave the p > n path
        # uncertified
        monkeypatch.setattr(group_solver, "_weighted_homotopy",
                            lambda G, XtY, W, lambdas, track: np.zeros((len(lambdas), len(G))))
        data, _ = generate_instance(SimConfig(n=50, p=60, q=10, rho=0.7, seed=1))
        lambdas = np.logspace(-2, 4, 20)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stack = lasso_path(data, lambdas, max_sweeps=3)
        assert len(caught) == 1
        worst = [np.max(lasso_residuals(data, B, lam)) for B, lam in zip(stack, lambdas)]
        i = int(np.argmax(worst))
        message = str(caught[0].message)
        assert caught[0].category is RuntimeWarning
        assert f"lambda = {lambdas[i]:g}" in message
        assert f"{worst[i]:.3g}" in message and "1e-06" in message


def recorded_start(data, lambdas):
    # the homotopy points (L*q, p) that the kernel computes for lasso_path
    starts = []
    original = group_solver._weighted_homotopy

    def recording(*args, **kwargs):
        starts.append(original(*args, **kwargs))
        return starts[-1]

    with mock.patch.object(group_solver, "_weighted_homotopy", recording):
        lasso_path(data, lambdas)
    return starts[0]


def homotopy(data, lambdas, weights=None):
    # the kernel's weighted homotopy on every column of Y at every level,
    # (L, p, q); column k of ``weights`` (p, q) weights column k of Y
    L, q = len(lambdas), data.q
    W = np.ones((data.p, q)) if weights is None else weights
    out = group_solver._weighted_homotopy(data.X.T @ data.X, data.X.T @ data.Y, W,
                                          np.repeat(lambdas, q), np.tile(np.arange(q), L))
    return out.reshape(L, q, data.p).transpose(0, 2, 1)


class TestLassoHomotopy:
    @pytest.mark.parametrize("p, q", [(20, 20), (60, 10)])
    def test_start_alone_certified_on_training_sets(self, p, q):
        data, _ = generate_instance(SimConfig(n=50, p=p, q=q, rho=0.7, seed=1))
        lambdas = np.logspace(-2, 4, 100)
        for test_idx in kfold_split(data.n, 5, 0):
            train = data.subset(np.setdiff1d(np.arange(data.n), test_idx))
            for B, lam in zip(homotopy(train, lambdas), lambdas):
                assert np.max(lasso_residuals(train, B, lam)) <= 1e-6

    def test_left_entry_does_not_reenter_on_its_side(self):
        # column 3 of the paper replication's full data: entry 12 leaves at
        # mu = 2.109, where c_12 = -mu up to rounding; were it let back in
        # on that side, it would re-enter at once and every level from
        # mu = 1.76 down would fail the KKT test
        data, _ = generate_instance(SimConfig(n=50, p=20, q=20, rho=0.7, seed=[1, 0]))
        lambdas = np.logspace(-2, 4, 100)
        for B, lam in zip(homotopy(data, lambdas), lambdas):
            assert np.max(lasso_residuals(data, B, lam)) <= 1e-6

    def test_any_level_order_matches_separate_lasso(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((30, 8))
        d = Dataset(X, X @ rng.normal(0.0, 2.0, (8, 3)) + rng.standard_normal((30, 3)))
        top = 2.0 * np.abs(X.T @ d.Y).max() * 1.5
        lambdas = [5.0, 0.3, top, 0.3, 0.01, 40.0]
        start = homotopy(d, lambdas)
        stack = lasso_path(d, lambdas)
        assert np.all(start[2] == 0.0) and np.all(stack[2] == 0.0)
        np.testing.assert_array_equal(start[1], start[3])
        for lam, B0, B in zip(lambdas, start, stack):
            reference = separate_lasso(d, lam)
            np.testing.assert_allclose(B0, reference, atol=1e-8)
            np.testing.assert_allclose(B, reference, atol=1e-8)

    def test_singular_solve_stops_at_last_knot(self):
        # G is singular on {0, 1}: the column starts at mu = 1 with entry 0,
        # entry 1 joins at mu = 0.25, and that solve fails, so the levels
        # below keep the knot b = (0.75, 0)
        G = np.ones((2, 2))
        start = group_solver._weighted_homotopy(G, np.array([[1.0], [0.5]]), np.ones((2, 1)),
                                                [3.0, 1.0, 0.2, 0.0], np.zeros(4, dtype=int))
        np.testing.assert_allclose(start, [[0.0, 0.0], [0.5, 0.0], [0.75, 0.0], [0.75, 0.0]])

    def test_weighted_path_is_the_rescaled_unit_path(self):
        # with w > 0, b_j = beta_j / w_j maps the weighted lasso on X to the
        # plain lasso on X diag(1/w), column by column
        rng = np.random.default_rng(12)
        X = rng.standard_normal((30, 8))
        d = Dataset(X, X @ rng.normal(0.0, 2.0, (8, 3)) + rng.standard_normal((30, 3)))
        W = rng.uniform(0.2, 5.0, (8, 3))
        lambdas = np.logspace(-2, 3, 40)
        weighted = homotopy(d, lambdas, W)
        for k in range(d.q):
            unit = homotopy(Dataset(X / W[:, k], d.Y[:, [k]]), lambdas)[:, :, 0]
            np.testing.assert_allclose(weighted[:, :, k], unit / W[:, k], rtol=0, atol=1e-10)

    def test_zero_weight_rows_start_at_least_squares_and_stay(self):
        # rows 0 and 4 are unpenalized: above the path's start the point is
        # the least-squares fit on them, and every level passes the weighted
        # KKT test with both rows nonzero
        rng = np.random.default_rng(13)
        X = rng.standard_normal((30, 8))
        d = Dataset(X, X @ rng.normal(0.0, 2.0, (8, 2)) + rng.standard_normal((30, 2)))
        W = np.ones((8, 2))
        W[[0, 4]] = 0.0
        lambdas = np.r_[1e6, np.logspace(-2, 3, 30)]
        path = homotopy(d, lambdas, W)
        ls = np.linalg.lstsq(X[:, [0, 4]], d.Y, rcond=None)[0]
        np.testing.assert_allclose(path[0][[0, 4]], ls, atol=1e-12)
        assert np.all(np.delete(path[0], [0, 4], axis=0) == 0.0)
        for B, lam in zip(path, lambdas):
            assert np.all(B[[0, 4]] != 0.0)
            for k in range(d.q):
                res = kkt_residual(Dataset(X, d.Y[:, [k]]), B[:, [k]], W[:, k], lam)
                assert np.max(res) <= 1e-8

    @pytest.mark.parametrize("scale", [1.0, -2.0])
    def test_collinear_start_finite(self, scale):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 6))
        X[:, 5] = scale * X[:, 2]
        d = Dataset(X, X[:, :3] @ np.ones((3, 2)) + 0.1 * rng.standard_normal((20, 2)))
        assert np.all(np.isfinite(recorded_start(d, [0.0, 0.01, 0.5, 3.0])))

    def test_wide_zero_level_start_finite(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((6, 15))
        X[:, 14] = -2.0 * X[:, 3]
        d = Dataset(X, rng.standard_normal((6, 2)))
        assert np.all(np.isfinite(recorded_start(d, [0.0, 1e-3, 0.1, 2.0])))
