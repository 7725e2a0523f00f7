import numpy as np
import pytest

from larn.estimator import LarnConfig, larn_fit
from larn.group_solver import Dataset, bcd_solve
from larn.model_selection import default_lambdas
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
        np.testing.assert_array_equal(fit.b_one_step, B_direct)


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

    def test_unknown_method_rejected(self):
        cfg = SimConfig(replications=1)
        with pytest.raises(ValueError, match="unknown methods"):
            run_benchmark(cfg, methods=["larn", "ridge"])


class TestSimConfigValidation:
    def test_unknown_field_named(self):
        with pytest.raises(ValueError, match="wrong_field"):
            SimConfig.from_dict({"n": 10, "wrong_field": 3})

    def test_bad_rho(self):
        with pytest.raises(ValueError, match="rho"):
            SimConfig(rho=1.5)

    def test_roundtrip(self):
        cfg = SimConfig(n=11, p=3, q=2, rho=0.9, seed=5)
        assert SimConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()
