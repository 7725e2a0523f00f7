import warnings

import numpy as np
import pytest
import scipy.linalg

from larn import group_solver
from larn.depth_penalty import (EXP_NEG, HALFSPACE, MAX_MINUS, PenaltySpec,
                                inverse_depth, penalty_weight)
from larn.estimator import (FitResult, LarnConfig, group_weights,
                            initial_estimate, larn_fit, larn_path, theory_threshold,
                            true_objective, within_row_threshold)
from larn.group_solver import Dataset, SolverSettings, row_support
from larn.simbench import SimConfig, generate_instance


def sparse_instance(seed, n=40, p=10, q=4, noise=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    B0 = np.zeros((p, q))
    B0[:3] = rng.normal(2.0, 1.0, (3, q))
    Y = X @ B0 + noise * rng.standard_normal((n, q))
    return Dataset(X, Y), B0


class TestInitialEstimate:
    def test_orthonormal(self):
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        Y = rng.standard_normal((6, 2))
        np.testing.assert_allclose(
            initial_estimate(Dataset(Q, Y)), Q.T @ Y, atol=1e-12)

    def test_noiseless_exact_recovery(self):
        data, B0 = sparse_instance(1, noise=0.0)
        np.testing.assert_allclose(initial_estimate(data), B0, atol=1e-8)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 5))
        Y = rng.standard_normal((50, 3))
        expected = scipy.linalg.solve(X.T @ X, X.T @ Y, assume_a="pos")
        np.testing.assert_allclose(
            initial_estimate(Dataset(X, Y)), expected, atol=1e-8)

    def test_rank_deficient_warns(self):
        X = np.ones((4, 3))  # rank one
        data = Dataset(X, np.ones((4, 1)))
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            initial_estimate(data)


class TestTrueObjective:
    def test_perfect_fit(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((8, 3))
        B = rng.standard_normal((3, 2))
        val = true_objective(Dataset(X, X @ B), B, PenaltySpec(), 0.0)
        assert val == pytest.approx(0.0, abs=1e-18)

    def test_zero_matrix_max_transform(self):
        data, _ = sparse_instance(6)
        assert true_objective(data, np.zeros((data.p, data.q)), PenaltySpec(), 3.0) == \
            pytest.approx(np.sum(data.Y ** 2), rel=1e-14)

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((4, 2))
        Y = rng.standard_normal((4, 2))
        B = rng.standard_normal((2, 2))
        spec = PenaltySpec()
        total = 0.0
        for i in range(4):
            for k in range(2):
                total += (Y[i, k] - sum(X[i, j] * B[j, k] for j in range(2))) ** 2
        for j in range(2):
            total += 1.3 * inverse_depth(np.sqrt(sum(B[j, k] ** 2 for k in range(2))), spec)
        assert true_objective(Dataset(X, Y), B, spec, 1.3) == pytest.approx(total, abs=1e-12)

    def test_stack_matches_single_matrices(self):
        data, _ = sparse_instance(8)
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((3, data.p, data.q))
        lambdas = np.array([0.0, 1.3, 40.0])
        out = true_objective(data, stack, PenaltySpec(), lambdas)
        assert out.shape == (3,)
        for value, B, lam in zip(out, stack, lambdas):
            assert value == pytest.approx(true_objective(data, B, PenaltySpec(), lam),
                                          rel=1e-14)


class TestLarnFit:
    def test_lambda_zero_returns_least_squares(self):
        data, _ = sparse_instance(8)
        fit = larn_fit(data, LarnConfig(), 0.0)
        np.testing.assert_allclose(fit.b_hat, initial_estimate(data), atol=1e-8)

    def test_huge_lambda_kills_all_rows(self):
        # the depth weight decays with the initial row norm, so the zero
        # condition dominates for rows of moderate size; noise-only
        # responses keep every weight away from the Gaussian tail
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 10))
        X = (X - X.mean(0)) / X.std(0)
        d = Dataset(X, rng.standard_normal((40, 4)))
        fit = larn_fit(d, LarnConfig(), 1e6)
        assert np.all(fit.b_hat == 0.0)

    def test_support_stable_under_tightened_tolerances(self):
        cfg_sim = SimConfig(n=50, p=20, q=20, rho=0.7, seed=1)
        data, _ = generate_instance(cfg_sim)
        base = LarnConfig()
        tight = LarnConfig(solver=SolverSettings(max_sweeps=5000, kkt_tol=1e-8))
        lam = 5.0
        s1 = set(row_support(larn_fit(data, base, lam).b_hat))
        s2 = set(row_support(larn_fit(data, tight, lam).b_hat))
        assert s1 == s2

    def test_exp_transform_warns(self):
        data, _ = sparse_instance(10)
        cfg = LarnConfig(penalty=PenaltySpec(HALFSPACE, EXP_NEG))
        with pytest.warns(RuntimeWarning, match="concavity"):
            larn_fit(data, cfg, 1.0)

    def test_one_step_trace_nonincreasing(self):
        data, _ = sparse_instance(11)
        fit = larn_fit(data, LarnConfig(), 4.0)
        assert np.all(np.diff(fit.objective_trace) <= 1e-12)
        assert fit.outer_iters == 1

    def test_kkt_residuals_certified(self):
        data, _ = sparse_instance(12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = larn_fit(data, LarnConfig(), 4.0)
        assert np.max(fit.kkt_residuals) <= 1e-6
        assert fit.certified is True

    def test_uncertified_fit_warns(self, monkeypatch):
        # three sweeps with no Newton finish leave the level uncertified
        monkeypatch.setattr(group_solver, "_NEWTON_STEPS", 0)
        data, _ = sparse_instance(12)
        cfg = LarnConfig(solver=SolverSettings(max_sweeps=3))
        with pytest.warns(RuntimeWarning,
                          match=r"lambda = 4 .* KKT residual .* tolerance 1e-06"):
            fit = larn_fit(data, cfg, 4.0)
        assert np.max(fit.kkt_residuals) > 1e-6
        assert fit.certified is False

    @pytest.mark.parametrize("value", [2.7, True])
    def test_max_outer_iters_is_a_positive_integer(self, value):
        # 2.7 was truncated to 2 rounds and True taken as 1
        with pytest.raises(ValueError, match="max_outer_iters"):
            LarnConfig(max_outer_iters=value)

    @pytest.mark.parametrize("field, value", [
        ("one_step", "false"), ("one_step", None), ("unit_weights", 1),
    ])
    def test_flags_are_bools(self, field, value):
        # bool("false") is True, so one_step="false" gave a one-step fit
        with pytest.raises(ValueError, match=f"^{field} must be a bool"):
            LarnConfig(**{field: value})


class TestFullIteration:
    def test_q_descends_every_outer_step(self):
        for seed in range(5):
            data, _ = sparse_instance(seed)
            cfg = LarnConfig(one_step=False, max_outer_iters=25)
            fit = larn_fit(data, cfg, 6.0)
            trace = np.asarray(fit.objective_trace)
            assert np.all(np.diff(trace) <= 1e-10)
            assert fit.outer_iters >= 1

    def test_path_levels_match_single_level_fits(self):
        # each level of a batched round has its own iterate and weights, and
        # stops on its own: here certified after 2 or 4 rounds, or at the cap
        # of 5 without a certificate
        data, _ = sparse_instance(23)
        cfg = LarnConfig(one_step=False, max_outer_iters=5)
        lambdas = [0.5, 4.0, 16.0, 60.0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fits = larn_path(data, cfg, lambdas)
            singles = [larn_fit(data, cfg, lam) for lam in lambdas]
        assert [fit.outer_iters for fit in fits] == [2, 4, 5, 5]
        assert [fit.certified for fit in fits] == [True, True, False, False]
        for fit, ref in zip(fits, singles):
            assert fit.outer_iters == ref.outer_iters
            assert len(fit.objective_trace) == fit.outer_iters + 1
            np.testing.assert_allclose(fit.objective_trace, ref.objective_trace, rtol=1e-12)
            np.testing.assert_allclose(fit.b_hat, ref.b_hat, atol=1e-8)
            np.testing.assert_allclose(fit.kkt_residuals, ref.kkt_residuals, atol=1e-8)

    def test_paper_instance_certified_at_every_level(self):
        # full mode stops a level on its KKT certificate, so none comes back
        # flagged, and the majorize-minimize traces still never rise
        data, _ = generate_instance(SimConfig(n=50, p=20, q=20, rho=0.7, seed=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = larn_path(data, LarnConfig(one_step=False), np.logspace(-2, 2, 100))
        assert all(fit.certified for fit in fits)
        assert max(np.max(fit.kkt_residuals) for fit in fits) <= 1e-6
        for fit in fits:
            trace = np.asarray(fit.objective_trace)
            assert np.all(np.diff(trace) <= 1e-12 * trace[0])

    def test_majorization_touches_and_dominates(self):
        data, _ = sparse_instance(20)
        spec, lam = PenaltySpec(), 4.0
        fit = larn_fit(data, LarnConfig(one_step=False, max_outer_iters=3), lam)
        B_ref = fit.b_hat
        r_ref = np.linalg.norm(B_ref, axis=1)
        w = penalty_weight(r_ref, spec)
        p_ref = np.asarray(inverse_depth(r_ref, spec))

        def surrogate(B):
            R = data.Y - data.X @ B
            r = np.linalg.norm(B, axis=1)
            lin = p_ref + w * (r - r_ref)
            return float(np.sum(R * R)) + lam * float(np.sum(lin))

        q_ref = true_objective(data, B_ref, spec, lam)
        assert surrogate(B_ref) == pytest.approx(q_ref, abs=1e-10)
        rng = np.random.default_rng(21)
        for _ in range(100):
            B = B_ref + 0.3 * rng.standard_normal(B_ref.shape)
            assert surrogate(B) >= true_objective(data, B, spec, lam) - 1e-10

    def test_noiseless_row_support_recovery(self):
        data, B0 = sparse_instance(22, n=40, p=10, q=4, noise=0.0)
        fit = larn_fit(data, LarnConfig(), 0.01)
        assert set(row_support(fit.b_hat)) == set(row_support(B0))


class TestThreshold:
    def test_zero_threshold_is_identity(self):
        B = np.random.default_rng(0).standard_normal((4, 3))
        np.testing.assert_array_equal(within_row_threshold(B, 0.0), B)

    def test_theory_formula_value(self):
        assert theory_threshold(100, 2, 2, 1.0) == pytest.approx(
            np.sqrt(8 * np.log(4) / 100), rel=1e-15)
        assert theory_threshold(100, 2, 2, 1.0) == pytest.approx(0.33302, abs=1e-5)

    def test_hand_application(self):
        B = np.array([[0.2, 0.5]])
        out = within_row_threshold(B, 0.333)
        np.testing.assert_array_equal(out, [[0.0, 0.5]])

    def test_zero_rows_stay_zero_and_survivors_unshrunk(self):
        B = np.array([[0.0, 0.0], [0.4, -1.2]])
        out = within_row_threshold(B, 0.5)
        np.testing.assert_array_equal(out, [[0.0, 0.0], [0.0, -1.2]])

    def test_negative_entries_thresholded_by_magnitude(self):
        B = np.array([[-0.2, -5.0]])
        out = within_row_threshold(B, 0.3)
        np.testing.assert_array_equal(out, [[0.0, -5.0]])

    def test_support_shrinks_with_level(self):
        B = np.random.default_rng(1).standard_normal((6, 5))
        sizes = [np.count_nonzero(within_row_threshold(B, t))
                 for t in np.linspace(0, 2, 15)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_degenerate_theory_configuration(self):
        with pytest.raises(ValueError, match="exceed 1"):
            theory_threshold(100, 1, 1, 1.0)

    @pytest.mark.parametrize("n", [2.5, True, 0])
    def test_theory_sample_size_is_a_count(self, n):
        # n = 2.5 gave 2.39
        with pytest.raises(ValueError, match="^n must be an integer"):
            theory_threshold(n, 3, 2, 1.0)

    @pytest.mark.parametrize("t", [np.nan, -1.0, np.inf])
    def test_bad_level_named(self, t):
        # NaN and -1 zeroed nothing
        with pytest.raises(ValueError, match="^t must be finite and nonnegative"):
            within_row_threshold(np.ones((2, 2)), t)


class TestFitResultInvariants:
    def test_threshold_nests_supports(self):
        data, _ = sparse_instance(30)
        fit = larn_fit(data, LarnConfig(), 3.0)
        B_t = within_row_threshold(fit.b_hat, 0.2)
        assert np.all((B_t != 0) <= (fit.b_hat != 0))
        assert set(row_support(B_t)) <= set(row_support(fit.b_hat))

    def test_to_dict_roundtrip_fields(self):
        data, _ = sparse_instance(31)
        fit = larn_fit(data, LarnConfig(), 3.0)
        d = fit.to_dict()
        assert d["lambda"] == 3.0
        assert d["shape"] == [data.p, data.q]
        assert len(d["kkt_residuals"]) == data.p
        assert d["certified"] is True
