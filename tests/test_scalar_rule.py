import math

import numpy as np
import pytest

from larn.depth_penalty import (EXP_NEG, HALFSPACE, MAX_MINUS, PROJECTION, PROJECTION_C,
                                PenaltySpec, std_normal_pdf)
from larn.estimator import LarnConfig, larn_fit
from larn.group_solver import Dataset
from larn.scalar_rule import (ScalarPenalty, depth_scalar_penalty,
                              equivalence_orthogonal, ideal_risk, mcp_penalty,
                              minimax_check, risk_bound, scad_penalty,
                              soft_threshold_depth)

HALF_MAX = depth_scalar_penalty(PenaltySpec(HALFSPACE, MAX_MINUS))
PROJ_MAX = depth_scalar_penalty(PenaltySpec(PROJECTION, MAX_MINUS))


def random_orthonormal(n, seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return Q


class TestRule:
    def test_zero_input(self):
        assert soft_threshold_depth(0.0, 1.0, HALF_MAX) == 0.0

    def test_near_unbiased_far_out(self):
        out = soft_threshold_depth(10.0, 1.0, HALF_MAX)
        # shift is phi(10) ~ 7.7e-23, invisible at double precision
        assert out == pytest.approx(10.0, abs=1e-12)

    def test_mcp_inside_zero_region_scaling(self):
        assert soft_threshold_depth(0.4, 0.5, mcp_penalty(0.5)) == pytest.approx(0.2, abs=1e-15)

    def test_mcp_identity_branch(self):
        assert soft_threshold_depth(2.0, 0.5, mcp_penalty(0.5)) == 2.0

    def test_odd_function(self):
        z = np.linspace(0.01, 5, 400)
        for pen in (HALF_MAX, PROJ_MAX, mcp_penalty(0.7), scad_penalty(3.7, 0.7)):
            pos = soft_threshold_depth(z, 0.8, pen)
            neg = soft_threshold_depth(-z, 0.8, pen)
            np.testing.assert_array_equal(neg, -pos)

    def test_shrinkage_and_sign(self):
        z = np.linspace(-6, 6, 1001)
        for pen in (HALF_MAX, PROJ_MAX):
            for lam in (0.2, 1.0, 3.0):
                out = soft_threshold_depth(z, lam, pen)
                assert np.all(np.abs(out) <= np.abs(z) + 1e-15)
                assert np.all((out == 0) | (np.sign(out) == np.sign(z)))

    def test_zero_whenever_shift_dominates(self):
        z = np.linspace(-6, 6, 2001)
        for lam in (0.5, 2.0):
            out = soft_threshold_depth(z, lam, HALF_MAX)
            dominated = np.abs(z) <= lam * HALF_MAX.derivative(z)
            assert np.all(out[dominated] == 0.0)

    def test_continuity_scan_depth_penalties(self):
        step = 1e-3
        z = np.arange(-6.0, 6.0 + step / 2, step)
        for pen, lam in ((HALF_MAX, 1.0), (PROJ_MAX, 0.7), (HALF_MAX, 3.0)):
            out = soft_threshold_depth(z, lam, pen)
            # |theta'| <= 1 + lam * sup|d'|; a crude global bound suffices
            _, c2 = pen.derivative_bounds()
            lipschitz = 1.0 + lam * c2
            assert np.max(np.abs(np.diff(out))) <= 2.0 * lipschitz * step

    def test_near_unbiasedness_decay(self):
        for lam in (0.5, 2.0):
            gaps = [abs(soft_threshold_depth(z, lam, HALF_MAX) - z)
                    for z in (4.0, 6.0, 8.0)]
            assert gaps == sorted(gaps, reverse=True)
            assert gaps[-1] <= lam * std_normal_pdf(8.0) + 1e-15

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            soft_threshold_depth(np.nan, 1.0, HALF_MAX)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
    def test_rejects_bad_lambda(self, lam):
        # a NaN level compared false everywhere and gave an all-zero rule
        with pytest.raises(ValueError, match="lam"):
            soft_threshold_depth(np.array([-1.0, 2.0]), lam, HALF_MAX)


class TestExactVariant:
    def test_fixed_point_satisfies_equation(self):
        for z in (0.9, 1.7, 3.2, -2.4):
            lam = 1.1
            theta = soft_threshold_depth(z, lam, HALF_MAX, exact=True)
            if theta != 0.0:
                rhs = np.sign(z) * max(abs(z) - lam * HALF_MAX.derivative(theta), 0.0)
                assert theta == pytest.approx(rhs, abs=1e-10)

    def test_approximation_close_for_large_z(self):
        approx = soft_threshold_depth(5.0, 1.0, HALF_MAX)
        exact = soft_threshold_depth(5.0, 1.0, HALF_MAX, exact=True)
        assert approx == pytest.approx(exact, abs=1e-6)


class TestSpecialCases:
    def test_scad_identity_beyond_a_lam(self):
        a, lam = 3.7, 0.5
        pen = scad_penalty(a, lam)
        z = np.linspace(-8, 8, 10001)
        out = soft_threshold_depth(z, lam, pen)
        outside = np.abs(z) > a * lam
        np.testing.assert_array_equal(out[outside], z[outside])

    def test_scad_constant_shift_region(self):
        a, lam = 3.7, 0.5
        pen = scad_penalty(a, lam)
        c = 1.0 / (2 * lam * lam * (a + 2))
        # inside |z| < 2 lam the shift is lam * c * lam, constant
        for z in (1.2 * lam, 1.8 * lam):
            expected = z - lam * c * lam
            assert soft_threshold_depth(z, lam, pen) == pytest.approx(expected, rel=1e-14)

    def test_scad_zero_region(self):
        a, lam = 3.7, 0.5
        pen = scad_penalty(a, lam)
        cut = 1.0 / (2 * (a + 2))  # lam * c * lam with c = 1/(2 lam^2 (a+2))
        z = np.linspace(-cut, cut, 101)
        assert np.all(soft_threshold_depth(z, lam, pen) == 0.0)
        assert soft_threshold_depth(cut * 1.01, lam, pen) > 0.0

    def test_scad_rejects_small_a(self):
        with pytest.raises(ValueError):
            scad_penalty(2.0, 0.5)

    def test_mcp_identity_exact_on_grid(self):
        lam = 0.5
        pen = mcp_penalty(lam)
        z = np.linspace(-8, 8, 10001)
        out = soft_threshold_depth(z, lam, pen)
        outside = np.abs(z) >= lam
        np.testing.assert_array_equal(out[outside], z[outside])

    def test_derivative_bounds_analytic_c1(self):
        assert HALF_MAX.c1 == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-15)
        assert PROJ_MAX.c1 == pytest.approx(1 / PROJECTION_C, abs=1e-12)
        # projection + exp: p'(r) = (u^2/c) e^-u with u = c/(c+r) peaks at
        # r = 0; the grid from r = 1e-6 read it 1.5e-6 low
        proj_exp = depth_scalar_penalty(PenaltySpec(PROJECTION, EXP_NEG))
        assert proj_exp.c1 == pytest.approx(math.exp(-1) / PROJECTION_C, rel=1e-15)
        assert proj_exp.c1 >= np.max(proj_exp.derivative(np.linspace(0.0, 50.0, 500001)))
        c1, c2 = HALF_MAX.derivative_bounds()
        # sup |phi'| = phi(1), attained at r = 1
        assert c2 == pytest.approx(std_normal_pdf(1.0), abs=1e-4)


class TestOrthogonalEquivalence:
    def test_lambda_zero_returns_gram_projection(self):
        Q = random_orthonormal(8, 0)
        Y = np.random.default_rng(1).standard_normal((8, 3))
        out = equivalence_orthogonal(Dataset(Q, Y), 0.0, HALF_MAX)
        np.testing.assert_allclose(out, Q.T @ Y, atol=1e-12)

    def test_all_below_zero_region(self):
        Q = np.eye(6)
        Y = np.full((6, 2), 1e-4)
        out = equivalence_orthogonal(Dataset(Q, Y), 2.0, HALF_MAX)
        assert np.all(out == 0.0)

    def test_matches_row_solver_per_column(self):
        Q = random_orthonormal(8, 2)
        Y = 2.0 * np.random.default_rng(3).standard_normal((8, 3))
        data = Dataset(Q, Y)
        lam = 0.5
        ref = equivalence_orthogonal(data, lam, HALF_MAX)
        cfg = LarnConfig(penalty=PenaltySpec(HALFSPACE, MAX_MINUS))
        cols = [larn_fit(Dataset(Q, Y[:, [k]]), cfg, lam).b_hat[:, 0]
                for k in range(3)]
        np.testing.assert_allclose(np.column_stack(cols), ref, atol=1e-10)

    def test_rejects_non_orthonormal(self):
        X = np.random.default_rng(4).standard_normal((8, 8))
        with pytest.raises(ValueError, match="orthonormal"):
            equivalence_orthogonal(Dataset(X, np.zeros((8, 1))), 1.0, HALF_MAX)


class TestRiskReport:
    def test_ideal_risk_all_ones(self):
        assert ideal_risk(np.ones(256)) == 256.0

    def test_bound_formula_theta_zero(self):
        n = 1024
        expected = (2 * math.log(n) - 3) * (
            HALF_MAX.c1 / (HALF_MAX.p0 * (math.sqrt(0.5 * math.log(n)) - 1)))
        assert risk_bound(n, np.zeros(n), HALF_MAX) == pytest.approx(expected, rel=1e-15)

    def test_half_zero_half_three_within_bound(self):
        n = 1024
        theta = np.concatenate([np.zeros(n // 2), np.full(n // 2, 3.0)])
        report = minimax_check(n, theta, HALF_MAX, replications=400, seed=7)
        assert report.ideal_risk == 512.0
        assert report.monte_carlo_risk <= report.bound
        assert report.lam == pytest.approx(
            (math.sqrt(0.5 * math.log(n)) - 1) / HALF_MAX.c1, rel=1e-15)

    def test_deterministic_in_seed(self):
        theta = np.full(128, 2.0)
        a = minimax_check(128, theta, HALF_MAX, replications=50, seed=11)
        b = minimax_check(128, theta, HALF_MAX, replications=50, seed=11)
        assert a.monte_carlo_risk == b.monte_carlo_risk

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            minimax_check(32, np.zeros(32), HALF_MAX)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            minimax_check(128, np.zeros(64), HALF_MAX)

    @pytest.mark.parametrize("replications", [0, 1])
    def test_fewer_than_two_replications_rejected(self, replications):
        # one replication gives no standard error, and none gives no mean
        with pytest.raises(ValueError, match="replications"):
            minimax_check(128, np.zeros(128), HALF_MAX, replications=replications)
