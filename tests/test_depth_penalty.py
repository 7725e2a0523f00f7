import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from larn.depth_penalty import (EXP_NEG, HALFSPACE, MAX_MINUS, PROJECTION,
                                PROJECTION_C, PenaltySpec, _std_normal_cdf,
                                depth, inverse_depth, max_depth,
                                penalty_weight, row_penalty)

ALL_SPECS = [PenaltySpec(d, t) for d in (HALFSPACE, PROJECTION)
             for t in (MAX_MINUS, EXP_NEG)]
MAX_SPECS = [PenaltySpec(d, MAX_MINUS) for d in (HALFSPACE, PROJECTION)]


def phi_pdf(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)


def cdf_by_quadrature(x):
    # brute-force integral of the density, independent of the scipy cdf path
    val, _ = quad(phi_pdf, 0.0, x, limit=200)
    return 0.5 + val


class TestNormalHelpers:
    def test_projection_constant_is_three_quarter_quantile(self):
        assert cdf_by_quadrature(PROJECTION_C) == pytest.approx(0.75, abs=1e-10)

    def test_projection_constant_is_scipy_quantile(self):
        assert PROJECTION_C == float(ndtri(0.75))

    def test_cdf_matches_mpmath(self):
        grid = np.linspace(0.0, 40.0, 4001)
        with mpmath.workdps(50):
            exact = np.array([float(mpmath.ncdf(mpmath.mpf(x))) for x in grid])
        assert np.max(np.abs(_std_normal_cdf(grid) - exact)) <= 2.3e-16

    def test_halfspace_depth_matches_scipy(self):
        grid = np.linspace(0.0, 40.0, 4001)
        assert np.max(np.abs(depth(grid, HALFSPACE) - (1.0 - ndtr(grid)))) <= 2.3e-16

    def test_scalar_input_returns_float(self):
        assert type(_std_normal_cdf(1.0)) is float
        for spec in ALL_SPECS:
            assert type(depth(1.0, spec.depth)) is float
            assert type(inverse_depth(1.0, spec)) is float
            assert type(penalty_weight(1.0, spec)) is float


class TestDepth:
    def test_projection_center_and_scale(self):
        assert depth(0.0, PROJECTION) == 1.0
        assert depth(PROJECTION_C, PROJECTION) == pytest.approx(0.5, abs=1e-15)

    def test_halfspace_center(self):
        assert depth(0.0, HALFSPACE) == 0.5

    def test_halfspace_unit_radius(self):
        expected = 1.0 - cdf_by_quadrature(1.0)
        assert depth(1.0, HALFSPACE) == pytest.approx(expected, abs=1e-10)
        assert depth(1.0, HALFSPACE) == pytest.approx(0.158655, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            depth(-0.5, HALFSPACE)
        with pytest.raises(ValueError):
            depth(np.nan, PROJECTION)
        with pytest.raises(ValueError):
            depth(np.inf, HALFSPACE)


class TestInverseDepth:
    def test_zero_at_origin_all_specs(self):
        for spec in ALL_SPECS:
            assert inverse_depth(0.0, spec) == pytest.approx(0.0, abs=1e-15)

    def test_halfspace_max_unit_radius(self):
        expected = cdf_by_quadrature(1.0) - 0.5
        spec = PenaltySpec(HALFSPACE, MAX_MINUS)
        assert inverse_depth(1.0, spec) == pytest.approx(expected, abs=1e-10)
        assert inverse_depth(1.0, spec) == pytest.approx(0.341345, abs=1e-6)

    def test_projection_max_at_c(self):
        spec = PenaltySpec(PROJECTION, MAX_MINUS)
        assert inverse_depth(PROJECTION_C, spec) == pytest.approx(0.5, abs=1e-15)


class TestPenaltyWeight:
    def test_halfspace_max_at_origin(self):
        spec = PenaltySpec(HALFSPACE, MAX_MINUS)
        assert penalty_weight(0.0, spec) == pytest.approx(0.398942, abs=1e-6)
        assert penalty_weight(0.0, spec) == pytest.approx(1 / np.sqrt(2 * np.pi), abs=1e-15)

    def test_projection_max_at_origin(self):
        spec = PenaltySpec(PROJECTION, MAX_MINUS)
        # right-limit 1/c, with c the 3/4 normal quantile
        assert penalty_weight(0.0, spec) == pytest.approx(1.482602, abs=1e-5)

    def test_projection_max_at_c(self):
        spec = PenaltySpec(PROJECTION, MAX_MINUS)
        assert penalty_weight(PROJECTION_C, spec) == pytest.approx(
            1 / (4 * PROJECTION_C), abs=1e-15)

    def test_positive_right_limit_every_spec(self):
        for spec in ALL_SPECS:
            assert penalty_weight(0.0, spec) > 0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            penalty_weight(np.nan, PenaltySpec())


class TestRowPenalty:
    def test_zero_matrix(self):
        for spec in ALL_SPECS:
            assert row_penalty(np.zeros((4, 3)), spec, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_lambda_zero(self):
        B = np.random.default_rng(0).standard_normal((5, 2))
        assert row_penalty(B, PenaltySpec(), 0.0) == 0.0

    def test_two_row_example(self):
        B = np.array([[1.0], [0.0]])
        spec = PenaltySpec(HALFSPACE, MAX_MINUS)
        expected = 2.0 * (cdf_by_quadrature(1.0) - 0.5)
        assert row_penalty(B, spec, 2.0) == pytest.approx(expected, abs=1e-10)
        assert row_penalty(B, spec, 2.0) == pytest.approx(0.682689, abs=1e-6)

    def test_non_finite_rejected(self):
        B = np.array([[1.0, np.inf]])
        with pytest.raises(ValueError):
            row_penalty(B, PenaltySpec(), 1.0)

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            row_penalty(np.zeros((2, 2)), PenaltySpec(), -1.0)

    def test_rotation_invariance(self):
        # the penalty sees a row only through its norm
        rng = np.random.default_rng(3)
        b = rng.standard_normal(6)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        for spec in ALL_SPECS:
            a = row_penalty(b[None, :], spec, 1.0)
            r = row_penalty((Q @ b)[None, :], spec, 1.0)
            assert r == pytest.approx(a, rel=1e-12)


class TestAxiomGrid:
    GRID = np.arange(0.0, 10.0 + 1e-12, 0.1)

    def test_depth_nonincreasing(self):
        for family in (HALFSPACE, PROJECTION):
            vals = depth(self.GRID, family)
            assert np.all(np.diff(vals) <= 0)
            assert vals[0] == max_depth(family)

    def test_inverse_depth_nondecreasing_and_bounded(self):
        for spec in ALL_SPECS:
            vals = inverse_depth(self.GRID, spec)
            assert np.all(np.diff(vals) >= 0)
            assert np.all(vals >= 0)
            assert np.all(vals <= 1.0)  # bounded by the depth range

    def test_penalty_weight_positive(self):
        for spec in ALL_SPECS:
            assert np.all(penalty_weight(self.GRID, spec) > 0)

    def test_concavity_of_max_transform(self):
        for spec in MAX_SPECS:
            vals = inverse_depth(self.GRID, spec)
            second = np.diff(vals, 2)
            assert np.all(second <= 1e-10)

    def test_halfspace_exp_breaks_concavity_near_origin(self):
        # the derivative rises near 0, so this combination violates the
        # concavity assumption and is only accepted with a warning
        spec = PenaltySpec(HALFSPACE, EXP_NEG)
        w = penalty_weight(np.array([0.0, 0.2, 0.4]), spec)
        assert w[1] > w[0]


class TestDerivativeConsistency:
    def test_matches_central_differences(self):
        # step balances truncation against cancellation where the
        # derivative is tiny (halfspace at r = 5)
        h = 3e-4
        for spec in ALL_SPECS:
            for r in (0.1, 1.0, 5.0):
                fd = (inverse_depth(r + h, spec) - inverse_depth(r - h, spec)) / (2 * h)
                assert penalty_weight(r, spec) == pytest.approx(fd, rel=1e-6)


class TestSpecValidation:
    def test_bad_family(self):
        with pytest.raises(ValueError):
            PenaltySpec(depth="mahalanobis")

    def test_bad_transform(self):
        with pytest.raises(ValueError):
            PenaltySpec(transform="sqrt")

    def test_concavity_flag(self):
        assert PenaltySpec(HALFSPACE, MAX_MINUS).concavity_guaranteed
        assert not PenaltySpec(HALFSPACE, EXP_NEG).concavity_guaranteed
