import numpy as np
import pytest
from scipy.interpolate import BSpline

from vmpfpca.splines import (
    _bspline_values,
    _second_derivative_penalty,
    build_basis,
    design_matrix,
)

# Basis sizes for the scipy oracle: the smallest allowed, a few typical, a wide one.
ORACLE_SIZES = (3, 4, 10, 25, 40)


class TestBuildBasis:
    def test_default_setting_knot_count(self):
        basis = build_basis(10)
        assert basis.transform.shape == (12, 10)
        assert np.allclose(basis._knot_vector[4:-4], np.arange(1, 9) / 9.0)

    def test_boundary_evaluation_finite(self):
        basis = build_basis(10)
        values = basis.evaluate(np.array([0.0, 1.0]))
        assert values.shape == (2, 10)
        assert np.all(np.isfinite(values))

    def test_full_rank_on_dense_grid(self):
        basis = build_basis(10)
        grid = np.linspace(0.0, 1.0, 1000)
        design = design_matrix(grid, basis)
        singular = np.linalg.svd(design, compute_uv=False)
        assert singular[-1] > 1e-8 * singular[0]
        assert np.linalg.matrix_rank(basis.evaluate(grid)) == 10

    def test_continuity(self):
        basis = build_basis(10)
        t = np.linspace(0.01, 0.99, 37)
        step = 1e-8
        jump = np.abs(basis.evaluate(t + step) - basis.evaluate(t))
        assert jump.max() < 1e-4

    def test_penalty_is_identity_in_transformed_coordinates(self):
        # Integrated squared second derivative of sum_k u_k z_k equals u'u.
        basis = build_basis(8)
        rng = np.random.default_rng(5)
        fine = np.linspace(0.0, 1.0, 200_001)
        for _ in range(5):
            coefs = rng.standard_normal(8)
            second = BSpline(basis._knot_vector, basis.transform @ coefs, 3).derivative(2)
            integral = np.trapezoid(second(fine) ** 2, fine)
            assert integral == pytest.approx(coefs @ coefs, rel=0.01)


class TestDesignMatrix:
    def test_leading_columns(self):
        basis = build_basis(10)
        row = design_matrix(np.array([0.5]), basis)
        assert row.shape == (1, 12)
        assert row[0, 0] == 1.0
        assert row[0, 1] == 0.5

    def test_shape_contract(self):
        basis = build_basis(7)
        times = np.linspace(0.0, 1.0, 25)
        assert design_matrix(times, basis).shape == (25, 9)

    def test_repeated_times_identical_rows(self):
        basis = build_basis(6)
        rows = design_matrix(np.array([0.37, 0.37]), basis)
        assert np.array_equal(rows[0], rows[1])

    def test_linear_part_reproduced_exactly(self):
        basis = build_basis(10)
        grid = np.linspace(0.0, 1.0, 101)
        design = design_matrix(grid, basis)
        assert np.array_equal(design[:, 0], np.ones(101))
        assert np.array_equal(design[:, 1], grid)


def _oracle_points(knots):
    """A dense grid on [0, 1], boundaries included, plus every knot."""
    return np.r_[np.linspace(0.0, 1.0, 2001), knots]


def _scipy_penalty(knots):
    """Second-derivative Gram matrix by composite Simpson on scipy's derivative spline."""
    deriv2 = BSpline(knots, np.eye(knots.size - 4), 3).derivative(2)
    breaks = np.unique(knots)
    penalty = np.zeros((knots.size - 4,) * 2)
    for left, right in zip(breaks[:-1], breaks[1:]):
        grid = np.linspace(left, right, 9)
        weights = np.array([1.0, 4, 2, 4, 2, 4, 2, 4, 1]) * (right - left) / 24.0
        values = deriv2(grid)
        penalty += values.T @ (weights[:, None] * values)
    return 0.5 * (penalty + penalty.T)


class TestScipyOracle:
    """The numpy Cox-de Boor basis against scipy's B-splines (scipy is a test-only dependency)."""

    @pytest.mark.parametrize("deriv", [0, 2])
    @pytest.mark.parametrize("num_basis", ORACLE_SIZES)
    def test_bspline_values(self, num_basis, deriv):
        knots = build_basis(num_basis)._knot_vector
        times = _oracle_points(knots)
        oracle = BSpline(knots, np.eye(knots.size - 4), 3)(times, nu=deriv)
        values = _bspline_values(knots, times, deriv=deriv)
        assert values.shape == oracle.shape
        assert np.abs(values - oracle).max() <= 1e-12 * max(1.0, np.abs(oracle).max())

    @pytest.mark.parametrize("num_basis", ORACLE_SIZES)
    def test_second_derivative_penalty(self, num_basis):
        knots = build_basis(num_basis)._knot_vector
        oracle = _scipy_penalty(knots)
        penalty = _second_derivative_penalty(knots)
        assert np.abs(penalty - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("num_basis", ORACLE_SIZES)
    def test_whitened_penalty_is_identity(self, num_basis):
        basis = build_basis(num_basis)
        penalty = _second_derivative_penalty(basis._knot_vector)
        whitened = basis.transform.T @ penalty @ basis.transform
        assert np.allclose(whitened, np.eye(num_basis), rtol=0.0, atol=1e-9)
