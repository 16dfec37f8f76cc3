"""O'Sullivan penalized-spline basis and per-curve design matrices.

The basis columns are cubic B-splines linearly transformed so that the
integrated squared second derivative of a fitted curve equals the squared
Euclidean norm of its spline coefficients.  An independent N(0, sigma^2 I)
prior on those coefficients is then exactly the usual roughness penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_SPLINE_DEGREE = 3
# Simpson subintervals per inter-knot segment.  The integrand (product of two
# piecewise-linear second derivatives) is piecewise quadratic, so any even
# count >= 2 integrates it exactly; extra points only hedge round-off.
_SIMPSON_SUBINTERVALS = 8
_ROWS_PER_BLOCK = 1024  # design rows per basis evaluation, to bound its temporaries
# The largest basis whose penalty eigenvalues, bar the two of its null space,
# all exceed 1e-10 of the largest: the smallest is 1.001e-10 of it at 603
# columns and 9.95e-11 at 604, too close to round-off to whiten by.
MAX_NUM_BASIS = 603


@dataclass(frozen=True)
class SplineBasis:
    """Immutable O'Sullivan basis on [0, 1], the time domain of every dataset."""

    transform: np.ndarray = field(repr=False)
    _knot_vector: np.ndarray = field(repr=False)

    def evaluate(self, times: np.ndarray) -> np.ndarray:
        """All basis columns at 1-D float times in [0, 1]; shape (len(times), num_basis)."""
        return _bspline_values(self._knot_vector, times) @ self.transform


def _bspline_values(knot_vector: np.ndarray, times: np.ndarray, deriv: int = 0) -> np.ndarray:
    """Raw cubic B-splines (``deriv`` = 0) or their ``deriv``-th derivative at ``times``.

    Cox-de Boor recursion from the degree-0 span indicators, vectorised over
    points and functions; the top ``deriv`` levels use the derivative
    recurrence in place of the value recurrence.  A point at the upper
    boundary belongs to the last non-empty span.  Returns an array of shape
    (len(times), len(knot_vector) - 4).
    """
    points = times[:, None]
    values = ((knot_vector[:-1] <= points) & (points < knot_vector[1:])).astype(float)
    values[times == knot_vector[-1], -_SPLINE_DEGREE - 1] = 1.0  # last non-empty span
    for degree in range(1, _SPLINE_DEGREE + 1):
        start, stop = knot_vector[: -degree - 1], knot_vector[degree + 1 :]
        lower = knot_vector[degree:-1] - start
        upper = stop - knot_vector[1:-degree]
        # An empty support means a zero function; an infinite width zeroes its weight.
        lower[lower == 0.0] = np.inf
        upper[upper == 0.0] = np.inf
        if degree > _SPLINE_DEGREE - deriv:
            rise, fall = degree, -degree
        else:
            rise, fall = points - start, stop - points
        values = rise / lower * values[:, :-1] + fall / upper * values[:, 1:]
    return values


def _second_derivative_penalty(knot_vector: np.ndarray) -> np.ndarray:
    """Gram matrix of second derivatives of the raw B-splines.

    Composite Simpson per inter-knot segment; exact because the integrand is
    piecewise quadratic between knots.
    """
    breaks = knot_vector[_SPLINE_DEGREE:-_SPLINE_DEGREE]  # the distinct knots
    grid = np.linspace(breaks[:-1], breaks[1:], _SIMPSON_SUBINTERVALS + 1, axis=1)
    simpson = np.ones(_SIMPSON_SUBINTERVALS + 1)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    weights = np.diff(breaks)[:, None] * simpson / (3.0 * _SIMPSON_SUBINTERVALS)
    values = _bspline_values(knot_vector, grid.reshape(-1), deriv=2)
    penalty = values.T @ (weights.reshape(-1, 1) * values)
    return 0.5 * (penalty + penalty.T)


def build_basis(num_basis: int) -> SplineBasis:
    """Construct an O'Sullivan basis on [0, 1] with ``num_basis`` columns.

    Cubic B-splines are placed on ``num_basis - 2`` equidistant interior knots.
    The raw basis is rotated onto the eigenvectors of the second-derivative
    penalty with positive eigenvalues, its ``num_basis`` largest, and scaled by
    the inverse square roots of those eigenvalues, which whitens the roughness
    penalty to the identity; ``num_basis`` is at most :data:`MAX_NUM_BASIS`.
    """
    num_interior = num_basis - 2
    interior = np.arange(1, num_interior + 1) / (num_interior + 1)
    knot_vector = np.r_[[0.0] * (_SPLINE_DEGREE + 1), interior, [1.0] * (_SPLINE_DEGREE + 1)]

    eigvals, eigvecs = np.linalg.eigh(_second_derivative_penalty(knot_vector))
    largest = np.arange(num_basis + 1, 1, -1)  # eigh's order is ascending
    transform = eigvecs[:, largest] / np.sqrt(eigvals[largest])
    transform.setflags(write=False)
    return SplineBasis(transform=transform, _knot_vector=knot_vector)


def design_matrix(times: np.ndarray, basis: SplineBasis) -> np.ndarray:
    """Design matrix [1, t, z_1(t), ..., z_K(t)] with shape (len(times), 2 + K)."""
    times = np.asarray(times, dtype=float).reshape(-1)
    design = np.empty((times.size, 2 + basis.transform.shape[1]))
    design[:, 0], design[:, 1] = 1.0, times
    for start in range(0, times.size, _ROWS_PER_BLOCK):
        rows = slice(start, start + _ROWS_PER_BLOCK)
        design[rows, 2:] = basis.evaluate(times[rows])
    return design
