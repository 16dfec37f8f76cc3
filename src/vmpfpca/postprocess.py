"""Turning a converged message store into an orthonormal eigen-decomposition.

The raw variational solution gives unconstrained fitted basis functions and
correlated scores.  A singular value decomposition of the fitted functions,
followed by an eigendecomposition of the score sample covariance, rotates
them into L2-orthonormal eigenfunctions and uncorrelated, mean-zero scores
without changing any fitted curve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import graph as fg
from .orchestrator import VmpState
from .splines import SplineBasis, design_matrix

# Components pruned by the variational shrinkage legitimately reach arbitrarily
# small relative scales (1e-13 down to 1e-20 observed), and every downstream
# quantity stays finite for them, so only exact rank deficiency is an error.
_RANK_ATOL = 0.0
_SIGN_TOL = 1e-12


class RankDeficiencyError(ValueError):
    """The fitted basis-function matrix does not have full column rank."""


class DegenerateComponentError(ValueError):
    """A score-covariance eigenvalue is not positive."""


class SignAmbiguityError(ValueError):
    """An eigenfunction is numerically orthogonal to its sign reference."""


def trapezoid_inner(f: np.ndarray, g: np.ndarray, grid: np.ndarray) -> float:
    """Composite-trapezoid approximation of the L2 inner product on the grid."""
    return float(np.trapezoid(np.asarray(f) * np.asarray(g), np.asarray(grid)))


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Quadrature weights w with sum(w * f * g) = trapezoid inner product."""
    grid = np.asarray(grid, dtype=float)
    weights = np.empty(grid.size)
    weights[0] = 0.5 * (grid[1] - grid[0])
    weights[-1] = 0.5 * (grid[-1] - grid[-2])
    weights[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    return weights


@dataclass(frozen=True)
class RawSolution:
    """Optimal-posterior moments straight from the converged message store."""

    nu_mean: np.ndarray  # ((L+1)(2+K),)
    nu_cov: np.ndarray
    zeta_means: np.ndarray  # (n, L)
    zeta_covs: np.ndarray  # (n, L, L)
    noise_precision_mean: float  # E(1/sigma^2_eps)


@dataclass(frozen=True)
class FpcaFit:
    """Grid evaluations of the final decomposition plus per-curve fits."""

    grid: np.ndarray  # (n_g,) equidistant, from 0 to 1
    mean_curve: np.ndarray  # (n_g,)
    eigenfunctions: np.ndarray  # (n_g, L), trapezoid-normalized columns
    scores: np.ndarray  # (n, L)
    eigenvalues: np.ndarray  # (L,), descending
    noise_precision_mean: float  # E(1/sigma^2_eps)
    fitted: np.ndarray  # (n_g, n); column i is the i-th posterior curve estimate
    score_covariances: np.ndarray  # (n, L, L), in the frame of ``scores``


def extract(state: VmpState) -> RawSolution:
    """Read the optimal q-density moments for nu, the scores and the noise."""
    nu_mean, nu_cov = state.store.read_q_nu(fg.LIKELIHOOD)
    zeta_means, zeta_covs = state.store.read_q_zeta()
    return RawSolution(nu_mean, nu_cov, zeta_means, zeta_covs, state.store.e_recip(0))


def evaluate_grid(
    raw: RawSolution, basis: SplineBasis, grid_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate the posterior-mean curves on ``grid_size`` equidistant points of [0, 1].

    Returns (grid, mean evaluations, basis-function matrix with one column per
    component, score matrix with one row per curve).  E(nu) holds one block of
    coefficients per curve function, the mean function's first.
    """
    grid = np.linspace(0.0, 1.0, grid_size)
    design = design_matrix(grid, basis)
    mean_coefs, *component_coefs = raw.nu_mean.reshape(-1, design.shape[1])
    funcs = np.column_stack([design @ coefs for coefs in component_coefs])
    return grid, design @ mean_coefs, funcs, raw.zeta_means.copy()


def orthogonalize(
    mean_curve: np.ndarray,
    funcs: np.ndarray,
    scores: np.ndarray,
    grid: np.ndarray,
    noise_precision_mean: float,
    score_covs: np.ndarray,
) -> FpcaFit:
    """Rotate fitted functions and scores into the orthonormal representation.

    SVD the function matrix, shift the mean by the score sample mean and
    rotate by the spectral decomposition of the score sample covariance,
    whose eigenvalues are the returned ones.  Fitted curves are unchanged.
    The returned scores are a linear map A of the centred input scores, so
    the per-curve posterior covariances C_i in ``score_covs`` are returned as
    A C_i A'; ``noise_precision_mean`` E(1/sigma^2_eps) is passed through.

    The SVD is taken under the trapezoid inner product of the grid, so the
    resulting function columns are orthonormal with respect to the same
    quadrature that defines their norms; the factorization itself remains an
    exact matrix identity.

    The inputs are float arrays, as :func:`evaluate_grid` and :func:`extract`
    give them: ``funcs`` (n_g, L), ``scores`` (n, L) with n >= 2 (a validated
    dataset has two curves at least) and ``score_covs`` (n, L, L).
    """
    num_curves, num_eigen = scores.shape
    sqrt_weights = np.sqrt(trapezoid_weights(grid))
    weighted_left, singular, right_t = np.linalg.svd(
        sqrt_weights[:, None] * funcs, full_matrices=False
    )
    if singular[-1] <= _RANK_ATOL:
        raise RankDeficiencyError(
            f"fitted basis functions are rank deficient (singular values {singular})"
        )
    left = weighted_left / sqrt_weights[:, None]

    rotated = (singular[:, None] * right_t) @ scores.T  # (L, n)
    score_shift = rotated.mean(axis=1)
    centered = rotated - score_shift[:, None]
    # A second pass removes the round-off the first leaves when the shift
    # dwarfs the spread of the scores.
    residual_shift = centered.mean(axis=1)
    centered -= residual_shift[:, None]
    mean_hat = mean_curve + left @ (score_shift + residual_shift)

    # Spectral decomposition of the score sample covariance, computed through
    # an SVD of the centered scores so the eigenvalues cannot round negative.
    # The thin SVD forms no n x n right factor; with n < L components its left
    # factor is L x n, but then an eigenvalue is zero and the check below raises.
    eigvecs, cov_singular, _ = np.linalg.svd(
        centered / np.sqrt(num_curves - 1.0), full_matrices=False
    )
    eigvals = np.zeros(num_eigen)
    eigvals[: cov_singular.size] = cov_singular**2
    for l, value in enumerate(eigvals):
        if value <= 0.0:
            raise DegenerateComponentError(
                f"score covariance eigenvalue {l + 1} is not positive ({value:.3e})"
            )
    gaps = np.abs(np.diff(eigvals))
    if np.any(gaps <= 1e-12 * eigvals[0]):
        warnings.warn(
            "score covariance has (near-)tied eigenvalues; component order "
            "falls back to the decomposition order",
            RuntimeWarning,
        )

    # left has trapezoid-orthonormal columns, and so does left @ eigvecs.
    eigenfunctions = left @ eigvecs  # (n_g, L)
    final_scores = centered.T @ eigvecs  # (n, L)
    fitted = mean_hat[:, None] + eigenfunctions @ final_scores.T
    score_map = eigvecs.T @ (singular[:, None] * right_t)
    score_covs = score_map @ score_covs @ score_map.T
    return FpcaFit(
        grid=grid,
        mean_curve=mean_hat,
        eigenfunctions=eigenfunctions,
        scores=final_scores,
        eigenvalues=eigvals,
        noise_precision_mean=noise_precision_mean,
        fitted=fitted,
        score_covariances=score_covs,
    )


def finalize(state: VmpState) -> FpcaFit:
    """Extract, evaluate on the config's grid and orthogonalize in one step."""
    raw = extract(state)
    grid, mean_curve, funcs, scores = evaluate_grid(raw, state.basis, state.config.grid_size)
    return orthogonalize(mean_curve, funcs, scores, grid, raw.noise_precision_mean, raw.zeta_covs)


def sign_align(fit: FpcaFit, reference: np.ndarray) -> FpcaFit:
    """Flip eigenfunction/score pairs so each has positive inner product with a reference.

    The reference holds one column per component, evaluated on the fit grid.
    Fitted curves are unchanged because each flip negates a function and its
    scores jointly; score covariances flip with their scores.
    """
    reference = np.asarray(reference, dtype=float)
    if reference.shape != fit.eigenfunctions.shape:
        raise ValueError(
            f"reference shape {reference.shape} does not match eigenfunctions "
            f"{fit.eigenfunctions.shape}"
        )
    flips = np.ones(fit.eigenfunctions.shape[1])
    for l in range(fit.eigenfunctions.shape[1]):
        inner = trapezoid_inner(fit.eigenfunctions[:, l], reference[:, l], fit.grid)
        if abs(inner) < _SIGN_TOL:
            raise SignAmbiguityError(
                f"component {l + 1} is orthogonal to its reference; sign undetermined"
            )
        if inner < 0:
            flips[l] = -1.0
    return replace(
        fit,
        eigenfunctions=fit.eigenfunctions * flips,
        scores=fit.scores * flips,
        score_covariances=fit.score_covariances * np.outer(flips, flips),
    )
