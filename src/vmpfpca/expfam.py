"""Exponential-family natural parameters and matrix reshaping operators.

Every message passed on the factor graph is a natural-parameter vector of
either a multivariate Gaussian (in a vec- or vech-based sufficient-statistic
basis) or an inverse chi-squared density.  This module provides those
representations, the mappings between natural parameters and conventional
moments, and the vec/vech/duplication-matrix algebra that relates the two
Gaussian bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class DegenerateMessageError(ValueError):
    """An accumulated natural-parameter vector does not define a proper density."""


def vec(a: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into a single vector."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"vec expects a matrix, got ndim={a.ndim}")
    return a.reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Invert :func:`vec`.  Defaults to a square reshape."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if rows is None and cols is None:
        d = int(round(np.sqrt(v.size)))
        if d * d != v.size:
            raise ValueError(f"length {v.size} is not a perfect square")
        rows = cols = d
    elif rows is None or cols is None:
        raise ValueError("give both rows and cols, or neither")
    if rows * cols != v.size:
        raise ValueError(f"cannot reshape length {v.size} to {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def vech(a: np.ndarray) -> np.ndarray:
    """Stack the columns of the lower triangle (diagonal included) of a square matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"vech expects a square matrix, got shape {a.shape}")
    d = a.shape[0]
    return np.concatenate([a[j:, j] for j in range(d)])


def _vech_index(i: int, j: int, d: int) -> int:
    # Position of entry (i, j), i >= j, in the column-wise lower-triangle stacking.
    return j * d - (j * (j - 1)) // 2 + (i - j)


@lru_cache(maxsize=None)
def duplication_matrix(d: int) -> np.ndarray:
    """D_d of order ``d``: D_d vech(A) = vec(A) for symmetric A."""
    if d < 1:
        raise ValueError("d must be >= 1")
    out = np.zeros((d * d, d * (d + 1) // 2))
    for j in range(d):
        for i in range(d):
            out[i + j * d, _vech_index(max(i, j), min(i, j), d)] = 1.0
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def moore_penrose_duplication(d: int) -> np.ndarray:
    """Moore-Penrose inverse of D_d: maps vec(A) back to vech(A) for symmetric A."""
    dup = duplication_matrix(d)
    # D'D is diagonal with entries 1 (diagonal positions) or 2, so this is exact.
    out = dup.T / np.diag(dup.T @ dup)[:, None]
    out.setflags(write=False)
    return out


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average a matrix, or each matrix of a stack, with its transpose."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _factorizes(matrix: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def invert_spd(matrix: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Invert a symmetric positive definite matrix, or a stack of them.

    The inverse of A = LL' is inv(L)' inv(L), batched over any leading axes.
    Raises :class:`DegenerateMessageError` with the eigenvalue range when the
    Cholesky factorization fails; for a stack, the message also names the
    (flattened) rows that failed.
    """
    matrix = symmetrize(np.asarray(matrix, dtype=float))
    try:
        inv_factor = np.linalg.inv(np.linalg.cholesky(matrix))
    except np.linalg.LinAlgError:
        d = matrix.shape[-1]
        stack = matrix.reshape(-1, d, d)
        where = ""
        if matrix.ndim > 2:
            failed = [i for i, m in enumerate(stack) if not _factorizes(m)]
            stack, where = stack[failed], f" in rows {failed}"
        eigvals = np.linalg.eigvalsh(stack)
        raise DegenerateMessageError(
            f"{context} is not positive definite{where} "
            f"(eigenvalue range [{eigvals[:, 0].min():.3e}, {eigvals[:, -1].max():.3e}])"
        ) from None
    return np.swapaxes(inv_factor, -1, -2) @ inv_factor


@dataclass(frozen=True)
class GaussianVecParams:
    """Gaussian natural parameters against sufficient statistics (x, vec(xx'))."""

    eta1: np.ndarray
    eta2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eta1", np.asarray(self.eta1, dtype=float).reshape(-1))
        object.__setattr__(self, "eta2", np.asarray(self.eta2, dtype=float).reshape(-1))
        d = self.eta1.size
        if self.eta2.size != d * d:
            raise ValueError(f"eta2 has length {self.eta2.size}, expected {d * d}")

    @property
    def dim(self) -> int:
        return self.eta1.size

    def __add__(self, other: "GaussianVecParams") -> "GaussianVecParams":
        if not isinstance(other, GaussianVecParams):
            return NotImplemented
        return GaussianVecParams(self.eta1 + other.eta1, self.eta2 + other.eta2)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.eta1, self.eta2])


@dataclass(frozen=True)
class GaussianVechParams:
    """Gaussian natural parameters against sufficient statistics (x, vech(xx')).

    A stack of independent Gaussians keeps one row per member: eta1 of shape
    (n, d) and eta2 of shape (n, d(d+1)/2).  Adding a single Gaussian to a
    stack adds it to every row.
    """

    eta1: np.ndarray
    eta2: np.ndarray

    def __post_init__(self):
        eta1 = np.asarray(self.eta1, dtype=float)
        if eta1.ndim != 2:
            eta1 = eta1.reshape(-1)
        eta2 = np.asarray(self.eta2, dtype=float).reshape(*eta1.shape[:-1], -1)
        d = eta1.shape[-1]
        if eta2.shape[-1] != d * (d + 1) // 2:
            raise ValueError(f"eta2 has length {eta2.shape[-1]}, expected {d * (d + 1) // 2}")
        object.__setattr__(self, "eta1", eta1)
        object.__setattr__(self, "eta2", eta2)

    @property
    def dim(self) -> int:
        return self.eta1.shape[-1]

    def __add__(self, other: "GaussianVechParams") -> "GaussianVechParams":
        if not isinstance(other, GaussianVechParams):
            return NotImplemented
        return GaussianVechParams(self.eta1 + other.eta1, self.eta2 + other.eta2)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.eta1, self.eta2], axis=-1)


@dataclass(frozen=True)
class InvChiSqParams:
    """Inverse chi-squared natural parameters against sufficient statistics (log x, 1/x)."""

    eta1: float
    eta2: float

    def __post_init__(self):
        object.__setattr__(self, "eta1", float(self.eta1))
        object.__setattr__(self, "eta2", float(self.eta2))

    def __add__(self, other: "InvChiSqParams") -> "InvChiSqParams":
        if not isinstance(other, InvChiSqParams):
            return NotImplemented
        return InvChiSqParams(self.eta1 + other.eta1, self.eta2 + other.eta2)

    def as_vector(self) -> np.ndarray:
        return np.array([self.eta1, self.eta2])

    def is_proper(self) -> bool:
        """Whether these parameters define a normalizable density (shape and scale > 0)."""
        return self.eta1 < -1.0 and self.eta2 < 0.0


NaturalParams = GaussianVecParams | GaussianVechParams | InvChiSqParams


def gaussian_moments_to_vec(mean: np.ndarray, cov: np.ndarray) -> GaussianVecParams:
    """Map (mean, covariance) to vec-basis natural parameters."""
    mean = np.asarray(mean, dtype=float).reshape(-1)
    prec = invert_spd(cov, context="covariance")
    return GaussianVecParams(prec @ mean, -0.5 * vec(prec))


def gaussian_vec_to_moments(params: GaussianVecParams) -> tuple[np.ndarray, np.ndarray]:
    """Map vec-basis natural parameters back to (mean, covariance)."""
    prec = -2.0 * unvec(params.eta2)
    cov = invert_spd(prec, context="vec-basis precision")
    return cov @ params.eta1, cov


def gaussian_moments_to_vech(mean: np.ndarray, cov: np.ndarray) -> GaussianVechParams:
    """Map (mean, covariance) to vech-basis natural parameters."""
    mean = np.asarray(mean, dtype=float).reshape(-1)
    prec = invert_spd(cov, context="covariance")
    d = mean.size
    return GaussianVechParams(prec @ mean, duplication_matrix(d).T @ (-0.5 * vec(prec)))


def gaussian_vech_to_moments(params: GaussianVechParams) -> tuple[np.ndarray, np.ndarray]:
    """Map vech-basis natural parameters back to (mean, covariance).

    A stack of n Gaussians gives (n, d) means and (n, d, d) covariances, all
    from one batched :func:`invert_spd`.
    """
    eta1, eta2 = np.atleast_2d(params.eta1), np.atleast_2d(params.eta2)
    n, d = eta1.shape
    full = eta2 @ moore_penrose_duplication(d)  # row-wise D_d^+' eta2 = vec of each matrix
    precisions = -2.0 * full.reshape(n, d, d).transpose(0, 2, 1)
    covs = invert_spd(precisions, context="vech-basis precision")
    means = np.einsum("iab,ib->ia", covs, eta1)
    if params.eta1.ndim == 2:
        return means, covs
    return means[0], covs[0]


def invchisq_to_shape_scale(params: InvChiSqParams) -> tuple[float, float]:
    """Recover (shape, scale) from inverse chi-squared natural parameters."""
    if not params.is_proper():
        raise DegenerateMessageError(
            f"improper inverse chi-squared parameters ({params.eta1}, {params.eta2})"
        )
    return -2.0 * params.eta1 - 2.0, -2.0 * params.eta2


def invchisq_mean_reciprocal(params: InvChiSqParams) -> float:
    """E(1/x) under the inverse chi-squared density with the given natural parameters.

    Equals shape/scale; computed directly as (eta1 + 1)/eta2.
    """
    if params.eta2 == 0.0:
        raise DegenerateMessageError("inverse chi-squared parameters with eta2 = 0")
    return (params.eta1 + 1.0) / params.eta2
