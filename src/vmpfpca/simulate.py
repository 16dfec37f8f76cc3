"""Synthetic functional data with known mean, eigenfunctions and scores.

Curves follow a two-component expansion around 3 sin(pi t), with
eigenfunctions sqrt(2) sin(2 pi t) and sqrt(2) cos(2 pi t), score variances
(1, 0.25) and unit-variance Gaussian observation noise by default.  The
integrated squared error metric lives here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FunctionalDataset


def true_mean(t: np.ndarray) -> np.ndarray:
    return 3.0 * np.sin(np.pi * np.asarray(t, dtype=float))


def true_eigenfunction_1(t: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0) * np.sin(2.0 * np.pi * np.asarray(t, dtype=float))


def true_eigenfunction_2(t: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0) * np.cos(2.0 * np.pi * np.asarray(t, dtype=float))


def true_eigenfunctions(t: np.ndarray) -> np.ndarray:
    """Both eigenfunctions evaluated at t, one per column."""
    return np.column_stack([true_eigenfunction_1(t), true_eigenfunction_2(t)])


@dataclass(frozen=True)
class SimConfig:
    """Sampling plan for one synthetic dataset."""

    num_curves: int = 36
    obs_range: tuple[int, int] = (20, 30)  # per-curve count drawn uniformly, inclusive
    noise_variance: float = 1.0
    score_variances: tuple[float, float] = (1.0, 0.25)
    seed: int | None = None

    def __post_init__(self):
        if self.num_curves < 1:
            raise ValueError("num_curves must be >= 1")
        lo, hi = self.obs_range
        if lo < 2 or hi > 10_000 or lo > hi:
            raise ValueError("obs_range must satisfy 2 <= lo <= hi <= 10000")
        if not 0 <= self.noise_variance < np.inf:
            raise ValueError("noise_variance must be finite and nonnegative")
        v1, v2 = self.score_variances
        if not (np.inf > v1 >= v2 > 0):
            raise ValueError("score variances must be finite, positive and descending")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be nonnegative")


def generate(config: SimConfig) -> tuple[FunctionalDataset, np.ndarray]:
    """Draw one dataset from ``config.seed``: uniform times, Gaussian scores and noise.

    Returns the dataset and the (n, 2) true scores.
    """
    rng = np.random.default_rng(config.seed)
    lo, hi = config.obs_range
    sds = np.sqrt(np.asarray(config.score_variances))
    noise_sd = np.sqrt(config.noise_variance)

    times, noise = [], []
    scores = np.empty((config.num_curves, 2))
    for i in range(config.num_curves):
        count = int(rng.integers(lo, hi + 1))
        times.append(np.sort(rng.uniform(0.0, 1.0, size=count)))
        scores[i] = rng.standard_normal(2) * sds
        noise.append(rng.standard_normal(count))

    counts = list(map(len, times))
    t, row_scores = np.concatenate(times), np.repeat(scores, counts, axis=0)
    y = (
        true_mean(t)
        + row_scores[:, 0] * true_eigenfunction_1(t)
        + row_scores[:, 1] * true_eigenfunction_2(t)
        + noise_sd * np.concatenate(noise)
    )
    return FunctionalDataset(np.repeat(np.arange(1, config.num_curves + 1), counts), t, y), scores


def ise(f_true: np.ndarray, f_hat: np.ndarray, grid: np.ndarray) -> float:
    """Integrated squared error between two functions sampled on a common grid."""
    f_true = np.asarray(f_true, dtype=float)
    f_hat = np.asarray(f_hat, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if not (f_true.shape == f_hat.shape == grid.shape):
        raise ValueError("grid and function samples must have equal lengths")
    return float(np.trapezoid((f_true - f_hat) ** 2, grid))
