"""Benchmark inputs: simulated datasets and their truth, made from a seed.

The generator is the benchmark's own, so the program under test receives
only a CSV and a change to ``vmpfpca.simulate`` cannot change the fit
workloads' inputs.  It draws the two-component model the package documents:
mean 3 sin(pi t), eigenfunctions sqrt(2) sin(2 pi t) and sqrt(2) cos(2 pi t),
score variances 1 and 0.25, unit noise variance, uniform observation times.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

SCORE_VARIANCES = (1.0, 0.25)
NOISE_VARIANCE = 1.0


def true_mean(t: np.ndarray) -> np.ndarray:
    return 3.0 * np.sin(np.pi * t)


def true_eigenfunctions(t: np.ndarray) -> np.ndarray:
    """Both eigenfunctions at t, one per column."""
    root2 = np.sqrt(2.0)
    return np.column_stack([root2 * np.sin(2 * np.pi * t), root2 * np.cos(2 * np.pi * t)])


def write_dataset(path: Path, seed: int, index: int, num_curves: int, obs: tuple[int, int]) -> None:
    """Write dataset ``index`` of the run with ``seed`` as ``curve_id,t,y``."""
    rng = np.random.default_rng([seed, index])
    lo, hi = obs
    draws = rng.standard_normal((num_curves, 2))
    draws -= draws.mean(axis=0)
    whitened = draws @ np.linalg.inv(np.linalg.cholesky(np.cov(draws, rowvar=False))).T
    scores = whitened * np.sqrt(SCORE_VARIANCES)
    lines = ["curve_id,t,y"]
    for i in range(num_curves):
        t = np.sort(rng.uniform(0.0, 1.0, size=int(rng.integers(lo, hi + 1))))
        y = true_mean(t) + true_eigenfunctions(t) @ scores[i]
        y += np.sqrt(NOISE_VARIANCE) * rng.standard_normal(t.size)
        lines.extend(f"{i + 1},{tj!r},{yj!r}" for tj, yj in zip(t.tolist(), y.tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def truth_document(grid: np.ndarray) -> dict:
    """Truth in the layout ``vmpfpca simulate`` writes to ``truth.json``."""
    return {
        "grid": grid.tolist(),
        "mean": true_mean(grid).tolist(),
        "eigenfunctions": true_eigenfunctions(grid).T.tolist(),
        "score_variances": list(SCORE_VARIANCES),
        "noise_variance": NOISE_VARIANCE,
    }
