"""Output checks and accuracy scores for the benchmark's fits and studies.

Checks return a list of problems; an empty list means the output passed.
They run in the benchmark process, outside every timed interval.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import NOISE_VARIANCE, SCORE_VARIANCES, truth_document

TOL = 1e-6


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    weights = np.empty_like(grid)
    weights[0] = 0.5 * (grid[1] - grid[0])
    weights[-1] = 0.5 * (grid[-1] - grid[-2])
    weights[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    return weights


def check_fit(exit_code: int, document: dict | None, rotation: dict | None) -> list[str]:
    """Check one ``vmpfpca fit`` output (the JSON document it wrote)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if document is None:
        return ["no fit.json written"]
    problems = []
    manifest, fit = document["manifest"], document["fit"]
    if not manifest.get("converged"):
        problems.append(f"not converged after {manifest.get('iterations')} sweeps")
    arrays = {
        key: np.asarray(fit[key], dtype=float)
        for key in ("grid", "mean", "eigenfunctions", "scores", "score_covariances", "eigenvalues")
    }
    if not all(np.all(np.isfinite(a)) for a in arrays.values()) or not math.isfinite(
        fit["noise_precision_mean"]
    ):
        return problems + ["non-finite output"]
    problems += check_decomposition(
        arrays["grid"], arrays["eigenfunctions"].T, arrays["scores"], arrays["eigenvalues"]
    )
    if rotation is not None and "max_rel_dev" in rotation and not rotation["max_rel_dev"] <= TOL:
        problems.append(f"rotation changed the fitted curves by {rotation['max_rel_dev']:.3e}")
    return problems


def check_decomposition(
    grid: np.ndarray, eigenfunctions: np.ndarray, scores: np.ndarray, eigenvalues: np.ndarray
) -> list[str]:
    """Orthonormal eigenfunctions, centered uncorrelated scores, positive descending eigenvalues."""
    problems = []
    gram = eigenfunctions.T @ (trapezoid_weights(grid)[:, None] * eigenfunctions)
    off = np.abs(gram - np.eye(gram.shape[0])).max()
    if not off <= TOL:
        problems.append(f"eigenfunctions not orthonormal (max |G - I| = {off:.3e})")
    scale = max(1.0, float(np.abs(scores).max()))
    if not np.abs(scores.mean(axis=0)).max() <= TOL * scale:
        problems.append("scores are not mean-zero")
    cov = np.cov(scores, rowvar=False)
    corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    if not np.abs(corr - np.eye(cov.shape[0])).max() <= TOL:
        problems.append("scores are correlated")
    if not (np.all(eigenvalues > 0) and np.all(np.diff(eigenvalues) <= 0)):
        problems.append(f"eigenvalues not positive and descending: {eigenvalues.tolist()}")
    return problems


def check_study_rows(exit_code: int, rows: list[dict] | None, expected: int) -> tuple[list[str], int]:
    """Check ``vmpfpca eval --study`` rows; return (problems, number of failed cells)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], expected
    if rows is None or len(rows) != expected:
        return [f"expected {expected} study rows, got {None if rows is None else len(rows)}"], expected
    problems, failed = [], 0
    for row in rows:
        cell = f"cell (replicate {row.get('replicate')}, n {row.get('n')})"
        eigenvalues = np.array([row[k] for k in sorted(row) if k.startswith("eigenvalue_")])
        numbers = [v for v in row.values() if isinstance(v, float)]
        bad = []
        if not row.get("converged"):
            bad.append(f"not converged after {row.get('iterations')} sweeps")
        if not all(math.isfinite(v) for v in numbers):
            bad.append("non-finite output")
        if not (eigenvalues.size and np.all(eigenvalues > 0) and np.all(np.diff(eigenvalues) <= 0)):
            bad.append("eigenvalues not positive and descending")
        if bad:
            failed += 1
            problems += [f"{cell}: {b}" for b in bad]
    return problems, failed


def accuracy(ise_mean: float, ise_psi: list[float], eigenvalues: list[float], noise_variance: float) -> dict:
    return {
        "ise_mean": ise_mean,
        "ise_psi_max": max(ise_psi[:2]),
        "eigval_relerr": max(abs(eigenvalues[l] - v) / v for l, v in enumerate(SCORE_VARIANCES)),
        "sigma2_relerr": abs(noise_variance - NOISE_VARIANCE) / NOISE_VARIANCE,
    }


def score_fit(fit: dict) -> dict:
    """Accuracy of one fit against the simulation truth, via the package's own scorer."""
    from vmpfpca.cli import evaluate_fit_against_truth

    metrics = evaluate_fit_against_truth(fit, truth_document(np.asarray(fit["grid"])))
    return accuracy(
        metrics["ise_mean"],
        metrics["ise_eigenfunctions"],
        metrics["eigenvalues"],
        metrics["noise_variance_estimate"],
    )


def score_study(rows: list[dict]) -> dict:
    """Median over the study's cells of each accuracy score."""
    per_cell = [
        accuracy(
            row["ise_mean"],
            [row["ise_psi1"], row["ise_psi2"]],
            [row["eigenvalue_1"], row["eigenvalue_2"]],
            row["noise_variance_estimate"],
        )
        for row in rows
    ]
    return {key: float(np.median([cell[key] for cell in per_cell])) for key in per_cell[0]}
