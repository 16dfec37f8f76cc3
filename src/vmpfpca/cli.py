"""Command-line surface: simulate datasets, fit the model, evaluate against truth.

Exit codes: 0 success, 2 invalid inputs or flags, 3 I/O failure,
4 non-convergence, 5 numerical degeneracy.  Set VMPFPCA_LOG=debug|info|...
to control log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import FunctionalDataset, read_dataset_csv, write_dataset_csv
from .expfam import DegenerateMessageError
from .orchestrator import FitConfig, fit
from .postprocess import (
    DegenerateComponentError,
    FpcaFit,
    RankDeficiencyError,
    finalize,
    sign_align,
)
from .simulate import SimConfig, generate, ise, true_eigenfunctions, true_mean

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NONCONVERGENCE = 4
EXIT_DEGENERACY = 5


class ValidationError(ValueError):
    pass


class NonConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class RunManifest:
    """Provenance record emitted with every fit."""

    version: str
    dataset: str
    config: dict
    seed: int | None
    iterations: int
    converged: bool
    final_metric: float
    wall_clock_seconds: float
    time_rescale: tuple[float, float] | None = None


def _configure_logging() -> None:
    level = os.environ.get("VMPFPCA_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def _read_json(path: Path):
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# simulate


def _add_simulate_parser(subparsers) -> None:
    parser = subparsers.add_parser("simulate", help="generate a synthetic dataset")
    parser.add_argument("--n", type=int, default=36, help="number of curves")
    parser.add_argument("--t-min", type=int, default=20, help="min observations per curve")
    parser.add_argument("--t-max", type=int, default=30, help="max observations per curve")
    parser.add_argument("--noise-variance", type=float, default=1.0)
    parser.add_argument(
        "--score-variances",
        type=str,
        default="1.0,0.25",
        help="comma-separated variances of the two true score components",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--grid-size", type=int, default=1001, help="truth evaluation grid")
    parser.add_argument("--out", type=str, required=True, help="output directory")


def _cmd_simulate(args) -> int:
    try:
        variances = tuple(float(v) for v in args.score_variances.split(","))
        if len(variances) != 2:
            raise ValueError("score-variances must have exactly two entries")
        config = SimConfig(
            num_curves=args.n,
            obs_range=(args.t_min, args.t_max),
            noise_variance=args.noise_variance,
            score_variances=variances,  # type: ignore[arg-type]
            seed=args.seed,
        )
        if args.grid_size < 101:
            raise ValueError("grid-size must be >= 101")
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION

    dataset, truth = generate(config)
    grid = np.linspace(0.0, 1.0, args.grid_size)
    truth_payload = {
        "grid": grid.tolist(),
        "mean": true_mean(grid).tolist(),
        "eigenfunctions": true_eigenfunctions(grid).T.tolist(),
        "scores": truth.scores.tolist(),
        "score_variances": list(truth.score_variances),
        "noise_variance": truth.noise_variance,
        "seed": truth.seed,
    }
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_dataset_csv(dataset, out / "dataset.csv")
        _write_json(out / "truth.json", truth_payload)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {out / 'dataset.csv'} ({dataset.num_observations} rows) and {out / 'truth.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit


def _add_fit_flags(parser) -> None:
    parser.add_argument("--num-eigen", type=int, default=3)
    parser.add_argument("--num-splines", type=int, default=10)
    parser.add_argument("--tol", type=float, default=1e-5)
    parser.add_argument("--max-iter", type=int, default=500)
    parser.add_argument("--grid-size", type=int, default=1001)
    parser.add_argument("--prior-beta-var", type=float, default=1e10)
    parser.add_argument("--hyper-a-eps", type=float, default=1e5)
    parser.add_argument("--hyper-a-mu", type=float, default=1e5)
    parser.add_argument("--hyper-a-psi", type=float, default=1e5)
    parser.add_argument("--seed", type=int, default=None)


def _add_fit_parser(subparsers) -> None:
    parser = subparsers.add_parser("fit", help="fit the model to a dataset CSV")
    parser.add_argument("dataset", type=str, nargs="?", help="dataset CSV path")
    _add_fit_flags(parser)
    parser.add_argument(
        "--rescale-time",
        action="store_true",
        help="affinely map observation times onto [0, 1] before fitting",
    )
    parser.add_argument(
        "--from-manifest",
        type=str,
        default=None,
        help="re-run a previous fit from its manifest file",
    )
    parser.add_argument("--out", type=str, default="fit.json")
    parser.add_argument(
        "--export-curves",
        type=str,
        default=None,
        help="also write plot-ready long-format CSV (series,t,value)",
    )


def _config_from_args(args) -> FitConfig:
    return FitConfig(
        num_eigen=args.num_eigen,
        num_splines=args.num_splines,
        tol=args.tol,
        max_iter=args.max_iter,
        grid_size=args.grid_size,
        prior_beta_var=args.prior_beta_var,
        hyper_a_eps=args.hyper_a_eps,
        hyper_a_mu=args.hyper_a_mu,
        hyper_a_psi=args.hyper_a_psi,
        seed=args.seed,
    )


def _config_from_manifest(config: dict) -> FitConfig:
    config = dict(config)
    if config.pop("score_prior_cov", None) is not None:
        raise ValueError("score_prior_cov was removed; the score prior is fixed at N(0, I)")
    config.pop("freeze_scores_at_zero", None)
    return FitConfig(**config)


def _fit_payload(result: FpcaFit) -> dict:
    return {
        "grid": result.grid.tolist(),
        "mean": result.mean_curve.tolist(),
        "eigenfunctions": result.eigenfunctions.T.tolist(),
        "scores": result.scores.tolist(),
        "score_covariances": result.score_covariances.tolist(),
        "eigenvalues": result.eigenvalues.tolist(),
        "noise_precision_mean": result.noise_precision_mean,
    }


def run_fit(
    dataset: FunctionalDataset,
    config: FitConfig,
    dataset_label: str,
    rescale: tuple[float, float] | None = None,
) -> tuple[dict, RunManifest, FpcaFit]:
    """Fit, post-process and package the result with its manifest."""
    started = time.perf_counter()
    state = fit(dataset, config)
    result = finalize(state)
    elapsed = time.perf_counter() - started
    manifest = RunManifest(
        version=__version__,
        dataset=dataset_label,
        config=asdict(config),
        seed=config.seed,
        iterations=state.iterations,
        converged=state.converged,
        final_metric=state.history[-1] if state.history else float("nan"),
        wall_clock_seconds=elapsed,
        time_rescale=rescale,
    )
    return _fit_payload(result), manifest, result


def _write_long_format_csv(path: Path, result: FpcaFit) -> None:
    import csv as _csv

    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = _csv.writer(handle)
        writer.writerow(["series", "t", "value"])
        for t, v in zip(result.grid, result.mean_curve):
            writer.writerow(["mean", repr(float(t)), repr(float(v))])
        for l in range(result.eigenfunctions.shape[1]):
            for t, v in zip(result.grid, result.eigenfunctions[:, l]):
                writer.writerow([f"eigenfunction_{l + 1}", repr(float(t)), repr(float(v))])
        for i in range(result.fitted.shape[1]):
            for t, v in zip(result.grid, result.fitted[:, i]):
                writer.writerow([f"fit_{i + 1}", repr(float(t)), repr(float(v))])


def _cmd_fit(args) -> int:
    if args.from_manifest:
        try:
            manifest = _read_json(Path(args.from_manifest))
            config = _config_from_manifest(manifest["config"])
            dataset_path = Path(args.dataset or manifest["dataset"])
            rescale_requested = manifest.get("time_rescale") is not None
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_IO
        except (KeyError, TypeError, ValueError) as err:
            print(
                f"error: invalid manifest {args.from_manifest}: {type(err).__name__}: {err}",
                file=sys.stderr,
            )
            return EXIT_VALIDATION
    else:
        if not args.dataset:
            print("error: dataset path is required", file=sys.stderr)
            return EXIT_VALIDATION
        try:
            config = _config_from_args(args)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_VALIDATION
        dataset_path = Path(args.dataset)
        rescale_requested = args.rescale_time

    try:
        dataset = read_dataset_csv(dataset_path)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION

    rescale = None
    try:
        if rescale_requested:
            dataset, rescale = dataset.rescale_times()
        dataset.validate()
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION

    out = Path(args.out)
    manifest_path = out.with_suffix(".manifest.json")
    try:
        payload, manifest, result = run_fit(dataset, config, str(dataset_path), rescale)
    except (DegenerateMessageError, RankDeficiencyError, DegenerateComponentError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DEGENERACY

    try:
        _write_json(out, {"fit": payload, "manifest": asdict(manifest)})
        _write_json(manifest_path, asdict(manifest))
        if args.export_curves:
            _write_long_format_csv(Path(args.export_curves), result)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO

    if not manifest.converged:
        print(
            f"warning: not converged after {manifest.iterations} iterations "
            f"(final metric {manifest.final_metric:.3e}); output retained at {out}",
            file=sys.stderr,
        )
        return EXIT_NONCONVERGENCE
    print(
        f"converged in {manifest.iterations} iterations "
        f"({manifest.wall_clock_seconds:.2f} s); wrote {out} and {manifest_path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _add_eval_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "eval", help="score a fit against ground truth, or run a simulation study"
    )
    parser.add_argument("--fit", type=str, default=None, help="fit JSON from the fit command")
    parser.add_argument("--truth", type=str, default=None, help="truth JSON from simulate")
    parser.add_argument("--out", type=str, default=None, help="metrics output path")
    parser.add_argument("--study", action="store_true", help="run a replicated accuracy study")
    parser.add_argument("--replicates", type=int, default=20)
    parser.add_argument(
        "--n-grid", type=str, default="10,50,100", help="comma-separated curve counts"
    )
    parser.add_argument("--workers", type=int, default=1)
    _add_fit_flags(parser)


def _interp_columns(grid_src, values, grid_dst):
    return np.interp(grid_dst, grid_src, values)


def evaluate_fit_against_truth(fit_doc: dict, truth_doc: dict) -> dict:
    """Sign-align the fitted components to truth and compute the error metrics."""
    grid = np.asarray(fit_doc["grid"])
    mean_curve = np.asarray(fit_doc["mean"])
    funcs = np.asarray(fit_doc["eigenfunctions"]).T
    eigenvalues = np.asarray(fit_doc["eigenvalues"])

    truth_grid = np.asarray(truth_doc["grid"])
    truth_mean = np.asarray(truth_doc["mean"])
    truth_funcs = np.asarray(truth_doc["eigenfunctions"]).T
    if truth_grid.shape != grid.shape or not np.allclose(truth_grid, grid):
        logger.warning("truth grid differs from fit grid; resampling truth onto fit grid")
        truth_mean = _interp_columns(truth_grid, truth_mean, grid)
        truth_funcs = np.column_stack(
            [_interp_columns(truth_grid, truth_funcs[:, l], grid) for l in range(truth_funcs.shape[1])]
        )

    num_fit = funcs.shape[1]
    num_truth = truth_funcs.shape[1]
    aligned = funcs.copy()
    for l in range(min(num_fit, num_truth)):
        inner = np.trapezoid(aligned[:, l] * truth_funcs[:, l], grid)
        if inner < 0:
            aligned[:, l] = -aligned[:, l]

    metrics = {
        "ise_mean": ise(truth_mean, mean_curve, grid),
        "ise_eigenfunctions": [
            ise(truth_funcs[:, l], aligned[:, l], grid)
            for l in range(min(num_fit, num_truth))
        ],
        "eigenvalues": eigenvalues.tolist(),
        "noise_variance_estimate": (
            1.0 / fit_doc["noise_precision_mean"]
            if fit_doc.get("noise_precision_mean")
            else None
        ),
    }
    return metrics


def _study_cell(task) -> dict:
    """One (replicate, n) cell of the study; runs in a worker process."""
    replicate, num_curves, seed, config = task
    dataset, truth = generate(SimConfig(num_curves=num_curves, seed=seed))
    state = fit(dataset, config)
    result = finalize(state)
    grid = result.grid
    num_fit = result.eigenfunctions.shape[1]
    truth_funcs = true_eigenfunctions(grid)[:, :num_fit]
    reference = result.eigenfunctions.copy()
    reference[:, : truth_funcs.shape[1]] = truth_funcs
    aligned = sign_align(result, reference)
    row = {
        "replicate": replicate,
        "n": num_curves,
        "seed": seed,
        "converged": state.converged,
        "iterations": state.iterations,
        "ise_mean": ise(true_mean(grid), aligned.mean_curve, grid),
        "noise_variance_estimate": 1.0 / result.noise_precision_mean,
    }
    for l in range(truth_funcs.shape[1]):
        row[f"ise_psi{l + 1}"] = ise(truth_funcs[:, l], aligned.eigenfunctions[:, l], grid)
    for l, value in enumerate(aligned.eigenvalues):
        row[f"eigenvalue_{l + 1}"] = float(value)
    return row


def run_study(
    replicates: int,
    curve_counts: list[int],
    config: FitConfig,
    base_seed: int = 0,
    workers: int = 1,
) -> list[dict]:
    """Replicated simulation study; seeds are paired across curve counts.

    Every cell fits with ``config``, its seed replaced by the cell's seed.
    """
    tasks = []
    for replicate in range(replicates):
        seed = base_seed + replicate
        for num_curves in curve_counts:
            tasks.append((replicate, num_curves, seed, replace(config, seed=seed)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_study_cell, tasks))
    else:
        rows = [_study_cell(task) for task in tasks]
    return rows


def _cmd_eval(args) -> int:
    if args.study:
        try:
            curve_counts = [int(v) for v in args.n_grid.split(",") if v]
            if args.replicates < 1 or not curve_counts:
                raise ValueError("need at least one replicate and one curve count")
            config = _config_from_args(args)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_VALIDATION
        rows = run_study(
            args.replicates,
            curve_counts,
            config,
            base_seed=args.seed if args.seed is not None else 0,
            workers=max(1, args.workers),
        )
        out = Path(args.out or "study.json")
        try:
            _write_json(out, rows)
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_IO
        print(f"wrote {len(rows)} study rows to {out}")
        return EXIT_OK

    if not args.fit or not args.truth:
        print("error: eval requires --fit and --truth (or --study)", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        fit_doc = _read_json(Path(args.fit))
        truth_doc = _read_json(Path(args.truth))
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    metrics = evaluate_fit_against_truth(fit_doc.get("fit", fit_doc), truth_doc)
    out = Path(args.out or "metrics.json")
    try:
        _write_json(out, metrics)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmpfpca",
        description="Bayesian functional PCA by variational message passing",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_simulate_parser(subparsers)
    _add_fit_parser(subparsers)
    _add_eval_parser(subparsers)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "fit": _cmd_fit, "eval": _cmd_eval}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
