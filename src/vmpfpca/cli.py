"""Command-line surface: simulate datasets, fit the model, evaluate against truth.

Exit codes: 0 success, 2 invalid inputs or flags, 3 I/O failure,
4 non-convergence, 5 numerical degeneracy.  Handlers raise; :func:`main`
alone maps an exception to its code and prints ``error: ...``.  Each handler
checks its inputs in one ``with _inputs():`` block, where a ValueError
becomes an :class:`InputError` (exit 2): bad flags, datasets or manifests,
hyperparameters whose prior precision over- or underflows, non-finite
simulation variances, study curve counts below 2 and malformed ``eval``
documents.  Any other exception, such as a ValueError raised inside a fit,
is a program fault and keeps its traceback.  Set VMPFPCA_LOG=debug|info|...
to control log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .data import FunctionalDataset, read_dataset_csv, write_dataset_csv
from .expfam import DegenerateMessageError
from .orchestrator import FitConfig, fit
from .postprocess import DegenerateComponentError, FpcaFit, RankDeficiencyError, finalize
from .simulate import SimConfig, generate, ise, true_eigenfunctions, true_mean

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NONCONVERGENCE = 4
EXIT_DEGENERACY = 5


class InputError(ValueError):
    """Invalid inputs or flags, found before any work starts."""


@contextmanager
def _inputs():
    """Reading and checking a command's inputs: a ValueError here is the user's."""
    try:
        yield
    except ValueError as err:
        raise InputError(str(err)) from err


@dataclass(frozen=True)
class RunManifest:
    """Provenance record emitted with every fit."""

    version: str
    dataset: str
    config: dict
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
    # one dumps and one write (json.dump writes each small chunk on its own); arrays become lists
    text = json.dumps(payload, indent=1, default=np.ndarray.tolist)
    path.write_text(text + "\n", encoding="utf-8")


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
    with _inputs():
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

    dataset, scores = generate(config)
    truth_payload = {
        **_truth_curves(np.linspace(0.0, 1.0, args.grid_size)),
        "scores": scores,
        "score_variances": list(config.score_variances),
        "noise_variance": config.noise_variance,
        "seed": config.seed,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset_csv(dataset, out / "dataset.csv")
    _write_json(out / "truth.json", truth_payload)
    print(f"wrote {out / 'dataset.csv'} ({dataset.num_observations} rows) and {out / 'truth.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit


# FitConfig field annotation -> flag type; the diagnostic freeze_scores_at_zero has no flag.
_FLAG_TYPES = {"int": int, "float": float}


def _fit_fields():
    return [f for f in fields(FitConfig) if f.name != "freeze_scores_at_zero"]


def _add_fit_flags(parser) -> None:
    """One flag per FitConfig field, e.g. ``--num-eigen`` for ``num_eigen``, with its default."""
    for f in _fit_fields():
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, type=_FLAG_TYPES[f.type], default=f.default)


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
    return FitConfig(**{f.name: getattr(args, f.name) for f in _fit_fields()})


def _config_from_manifest(config: dict) -> FitConfig:
    config = dict(config)
    if config.pop("score_prior_cov", None) is not None:
        raise ValueError("score_prior_cov was removed; the score prior is fixed at N(0, I)")
    config.pop("seed", None)  # older manifests record one
    fit_config = FitConfig(**config)
    if fit_config.freeze_scores_at_zero:
        raise ValueError("freeze_scores_at_zero is a diagnostic mode the CLI does not run")
    return fit_config


def _fit_payload(result: FpcaFit) -> dict:
    """The fit in the layout of ``fit.json``, as arrays."""
    return {
        "grid": result.grid,
        "mean": result.mean_curve,
        "eigenfunctions": result.eigenfunctions.T,
        "scores": result.scores,
        "score_covariances": result.score_covariances,
        "eigenvalues": result.eigenvalues,
        "noise_precision_mean": result.noise_precision_mean,
    }


def run_fit(
    dataset: FunctionalDataset,
    config: FitConfig,
    dataset_label: str,
    rescale: tuple[float, float] | None = None,
) -> tuple[dict, RunManifest, FpcaFit]:
    """Fit, post-process and package the result, with its curves' labels, and its manifest."""
    started = time.perf_counter()
    state = fit(dataset, config)
    result = finalize(state)
    elapsed = time.perf_counter() - started
    manifest = RunManifest(
        version=__version__,
        dataset=dataset_label,
        config=asdict(config),
        iterations=state.iterations,
        converged=state.converged,
        final_metric=state.history[-1],
        wall_clock_seconds=elapsed,
        time_rescale=rescale,
    )
    return {**_fit_payload(result), "curve_ids": dataset.curve_ids}, manifest, result


def _write_long_format_csv(path: Path, result: FpcaFit) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["series", "t", "value"])
        for t, v in zip(result.grid, result.mean_curve):
            writer.writerow(["mean", repr(float(t)), repr(float(v))])
        for l in range(result.eigenfunctions.shape[1]):
            for t, v in zip(result.grid, result.eigenfunctions[:, l]):
                writer.writerow([f"eigenfunction_{l + 1}", repr(float(t)), repr(float(v))])
        for i in range(result.fitted.shape[1]):
            for t, v in zip(result.grid, result.fitted[:, i]):
                writer.writerow([f"fit_{i + 1}", repr(float(t)), repr(float(v))])


def _fit_request(args) -> tuple[FitConfig, Path, bool]:
    """The config, dataset path and rescale request, from the flags or from the manifest."""
    if not args.from_manifest:
        if not args.dataset:
            raise ValueError("dataset path is required")
        return _config_from_args(args), Path(args.dataset), args.rescale_time
    try:
        manifest = _read_json(Path(args.from_manifest))
        return (
            _config_from_manifest(manifest["config"]),
            Path(args.dataset or manifest["dataset"]),
            manifest.get("time_rescale") is not None,
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(
            f"invalid manifest {args.from_manifest}: {type(err).__name__}: {err}"
        ) from err


def _cmd_fit(args) -> int:
    with _inputs():
        config, dataset_path, rescale_requested = _fit_request(args)
        dataset = read_dataset_csv(dataset_path)
        rescale = None
        if rescale_requested:
            dataset, rescale = dataset.rescale_times()
        dataset.validate()

    out = Path(args.out)
    manifest_path = out.with_suffix(".manifest.json")
    payload, manifest, result = run_fit(dataset, config, str(dataset_path), rescale)
    _write_json(out, {"fit": payload, "manifest": asdict(manifest)})
    _write_json(manifest_path, asdict(manifest))
    if args.export_curves:
        _write_long_format_csv(Path(args.export_curves), result)

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
    parser.add_argument("--seed", type=int, default=0, help="study seed of replicate 0")
    _add_fit_flags(parser)


def _truth_curves(grid: np.ndarray) -> dict:
    """The true mean and eigenfunctions on ``grid``, in the layout of ``truth.json``, as arrays."""
    return {"grid": grid, "mean": true_mean(grid), "eigenfunctions": true_eigenfunctions(grid).T}


def evaluate_fit_against_truth(fit_doc: dict, truth_doc: dict) -> dict:
    """Sign-align the fitted components to truth and compute the error metrics.  The
    documents have the layouts of ``fit.json`` and ``truth.json``, as lists or as arrays."""
    grid = np.asarray(fit_doc["grid"])
    funcs = np.asarray(fit_doc["eigenfunctions"]).T
    truth_grid = np.asarray(truth_doc["grid"])
    truth_mean = np.asarray(truth_doc["mean"])
    truth_funcs = np.asarray(truth_doc["eigenfunctions"]).T
    if truth_grid.shape != grid.shape or not np.allclose(truth_grid, grid):
        logger.warning("truth grid differs from fit grid; resampling truth onto fit grid")
        truth_mean = np.interp(grid, truth_grid, truth_mean)
        truth_funcs = np.column_stack([np.interp(grid, truth_grid, f) for f in truth_funcs.T])

    num_aligned = min(funcs.shape[1], truth_funcs.shape[1])
    aligned = funcs.copy()
    for l in range(num_aligned):
        if np.trapezoid(aligned[:, l] * truth_funcs[:, l], grid) < 0:
            aligned[:, l] = -aligned[:, l]
    precision = fit_doc.get("noise_precision_mean")
    return {
        "ise_mean": ise(truth_mean, np.asarray(fit_doc["mean"]), grid),
        "ise_eigenfunctions": [
            ise(truth_funcs[:, l], aligned[:, l], grid) for l in range(num_aligned)
        ],
        "eigenvalues": np.asarray(fit_doc["eigenvalues"]).tolist(),
        "noise_variance_estimate": 1.0 / precision if precision else None,
    }


def _study_cell(task) -> dict:
    """One (replicate, n) cell of the study; runs in a worker process."""
    replicate, num_curves, seed, config = task
    dataset, _ = generate(SimConfig(num_curves=num_curves, seed=seed))
    state = fit(dataset, config)
    result = finalize(state)
    metrics = evaluate_fit_against_truth(_fit_payload(result), _truth_curves(result.grid))
    row = {
        "replicate": replicate,
        "n": num_curves,
        "seed": seed,
        "converged": state.converged,
        "iterations": state.iterations,
        "ise_mean": metrics["ise_mean"],
        "noise_variance_estimate": metrics["noise_variance_estimate"],
    }
    for l, value in enumerate(metrics["ise_eigenfunctions"]):
        row[f"ise_psi{l + 1}"] = value
    for l, value in enumerate(metrics["eigenvalues"]):
        row[f"eigenvalue_{l + 1}"] = value
    return row


def _openblas_function(name: str):
    """OpenBLAS's ``openblas_<name>`` in the library numpy loaded, or None.

    Looked up by its plain, 64-bit-suffixed and scipy-openblas symbol names
    in the OpenBLAS mapped into this process (Linux only).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (f"openblas_{name}", f"openblas_{name}64_", f"scipy_openblas_{name}64_"):
            if hasattr(handle, symbol):
                return getattr(handle, symbol)
    return None


def _one_blas_thread() -> None:
    """Study worker initializer: run this worker's BLAS on one thread.

    A forked worker inherits numpy's OpenBLAS already loaded, with the
    parent's thread count, so OPENBLAS_NUM_THREADS would be read too late;
    OpenBLAS's own setter is called instead.  The parent's threads and
    environment are left alone, and other BLAS builds keep their default.
    On 2 cores, ``eval --study --replicates 2 --n-grid 500 --workers 2`` took
    0.48 s with the setter and 1.72 s without (medians of 6 alternating
    pairs); on 12 cells of n = 10-100 it made no gain (0.66 against 0.62 s).
    """
    setter = _openblas_function("set_num_threads")
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def run_study(
    replicates: int,
    curve_counts: list[int],
    config: FitConfig,
    base_seed: int = 0,
    workers: int = 1,
) -> list[dict]:
    """Replicated simulation study; seeds are paired across curve counts.

    Replicate r simulates its datasets with seed ``base_seed`` + r, and every
    cell fits with ``config``.
    With ``workers`` > 1 the cells run in that many processes, at most one
    per cell, each on one BLAS thread, so the workers do not oversubscribe
    the cores.
    """
    tasks = []
    for replicate in range(replicates):
        seed = base_seed + replicate
        for num_curves in curve_counts:
            tasks.append((replicate, num_curves, seed, config))
    workers = min(workers, len(tasks))
    if workers > 1:
        # imported here: multiprocessing costs every other command its import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            rows = list(pool.map(_study_cell, tasks))
    else:
        rows = [_study_cell(task) for task in tasks]
    return rows


_CURVE_KEYS = ("grid", "mean", "eigenfunctions")


def _check_curves(doc, label: str, keys: tuple[str, ...] = _CURVE_KEYS) -> None:
    """Raise a ValueError naming ``label`` unless ``doc`` holds what eval reads.

    ``doc`` must be a JSON object with every key in ``keys``, and its ``mean``
    and each ``eigenfunctions`` row must hold one number per ``grid`` point;
    the grid must increase, as resampling onto the fit grid assumes.  Its
    ``eigenvalues``, when ``keys`` names them, are one number per eigenfunction.
    Every one of these numbers, and ``noise_precision_mean``, must be finite.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{label}: expected a JSON object, not a {type(doc).__name__}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{label}: missing {', '.join(missing)}")
    try:
        grid, mean, funcs = (np.asarray(doc[key], dtype=float) for key in _CURVE_KEYS)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"{label}: grid, mean and each eigenfunction must be lists of numbers of one length"
        ) from None
    if not all(np.isfinite(curve).all() for curve in (grid, mean, funcs)):
        raise ValueError(f"{label}: grid, mean and eigenfunctions must hold finite numbers")
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError(f"{label}: grid must be a nonempty, increasing list of numbers")
    if mean.shape != grid.shape or funcs.ndim != 2 or funcs.shape[1:] != grid.shape:
        raise ValueError(
            f"{label}: mean and each eigenfunction need one value per grid point ({grid.size})"
        )
    if "eigenvalues" in keys:
        eigenvalues = doc["eigenvalues"]
        if not (
            isinstance(eigenvalues, list)
            and len(eigenvalues) == funcs.shape[0]
            and all(map(_is_finite_number, eigenvalues))
        ):
            raise ValueError(
                f"{label}: eigenvalues must be a list of finite numbers, one per eigenfunction"
            )
    precision = doc.get("noise_precision_mean")
    if precision is not None and not _is_finite_number(precision):
        raise ValueError(f"{label}: noise_precision_mean must be a finite number")


def _is_finite_number(value) -> bool:
    """Whether a JSON value is a finite number; JSON's true and false are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) < np.inf


def _cmd_eval(args) -> int:
    if args.study:
        with _inputs():
            curve_counts = [int(v) for v in args.n_grid.split(",") if v]
            if args.replicates < 1 or not curve_counts:
                raise ValueError("need at least one replicate and one curve count")
            if min(curve_counts) < 2:
                raise ValueError("every --n-grid curve count must be >= 2")
            if args.seed < 0:
                raise ValueError("--seed must be nonnegative in study mode")
            config = _config_from_args(args)
        rows = run_study(
            args.replicates, curve_counts, config, base_seed=args.seed, workers=max(1, args.workers)
        )
        out = Path(args.out or "study.json")
        _write_json(out, rows)
        unconverged = sum(not row["converged"] for row in rows)
        print(f"wrote {len(rows)} study rows to {out}; {unconverged} did not converge")
        return EXIT_OK

    with _inputs():
        if not args.fit or not args.truth:
            raise ValueError("eval requires --fit and --truth (or --study)")
        fit_doc = _read_json(Path(args.fit))
        truth_doc = _read_json(Path(args.truth))
        if isinstance(fit_doc, dict) and "fit" in fit_doc:
            fit_doc = fit_doc["fit"]
        _check_curves(fit_doc, f"fit document {args.fit}", (*_CURVE_KEYS, "eigenvalues"))
        _check_curves(truth_doc, f"truth document {args.truth}")
    metrics = evaluate_fit_against_truth(fit_doc, truth_doc)
    out = Path(args.out or "metrics.json")
    _write_json(out, metrics)
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


# The one map from an exception to an exit code; any other exception is a fault.
_EXIT_CODES = {
    InputError: EXIT_VALIDATION,
    OSError: EXIT_IO,
    DegenerateMessageError: EXIT_DEGENERACY,
    RankDeficiencyError: EXIT_DEGENERACY,
    DegenerateComponentError: EXIT_DEGENERACY,
}


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "fit": _cmd_fit, "eval": _cmd_eval}
    try:
        return handlers[args.command](args)
    except tuple(_EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
