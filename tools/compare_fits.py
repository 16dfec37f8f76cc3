#!/usr/bin/env python3
"""Record the fits of one source tree, or compare two recordings array by array.

    python tools/compare_fits.py record OUT.npz [--src DIR] [--tol TOL] [--random N] [--plain]
    python tools/compare_fits.py compare FIRST.npz SECOND.npz [--plain PLAIN.npz]

``record`` imports ``vmpfpca`` from DIR (default: this checkout's ``src``)
and fits 56 inputs on one BLAS thread, each at its own tolerance or, with
``--tol``, all at TOL and with at least ``TOL_MAX_ITER`` sweeps allowed, so
that fits at a tight tolerance reach it:

- dense-narrow: ``perfbench/inputs.write_dataset`` seeds 1-3 x index 0-9,
  20 curves of 150-300 points, L = 3, K = 10, max_iter 3000;
- study: ``simulate.generate`` seeds 0-7 x n = 10, 50, 100, ``FitConfig()``;
- stall: ``write_dataset`` seed 1, index 0, 20 curves of 1000-2000 points,
  with the dense-narrow settings;
- frozen: the frozen-score fit of acceptance criterion 2.

For each input it saves, under ``<input>/``: the sweep count, the convergence
flag and history, every store array and the chains' floats (with their
Python types) after ``initialize`` and after the fit, the fitted values at
the observation points (:func:`observed_fit`), every ``FpcaFit`` field, or
the text of the error that ``finalize`` raised, and ``inversions``: rows
(q(nu), q(zeta)) of the inversions of the fit and of ``finalize``, counted
as calls of ``graph.gaussian_precision_to_moments``, which ``record`` wraps
while it runs.  An input whose ``initialize`` or ``fit_state`` raises a
ValueError (such as a ``DegenerateMessageError``) saves only that error's
text, as ``<input>/fit_error``, and the recording goes on with the next
input.

``--random N`` adds N seeded random fits (:func:`random_inputs`), for which
it saves only the sweep count, the convergence flag and the fit's row of
inversions, or the fit error.  ``--plain`` turns the jump between sweeps
off, by setting the package's ``_JUMP_SPACING`` beyond every sweep, so that
a plain recording is the reference for the jump's guarantee: a fit the
plain sweep converges within ``max_iter`` must still converge.

``compare`` lists each array that is in one file only or is not bitwise
equal, with the largest absolute difference and the largest entry, prints
each recording's sweep total per input group (dense, study, stall, frozen),
and exits 1 if any array but the inversion counts differs.  It also prints,
per input and per group, the largest relative difference in quantities that
do not depend on the components' frame (:func:`fit_differences`), which show
whether two trees reach the same fixed point when their arrays are not
bitwise equal.  It prints each recording's inversion totals per group and
lists the inputs whose counts differ, which is work, not a different fit.
It lists the inputs that converge in the first recording but not in the
second and, with ``--plain``, those that converge in the plain recording
but not in the second, and those that take more sweeps in the second.
"""

from __future__ import annotations

import os

# set before numpy loads OpenBLAS, which reads it once
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
BENCH_FLAGS = {"num_eigen": 3, "num_splines": 10, "max_iter": 3000}
FROZEN_FLAGS = {
    "num_eigen": 1, "num_splines": 8, "freeze_scores_at_zero": True, "tol": 1e-12, "max_iter": 4000,
}  # fmt: skip
TOL_MAX_ITER = 20000


def comparison_inputs(work: Path):
    """(name, dataset, config keyword arguments) of each input, in a fixed order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from inputs import write_dataset

    from vmpfpca.data import read_dataset_csv
    from vmpfpca.simulate import SimConfig, generate

    def written(seed, index, obs):
        path = work / f"dataset-{seed}-{index}-{obs[0]}.csv"
        write_dataset(path, seed, index, 20, obs)
        return read_dataset_csv(path)

    for seed in (1, 2, 3):
        for index in range(10):
            yield f"dense-{seed}-{index}", written(seed, index, (150, 300)), BENCH_FLAGS
    for seed in range(8):
        for num_curves in (10, 50, 100):
            yield f"study-{seed}-{num_curves}", generate(SimConfig(num_curves, seed=seed))[0], {}
    yield "stall", written(1, 0, (1000, 2000)), BENCH_FLAGS
    yield "frozen", generate(SimConfig(num_curves=12, seed=5))[0], FROZEN_FLAGS


def random_inputs(count: int):
    """(name, dataset, config keyword arguments) of ``count`` seeded random fits.

    Fit ``random-<seed>``, seed 0 to count - 1, draws from its own seed 2-100
    curves of 3-40 points each (a range at most 10 wide), noise variance
    0.1-4, L = 1-5 and K = 5-15, and fits at the default tolerance and
    ``max_iter``.
    """
    from vmpfpca.simulate import SimConfig, generate

    for seed in range(count):
        rng = np.random.default_rng(seed)
        num_curves = int(rng.integers(2, 101))
        num_eigen, num_splines = int(rng.integers(1, 6)), int(rng.integers(5, 16))
        low = int(rng.integers(3, 31))
        sim = SimConfig(
            num_curves,
            obs_range=(low, low + int(rng.integers(0, 11))),
            noise_variance=float(rng.uniform(0.1, 4.0)),
            seed=seed,
        )
        flags = {"num_eigen": num_eigen, "num_splines": num_splines}
        yield f"random-{seed}", generate(sim)[0], flags


def observed_fit(state, dataset) -> np.ndarray:
    """The fitted values E(mu(t) + sum_l zeta_il psi_l(t)) at every observation, in the
    dataset's row order; like the fitted curves, they do not depend on the frame."""
    from vmpfpca.postprocess import extract
    from vmpfpca.splines import design_matrix

    raw = extract(state)
    mean_coefs, *component_coefs = raw.nu_mean.reshape(state.config.num_eigen + 1, -1)
    coefs = mean_coefs + raw.zeta_means @ np.array(component_coefs)  # (n, P)
    rows = np.repeat(coefs, np.diff(dataset.offsets), axis=0)
    return np.einsum("rp,rp->r", design_matrix(dataset.times, state.basis), rows)


def store_arrays(store) -> dict[str, np.ndarray]:
    out = {}
    for field in dataclasses.fields(store):
        value = getattr(store, field.name)
        if field.name == "chains":
            types = [[[type(x).__name__ for x in message] for message in c] for c in value]
            out["chain_types"] = np.array(types)
        out[field.name] = np.array(value, dtype=float)
    return out


def convergence(arrays) -> dict[str, tuple[bool, int]]:
    """(converged, sweeps) of each input the recording fitted without an error."""
    out = {}
    for key, value in arrays.items():
        name, _, field = key.partition("/")
        if field == "iterations":
            out[name] = bool(arrays[f"{name}/converged"]), int(value)
    return out


def sweep_totals(arrays) -> dict[str, int]:
    """Sweeps per input group, the input name up to its first '-', over the fits that ran."""
    totals = {}
    for name, (_, sweeps) in convergence(arrays).items():
        group = name.split("-")[0]
        totals[group] = totals.get(group, 0) + sweeps
    return totals


def inversion_totals(arrays) -> dict[str, np.ndarray]:
    """Inversions per input group: (q(nu), q(zeta)) of the fits, then of ``finalize`` where
    the recording ran it."""
    totals = {}
    for key, value in arrays.items():
        name, _, field = key.partition("/")
        if field == "inversions":
            group = name.split("-")[0]
            totals[group] = totals.get(group, 0) + value
    return totals


def changed_inversions(a, b) -> list[tuple[str, list, list]]:
    """(name, counts in ``a``, counts in ``b``) of each input whose inversion counts differ."""
    return [
        (key.split("/")[0], a[key].tolist(), b[key].tolist())
        for key in a
        if key.endswith("/inversions") and key in b and a[key].tolist() != b[key].tolist()
    ]


def lost_fits(a, b) -> list[str]:
    """The inputs that converge in recording ``a`` but not in ``b``, where a fit error counts
    as not converging."""
    first, second = convergence(a), convergence(b)
    converged = [name for name, (done, _) in first.items() if done]
    return [name for name in converged if not second.get(name, (False, 0))[0]]


def slower_fits(a, b) -> list[tuple[str, int, int]]:
    """(name, sweeps in ``a``, sweeps in ``b``) of each input that takes more sweeps in ``b``."""
    first, second = convergence(a), convergence(b)
    return [
        (name, sweeps, second[name][1])
        for name, (_, sweeps) in first.items()
        if name in second and second[name][1] > sweeps
    ]


def fit_differences(a, b) -> dict[str, dict[str, float]]:
    """For each input that both recordings finalized, the largest relative difference in
    each identified quantity: max |x - y| / max |x| of the fitted curves and of the
    covariance surface sum_l lambda_l psi_l(s) psi_l(t) on the grid, max |x - y| / |x|
    over the two leading eigenvalues, |x - y| / |x| of the noise precision, and
    max |x - y| / max |x| of the mean curve on the grid and of the fitted values at the
    observation points."""

    def identified(arrays, name):
        psi = arrays[f"{name}/result/eigenfunctions"]
        eigenvalues = arrays[f"{name}/result/eigenvalues"]
        return {
            "fitted": arrays[f"{name}/result/fitted"],
            "covariance": (psi * eigenvalues) @ psi.T,
            "eigenvalues": eigenvalues[:2],
            "noise precision": arrays[f"{name}/result/noise_precision_mean"],
            "mean": arrays[f"{name}/result/mean_curve"],
            "fit at data": arrays[f"{name}/observed_fit"],
        }

    out = {}
    for key in a:
        name, _, field = key.partition("/")
        if field != "result/fitted" or key not in b:
            continue
        first, second = identified(a, name), identified(b, name)
        out[name] = {}
        for quantity, x in first.items():
            diff = np.abs(x - second[quantity])
            if quantity in ("fitted", "covariance", "mean", "fit at data"):
                out[name][quantity] = float(diff.max() / np.abs(x).max())
            else:
                out[name][quantity] = float((diff / np.abs(x)).max())
    return out


def print_fit_differences(differences) -> None:
    """One line per input, then the largest of each quantity per input group."""
    groups = {}
    for name, row in differences.items():
        print(f"{name}: " + ", ".join(f"{q} {v:.2g}" for q, v in row.items()))
        group = groups.setdefault(name.split("-")[0], {})
        for quantity, value in row.items():
            group[quantity] = max(group.get(quantity, 0.0), value)
    for group, row in groups.items():
        print(f"{group} largest: " + ", ".join(f"{q} {v:.2g}" for q, v in row.items()))


def record(
    out: Path, src: Path, tol: float | None = None, random: int = 0, plain: bool = False
) -> None:
    sys.path.insert(0, str(src))
    from vmpfpca import graph, orchestrator
    from vmpfpca.orchestrator import FitConfig, fit_state, initialize
    from vmpfpca.postprocess import finalize

    if plain:
        orchestrator._JUMP_SPACING = sys.maxsize  # no sweep reaches a jump's try
    inversions = np.zeros(2, dtype=int)  # q(nu), q(zeta), zeroed before each fit and finalize
    invert = graph.gaussian_precision_to_moments

    def counted(eta1, precision, context):
        inversions[eta1.ndim - 1] += 1  # q(nu)'s eta1 is a vector, the stacked q(zeta)'s (n, L)
        return invert(eta1, precision, context)

    arrays = {}
    counting = mock.patch.object(graph, "gaussian_precision_to_moments", counted)
    with tempfile.TemporaryDirectory() as work, counting:
        inputs = [(*item, True) for item in comparison_inputs(Path(work))]
        inputs += [(*item, False) for item in random_inputs(random)]
        for name, dataset, flags, full in inputs:
            if tol is not None:
                budget = max(flags.get("max_iter", 0), TOL_MAX_ITER)
                flags = {**flags, "tol": tol, "max_iter": budget}
            try:
                state = initialize(dataset, FitConfig(**flags))
                start = store_arrays(state.store)
                inversions[:] = 0
                fit_state(state)
            except ValueError as err:  # a fit error: both trees must raise it alike
                arrays[f"{name}/fit_error"] = np.array(f"{type(err).__name__}: {err}")
                print(f"{name}: {type(err).__name__}: {err}", flush=True)
                continue
            print(f"{name}: {state.iterations} sweeps, converged {state.converged}", flush=True)
            saved = dict(iterations=np.array(state.iterations), converged=np.array(state.converged))
            counts = [inversions.copy()]  # the fit's, then finalize's
            if full:
                saved.update({f"init/{key}": value for key, value in start.items()})
                end = store_arrays(state.store)
                saved.update({f"fit/{key}": value for key, value in end.items()})
                saved.update(history=np.array(state.history))
                saved.update(observed_fit=observed_fit(state, dataset))
                inversions[:] = 0
                try:
                    result = finalize(state)
                except ValueError as err:  # a post-processing error: both trees must raise it alike
                    saved["finalize_error"] = np.array(f"{type(err).__name__}: {err}")
                else:
                    for field in dataclasses.fields(result):
                        saved[f"result/{field.name}"] = np.asarray(getattr(result, field.name))
                counts.append(inversions.copy())
            saved.update(inversions=np.array(counts))
            arrays.update({f"{name}/{key}": value for key, value in saved.items()})
    np.savez_compressed(out, **arrays)
    print(f"wrote {len(arrays)} arrays to {out}; sweeps by group: {sweep_totals(arrays)}")


def compare(first: Path, second: Path, plain: Path | None = None) -> int:
    with np.load(first) as a, np.load(second) as b:
        a, b = dict(a), dict(b)
    # the inversion counts are work, not results: reported apart, below
    keys = {key for key in [*a, *b] if not key.endswith("/inversions")}
    lines = [f"only in {first}: {key}" for key in sorted(keys - set(b))]
    lines += [f"only in {second}: {key}" for key in sorted(keys - set(a))]
    equal = 0
    for key in sorted(keys & set(a) & set(b)):
        x, y = a[key], b[key]
        if x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes():
            equal += 1
        elif x.dtype.kind == y.dtype.kind == "f" and x.shape == y.shape:
            diff = float(np.nanmax(np.abs(x - y))) if x.size else 0.0
            lines.append(
                f"{key}: max |diff| {diff:.3g}, max |entry| {float(np.nanmax(np.abs(x))):.3g}"
            )
        else:
            head = [f"{v.dtype} {v.shape} {v.ravel()[:3]}" for v in (x, y)]
            lines.append(f"{key}: {head[0]} vs {head[1]}")
    print(*lines, sep="\n")
    print(f"{equal} of {len(keys)} arrays bitwise equal, {len(lines)} not")
    print("largest relative differences in identified quantities:")
    print_fit_differences(fit_differences(a, b))
    first_sweeps, second_sweeps = sweep_totals(a), sweep_totals(b)
    for group in dict.fromkeys([*first_sweeps, *second_sweeps]):
        print(f"{group} sweeps: {first_sweeps.get(group, 0)} -> {second_sweeps.get(group, 0)}")
    print("inversions (q(nu), q(zeta)) of the fits, then of finalize:")
    totals = inversion_totals(a), inversion_totals(b)
    for group in dict.fromkeys([*totals[0], *totals[1]]):
        first_total, second_total = (np.asarray(t.get(group, [])).tolist() for t in totals)
        print(f"  {group}: {first_total} -> {second_total}")
    changed = changed_inversions(a, b)
    print(f"{len(changed)} inputs invert a different number of times")
    for name, first_counts, second_counts in changed:
        print(f"  {name}: {first_counts} -> {second_counts}")
    lost = lost_fits(a, b)
    print(f"{len(lost)} fits converge in {first} but not in {second}", *lost, sep="\n  ")
    if plain is not None:
        with np.load(plain) as p:
            p = dict(p)
        lost = lost_fits(p, b)
        print(f"{len(lost)} fits converge in {plain} but not in {second}", *lost, sep="\n  ")
        slower = slower_fits(p, b)
        print(f"{len(slower)} fits take more sweeps in {second} than in {plain}")
        for name, plain_sweeps, sweeps in slower:
            print(f"  {name}: {plain_sweeps} -> {sweeps}")
    return 1 if lines else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    rec = commands.add_parser("record", help="fit the inputs and save the results")
    rec.add_argument("out", type=Path)
    rec.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding vmpfpca")
    rec.add_argument("--tol", type=float, help="fit every input at this tolerance")
    rec.add_argument("--random", type=int, default=0, metavar="N", help="add N random fits")
    rec.add_argument("--plain", action="store_true", help="fit without the jump between sweeps")
    cmp = commands.add_parser("compare", help="list the arrays two recordings disagree on")
    cmp.add_argument("first", type=Path)
    cmp.add_argument("second", type=Path)
    cmp.add_argument("--plain", type=Path, help="a --plain recording of the same inputs")
    args = parser.parse_args()
    if args.command == "record":
        record(args.out, args.src.resolve(), args.tol, args.random, args.plain)
        return 0
    return compare(args.first, args.second, args.plain)


if __name__ == "__main__":
    sys.exit(main())
