"""``tools/compare_fits.py``: differences in quantities that do not depend on the frame, and
the fits one recording converges and another loses."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import vmpfpca.orchestrator as orchestrator
from vmpfpca.data import FunctionalDataset
from vmpfpca.orchestrator import FitConfig, fit
from vmpfpca.postprocess import finalize
from vmpfpca.simulate import SimConfig, generate

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def compare_fits(monkeypatch):
    # the tool sets OPENBLAS_NUM_THREADS when it loads; monkeypatch restores it after the test
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    path = ROOT / "tools" / "compare_fits.py"
    spec = importlib.util.spec_from_file_location("compare_fits", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def recording(result, iterations, observed, name="study-0-10"):
    """The arrays ``record`` saves for one finalized input, with the fit at its data."""
    arrays = {f"{name}/iterations": np.array(iterations), f"{name}/converged": np.array(True)}
    arrays[f"{name}/observed_fit"] = observed
    for field in dataclasses.fields(result):
        arrays[f"{name}/result/{field.name}"] = np.asarray(getattr(result, field.name))
    return arrays


@pytest.fixture(scope="module")
def fitted():
    """A finalized fit, its sweeps and fitted values at 230 made-up observation points."""
    dataset, _ = generate(SimConfig(num_curves=10, seed=1))
    state = fit(dataset, FitConfig(max_iter=40))
    observed = np.random.default_rng(1).normal(size=230)
    return finalize(state), state.iterations, observed


def save(path, arrays):
    np.savez_compressed(path, **arrays)
    return path


def test_a_recording_compared_with_itself_reports_zeros(compare_fits, fitted, tmp_path, capsys):
    path = save(tmp_path / "a.npz", recording(*fitted))
    assert compare_fits.compare(path, path) == 0
    out = capsys.readouterr().out
    assert "study-0-10: fitted 0, covariance 0, eigenvalues 0, noise precision 0" in out
    assert "study largest: fitted 0, covariance 0, eigenvalues 0, noise precision 0" in out


def test_a_perturbed_copy_reports_its_perturbation(compare_fits, fitted, tmp_path, capsys):
    result, iterations, observed = fitted
    perturbed = dataclasses.replace(
        result,
        fitted=result.fitted * (1.0 + 3e-7),
        eigenvalues=result.eigenvalues * np.array([1.0, 1.0 - 2e-6, 1.0]),
        noise_precision_mean=result.noise_precision_mean * (1.0 + 5e-8),
    )
    first = recording(result, iterations, observed)
    second = recording(perturbed, iterations, observed)
    differences = compare_fits.fit_differences(first, second)["study-0-10"]
    assert differences["fitted"] == pytest.approx(3e-7, rel=1e-6)
    assert differences["eigenvalues"] == pytest.approx(2e-6, rel=1e-6)
    assert differences["noise precision"] == pytest.approx(5e-8, rel=1e-6)
    # the second component's share of the surface, relative to the surface's largest entry
    assert 0.0 < differences["covariance"] < 2e-6
    # the third eigenvalue is not one of the two leading ones
    third = dataclasses.replace(result, eigenvalues=result.eigenvalues * np.array([1, 1, 2.0]))
    third = recording(third, iterations, observed)
    leading = compare_fits.fit_differences(first, third)["study-0-10"]
    assert leading["eigenvalues"] == 0.0

    paths = save(tmp_path / "a.npz", first), save(tmp_path / "b.npz", second)
    assert compare_fits.compare(*paths) == 1
    out = capsys.readouterr().out
    assert "study-0-10: fitted 3e-07, covariance" in out
    assert "eigenvalues 2e-06, noise precision 5e-08" in out
    assert "study sweeps: 40 -> 40" in out


def test_the_mean_and_the_fit_at_the_data_report_zeros_and_perturbations(
    compare_fits, fitted, tmp_path, capsys
):
    result, iterations, observed = fitted
    first = recording(result, iterations, observed)
    same = compare_fits.fit_differences(first, first)["study-0-10"]
    assert same["mean"] == same["fit at data"] == 0.0
    perturbed = dataclasses.replace(result, mean_curve=result.mean_curve * (1.0 + 4e-9))
    second = recording(perturbed, iterations, observed * (1.0 + 6e-8))
    differences = compare_fits.fit_differences(first, second)["study-0-10"]
    assert differences["mean"] == pytest.approx(4e-9, rel=1e-6)
    assert differences["fit at data"] == pytest.approx(6e-8, rel=1e-6)
    assert differences["fitted"] == differences["eigenvalues"] == 0.0

    paths = save(tmp_path / "a.npz", first), save(tmp_path / "b.npz", second)
    assert compare_fits.compare(*paths) == 1
    assert "mean 4e-09, fit at data 6e-08" in capsys.readouterr().out


def test_observed_fit_is_the_fitted_curve_at_each_observation(compare_fits):
    # observations on the grid of the fitted curves, so each row is a grid value
    simulated, _ = generate(SimConfig(num_curves=8, seed=2))
    ticks = np.round(simulated.times * 100.0)
    curves = np.repeat(np.arange(simulated.num_curves), np.diff(simulated.offsets))
    dataset = FunctionalDataset(curves, ticks / 100.0, simulated.values)
    state = fit(dataset, FitConfig(num_eigen=2, grid_size=101, max_iter=60))
    curve_of_row = np.repeat(np.arange(dataset.num_curves), np.diff(dataset.offsets))
    expected = finalize(state).fitted[np.round(dataset.times * 100.0).astype(int), curve_of_row]
    observed = compare_fits.observed_fit(state, dataset)
    assert np.abs(observed - expected).max() <= 1e-10 * np.abs(expected).max()


def test_a_random_recording_compared_with_itself_reports_nothing_lost(
    compare_fits, tmp_path, capsys, monkeypatch
):
    # only the random fits: the comparison inputs take seconds
    monkeypatch.setattr(compare_fits, "comparison_inputs", lambda work: iter(()))
    monkeypatch.setattr(orchestrator, "_JUMP_SPACING", orchestrator._JUMP_SPACING)  # --plain
    jumped, plain = tmp_path / "jumped.npz", tmp_path / "plain.npz"
    compare_fits.record(jumped, ROOT / "src", random=3)
    compare_fits.record(plain, ROOT / "src", random=3, plain=True)
    with np.load(jumped) as arrays:
        fields = ("converged", "inversions", "iterations")
        assert sorted(arrays) == [f"random-{seed}/{field}" for seed in range(3) for field in fields]
        recorded = dict(arrays)
    assert all(recorded[f"random-{seed}/converged"] for seed in range(3))
    # the fit's q(nu) and q(zeta) inversions: at least one per write to nu, and to the scores
    for seed in range(3):
        ((nu, zeta),) = recorded[f"random-{seed}/inversions"]
        sweeps = int(recorded[f"random-{seed}/iterations"])
        assert nu >= 2 * sweeps and zeta >= sweeps
    capsys.readouterr()

    assert compare_fits.compare(jumped, jumped, plain) == 0
    out = capsys.readouterr().out
    assert "0 inputs invert a different number of times" in out
    assert f"0 fits converge in {jumped} but not in {jumped}" in out
    assert f"0 fits converge in {plain} but not in {jumped}" in out
    # the jump shortens these three fits
    assert f"0 fits take more sweeps in {jumped} than in {plain}" in out
    assert compare_fits.slower_fits(recorded, recorded) == []

    # a copy that loses one fit and takes a sweep more on another
    doctored = {**recorded, "random-1/converged": np.array(False)}
    doctored["random-2/iterations"] = recorded["random-2/iterations"] + 1
    assert compare_fits.lost_fits(recorded, doctored) == ["random-1"]
    sweeps = int(recorded["random-2/iterations"])
    assert compare_fits.slower_fits(recorded, doctored) == [("random-2", sweeps, sweeps + 1)]
    assert compare_fits.lost_fits(doctored, recorded) == []

    # a copy that inverts q(nu) once more in one fit: listed, but no array differs
    more = {**recorded, "random-0/inversions": recorded["random-0/inversions"] + [[1, 0]]}
    (counts,) = recorded["random-0/inversions"].tolist()
    expected = [("random-0", [counts], [[counts[0] + 1, counts[1]]])]
    assert compare_fits.changed_inversions(recorded, more) == expected
    totals = compare_fits.inversion_totals(recorded), compare_fits.inversion_totals(more)
    assert (totals[1]["random"] - totals[0]["random"]).tolist() == [[1, 0]]
    assert compare_fits.compare(jumped, save(tmp_path / "more.npz", more)) == 0
    assert "1 inputs invert a different number of times\n  random-0: " in capsys.readouterr().out
