"""``tools/compare_fits.py compare``: differences in quantities that do not depend on the frame."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

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


def recording(result, iterations, name="study-0-10"):
    """The arrays ``record`` saves for one finalized input."""
    arrays = {f"{name}/iterations": np.array(iterations)}
    for field in dataclasses.fields(result):
        arrays[f"{name}/result/{field.name}"] = np.asarray(getattr(result, field.name))
    return arrays


@pytest.fixture(scope="module")
def fitted():
    dataset, _ = generate(SimConfig(num_curves=10, seed=1))
    state = fit(dataset, FitConfig(max_iter=40))
    return finalize(state), state.iterations


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
    result, iterations = fitted
    perturbed = dataclasses.replace(
        result,
        fitted=result.fitted * (1.0 + 3e-7),
        eigenvalues=result.eigenvalues * np.array([1.0, 1.0 - 2e-6, 1.0]),
        noise_precision_mean=result.noise_precision_mean * (1.0 + 5e-8),
    )
    first = recording(result, iterations)
    second = recording(perturbed, iterations)
    differences = compare_fits.fit_differences(first, second)["study-0-10"]
    assert differences["fitted"] == pytest.approx(3e-7, rel=1e-6)
    assert differences["eigenvalues"] == pytest.approx(2e-6, rel=1e-6)
    assert differences["noise precision"] == pytest.approx(5e-8, rel=1e-6)
    # the second component's share of the surface, relative to the surface's largest entry
    assert 0.0 < differences["covariance"] < 2e-6
    # the third eigenvalue is not one of the two leading ones
    third = dataclasses.replace(result, eigenvalues=result.eigenvalues * np.array([1, 1, 2.0]))
    leading = compare_fits.fit_differences(first, recording(third, iterations))["study-0-10"]
    assert leading["eigenvalues"] == 0.0

    paths = save(tmp_path / "a.npz", first), save(tmp_path / "b.npz", second)
    assert compare_fits.compare(*paths) == 1
    out = capsys.readouterr().out
    assert "study-0-10: fitted 3e-07, covariance" in out
    assert "eigenvalues 2e-06, noise precision 5e-08" in out
    assert "study sweeps: 40 -> 40" in out
