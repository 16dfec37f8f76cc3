"""Self-test of the benchmark: tiny runs of every workload, the output checks and the tracer.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

Takes about a minute.  It checks that every end-to-end metric prints with its
unit on every workload, that the traced run reports every per-layer metric
listed in BENCHMARK.json, that broken outputs are reported as failures, that
the tracer records a missing name as absent, and that the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(output: str) -> dict:
    return json.loads(output.strip().splitlines()[-1])


def test_every_workload_prints_end_to_end_metrics():
    for workload in run.WORKLOADS:  # sparse-wide too, though BENCHMARK.json does not gate it
        done = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny")
        assert done.returncode == 0, done.stderr
        result = last_json(done.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
        for metric in SPEC["end_to_end"]:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"] and entry["value"] > 0, (workload, metric)
            assert f"  {metric['name']} median " in done.stdout
        for name in ("fail_frac", "ise_mean", "ise_psi_max", "eigval_relerr", "sigma2_relerr"):
            assert f"  {name} " in done.stdout, (workload, name)
        assert "study_fits_per_s" in done.stdout or workload != "study"


def test_traced_run_reports_every_layer():
    # The tiny study uses two workers, so this also covers counters shipped back from forked workers.
    done = bench("--workload", "study", "--seed", "2", "--seconds", "1", "--trace", "1", "--tiny")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"], done.stdout
    metrics = result["metrics"]
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"], metric
        assert metrics[metric["name"]]["value"] is not None, metric
    assert abs(metrics["trace.fit_state_coverage"]["value"] - 1.0) < 1e-6
    assert metrics["orchestrator.sweeps"]["value"] > 0
    assert metrics["cli.study.cells"]["value"] == 2


def good_fit() -> dict:
    grid = np.linspace(0.0, 1.0, 201)
    funcs = np.sqrt(2.0) * np.column_stack([np.sin(2 * np.pi * grid), np.cos(2 * np.pi * grid)])
    funcs /= np.sqrt(np.diag(funcs.T @ (checks.trapezoid_weights(grid)[:, None] * funcs)))
    scores = np.array([[1.0, 0.5], [-1.0, 0.5], [1.0, -0.5], [-1.0, -0.5]])
    fit = {
        "grid": grid.tolist(),
        "mean": np.sin(np.pi * grid).tolist(),
        "eigenfunctions": funcs.T.tolist(),
        "scores": scores.tolist(),
        "score_covariances": np.tile(np.eye(2), (4, 1, 1)).tolist(),
        "eigenvalues": [4.0 / 3.0, 1.0 / 3.0],
        "noise_precision_mean": 1.0,
    }
    return {"fit": fit, "manifest": {"converged": True, "iterations": 10}}


def test_broken_outputs_are_failures():
    assert checks.check_fit(0, good_fit(), {"max_rel_dev": 0.0}) == []
    broken = good_fit()
    broken["fit"]["eigenfunctions"][0] = [1.1 * v for v in broken["fit"]["eigenfunctions"][0]]
    assert any("orthonormal" in p for p in checks.check_fit(0, broken, None))
    broken = good_fit()
    broken["fit"]["scores"][0][0] += 0.1
    assert any("mean-zero" in p for p in checks.check_fit(0, broken, None))
    broken = good_fit()
    broken["fit"]["eigenvalues"] = [1.0 / 3.0, 4.0 / 3.0]
    assert any("descending" in p for p in checks.check_fit(0, broken, None))
    broken = good_fit()
    broken["fit"]["mean"][3] = float("nan")
    assert checks.check_fit(0, broken, None) == ["non-finite output"]
    broken = good_fit()
    broken["manifest"]["converged"] = False
    assert any("not converged" in p for p in checks.check_fit(0, broken, None))
    assert any("rotation" in p for p in checks.check_fit(0, good_fit(), {"max_rel_dev": 1e-3}))
    assert checks.check_fit(4, good_fit(), None) == ["exit code 4"]
    row = {"replicate": 0, "n": 10, "converged": False, "iterations": 3000, "eigenvalue_1": 1.0}
    problems, failed = checks.check_study_rows(0, [row], 1)
    assert failed == 1 and any("not converged" in p for p in problems)


def test_tracer_reports_missing_names_as_absent():
    saved = dict(tracer.LAYERS)
    try:
        tracer.LAYERS["graph"] = [*saved["graph"], ("no_such_function", "gone")]
        tracer.LAYERS["orchestrator"] = [("renamed_fit_state", "fit_state")]
        tracer.LAYERS["no_such_layer"] = [("anything", "anything")]
        traced = tracer.Tracer()
        traced.install()
        for name in ("graph.gone", "no_such_layer.anything", "orchestrator.fit_state", "orchestrator.sweeps"):
            assert name in traced.absent, name
        assert "graph.gone" not in traced.stats
    finally:
        tracer.LAYERS.clear()
        tracer.LAYERS.update(saved)


def test_refuses_to_run_without_the_program():
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch, prefix="bare-"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "study", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert "correct" not in done.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
